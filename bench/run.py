"""Benchmark of degloci: generated scenarios, dense ring ops, cold CLI launches.

Run one workload:

    python3 bench/run.py --workload scenario_batch --seed 1 --seconds 45 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
full result, with provenance and details, is appended to ``--out``.

Compare two result files (for example one per commit):

    python3 bench/run.py --compare base.jsonl new.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from degbench.env import OUT, CheckoutError, check_checkout
from degbench.workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", type=Path, default=OUT / "results.jsonl",
        help="JSON-lines file the full result is appended to",
    )
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), type=Path)
    args = parser.parse_args(argv)

    if args.compare:
        from degbench.compare import compare

        print(compare(*args.compare))
        return 0
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    try:
        check_checkout()
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    from degbench.runner import run_benchmark

    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with args.out.open("a", encoding="utf-8") as out:
        out.write(json.dumps(result) + "\n")

    details = result["details"]
    summary = (
        f"{result['workload']} seed={args.seed} trace={args.trace}: "
        f"attempted {result['attempted']}, failed {result['failed']} "
        f"(failed_share {details['failed_share']:.4g})"
    )
    if "latency_samples" in details:
        summary += (
            f"; latency over {details['latency_samples']} items, fastest of "
            f"{details['item_runs']} runs in all, "
            f"{details['samples_beyond_p90']} beyond p90"
        )
    print(summary)
    for problem in result["failures"]:
        print(f"  failure: {problem}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
