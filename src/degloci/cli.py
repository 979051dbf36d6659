"""Command-line front end for running scenarios.

Exit codes: 0 on success, 1 on any scenario problem (bad file, bad flag,
schema violation, inconsistent data) or a report that cannot be written (stdout
cannot encode it, is closed, is full or is a pipe with no reader), 2 when an
internal consistency check fails, including cross-checks requested with --check.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import InternalCheckError, ScenarioError
from .report import RENDERERS
from .scenario import (
    BUNDLED_SCENARIOS,
    load_bundled_scenario,
    load_scenario,
    run_scenario,
)


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; here 2 is reserved for internal
    failures, so usage problems exit 1 like other scenario-level errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="degloci",
        description=(
            "Exact Chern-class pipelines: virtual Chern numbers of degeneracy "
            "loci and slope invariants of the induced curve families."
        ),
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--config", metavar="PATH", help="path to a scenario JSON file"
    )
    source.add_argument(
        "--scenario",
        choices=BUNDLED_SCENARIOS,
        help="run one of the bundled scenarios",
    )
    parser.add_argument(
        "--format",
        choices=sorted(RENDERERS),
        default="exact",
        help="output format (default: exact)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="also run the double-point, Noether and beta/sigma cross-checks; "
        "exit nonzero if any disagree",
    )
    return parser


def _write_report(text: str) -> str | None:
    """Write ``text`` to stdout and flush it; None, or why it could not be written."""
    out = sys.stdout
    if out is None:  # the process was started with stdout closed
        return "standard output is closed"
    try:
        out.write(text)
        out.flush()
    except UnicodeEncodeError as exc:
        return str(exc)
    except OSError as exc:
        # The interpreter flushes stdout again at exit and would report the
        # same failure: send what is left unwritten to the null device.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
        return str(exc)
    return None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.scenario is not None:
            scenario = load_bundled_scenario(args.scenario)
        else:
            scenario = load_scenario(args.config)
        report = run_scenario(scenario, check=args.check)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InternalCheckError, AssertionError) as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 2
    problem = _write_report(RENDERERS[args.format](report))
    if problem is not None:
        print(f"error: cannot write the report: {problem}", file=sys.stderr)
        return 1
    if not report.all_checks_passed:
        print("error: cross-checks failed", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
