"""Child-process probe: set-up timed in a fresh interpreter.

``python -m degbench.probe <workload> <seed>`` times ``import degloci`` plus
the workload's warm-up item, checks the item, and prints one JSON line.  It
needs the checkout's ``src/`` and the bench directory on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import sys
import time

from .env import import_package
from .runner import checked
from .workloads import WORKLOADS


def main(argv) -> int:
    workload = WORKLOADS[argv[0]](int(argv[1]))
    item = workload.warmup()
    start = time.perf_counter()
    workload.bind(import_package())
    import_s = time.perf_counter() - start
    item_s, problems = checked(workload, item, workload.run)
    print(json.dumps({"setup_s": import_s + item_s, "problems": problems}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
