"""Where the checkout is, how children are started, and run provenance.

The benchmark always runs the package from the checkout's own ``src/``: it is
put first on ``sys.path`` and on every child's ``PYTHONPATH``, and a run
refuses to start if ``src/degloci`` or the golden reports are missing rather
than fall back on some installed copy.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
OUT = ROOT / ".bench_out"


class CheckoutError(RuntimeError):
    """The checkout lacks the package sources or the golden reports."""


def check_checkout():
    for needed in (SRC / "degloci" / "__init__.py", GOLDEN / "m16.exact.txt"):
        if not needed.is_file():
            raise CheckoutError(f"missing {needed.relative_to(ROOT)} under {ROOT}")


def import_package():
    """Import degloci from the checkout's src/ and prove it came from there."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import degloci

    if Path(degloci.__file__).resolve().parent != SRC / "degloci":
        raise CheckoutError(f"degloci was imported from {degloci.__file__}, not {SRC}")
    return degloci


def child_env(*extra_paths) -> dict:
    """Environment for a child interpreter: the checkout's src/ on PYTHONPATH."""
    env = dict(os.environ)
    paths = [str(SRC), *map(str, extra_paths)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def git_commit() -> str | None:
    """HEAD's commit read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    return {
        "seed": seed,
        "git_commit": git_commit(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
    }
