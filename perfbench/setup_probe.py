"""Set a workload up and time it: import ``repro``, build, warm up.

``run.py`` calls :func:`set_up` for its own workload and runs this file in
fresh interpreters to sample the set-up time::

    python3 perfbench/setup_probe.py <workload> <seed> <seconds>

which prints the seconds from just before ``import repro`` to the end of
the warm-up.
"""

from __future__ import annotations

import ctypes
import importlib
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Workload name -> (module, class).
WORKLOADS = {
    "paper-eval": ("perfbench.paper_eval", "PaperEval"),
    "explore": ("perfbench.explore", "Explore"),
    "serve": ("perfbench.serve", "Serve"),
}


def pin_malloc() -> None:
    """Pin glibc's mmap threshold at its initial 128 KiB.

    glibc raises the threshold each time a large block is freed, so whether
    a NumPy array of a few MB is a fresh zero-filled mapping or reused heap
    that must be cleared depends on what the run freed before: it moved
    ``observe_sweep`` up to 3x between seeds.  Pinned, every op allocates
    the same way.  A no-op where ``mallopt`` is missing.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(-3, 128 * 1024)  # M_MMAP_THRESHOLD


def set_up(name: str, seed: int, seconds: float):
    """The workload built from ``seed`` and warmed up, and the seconds taken.

    The warm-up runs every call of an op on toy inputs, so lazy imports and
    first-call costs land here and not in the first timed op.
    """
    start = time.perf_counter()
    import repro  # noqa: F401  (timed: the package import is set-up work)

    module, cls = WORKLOADS[name]
    workload = getattr(importlib.import_module(module), cls)(seed, seconds)
    workload.warm_up()
    return workload, time.perf_counter() - start


if __name__ == "__main__":
    pin_malloc()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    _, elapsed = set_up(sys.argv[1], int(sys.argv[2]), float(sys.argv[3]))
    print(repr(elapsed))
