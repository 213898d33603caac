"""The benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload builds its inputs from
``--seed``, runs whole rounds of one fixed operation sequence until
``--seconds`` have passed, checks the program's outputs, and prints as
its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

WORKLOADS = ("serve-mixed", "session-walk", "paper-kernels")


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    On a virtual machine a request that wakes the server on another,
    idle virtual CPU waits until the hypervisor runs that CPU.  On a
    2-CPU host, alternating 10 s serve-mixed runs gave an update p99 (over
    blocks of 1000 requests) of 1.5-2 ms pinned and 5-13 ms unpinned.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args(argv)
    if options.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (HERE.parent / "src" / "repro").is_dir():
        parser.error("run from a checkout that holds the package under src/repro")
    pin_to_one_cpu()
    if options.workload == "serve-mixed":
        import serve_mixed as workload
    elif options.workload == "session-walk":
        import session_walk as workload
    else:
        import paper_kernels as workload
    workload.run(options.seed, options.seconds, bool(options.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
