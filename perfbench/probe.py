"""Fresh-process set-up probe: ``python perfbench/probe.py WORKLOAD SEED``.

Does what a user pays before the first timed operation of an in-process
workload -- import the package and build that workload's inputs -- then
prints ``ready``.  The parent times it from process start to that line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import repro  # noqa: E402,F401  (the import is part of set-up)

workload, seed = sys.argv[1], int(sys.argv[2])
if workload == "session-walk":
    import session_walk

    sessions = [session_walk.new_session(kb) for kb in session_walk.knowledge_bases(seed)]
elif workload == "paper-kernels":
    import paper_kernels

    inputs = paper_kernels.build_inputs(seed)
else:
    sys.exit(f"unknown workload {workload!r}")
print("ready", flush=True)
