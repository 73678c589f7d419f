"""Set-up probe: a fresh interpreter imports dbvsim from the checkout, derives
one workload's inputs (its optimizer calls) and prints ``ready``; then it
prints the times of consecutive host-speed reference calls in this process.

run.py times this from launch to the ``ready`` line.
Usage: python3 perfbench/probe.py <workload>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs the src path above)

workloads.build(sys.argv[1])
print("ready", flush=True)

import reference  # noqa: E402  (after "ready": not part of set-up)

print(" ".join(repr(t) for t in reference.call_times(reference.SETUP_CALLS)), flush=True)
