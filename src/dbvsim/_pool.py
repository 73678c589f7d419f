"""How many worker processes the trial and sweep pools start."""

from __future__ import annotations

import os


def worker_count(jobs: int, tasks: int) -> int:
    """Workers for ``tasks`` independent tasks: min(jobs, CPU count, tasks), at least 1.

    A pool starts every worker it is allowed up front, so a ``jobs`` beyond
    the cores or the work only adds processes.
    """
    if jobs <= 1 or tasks <= 1:
        return 1  # a serial batch does not read the CPU count
    return max(1, min(jobs, os.cpu_count() or 1, tasks))
