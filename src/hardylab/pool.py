"""The lab's one thread pool.

WORKERS threads, one per CPU this process may run on. The maximal-function
fold maps its chunks of scales over POOL, and E5 its instances. No task on
the pool submits work to it, so no task waits for a worker that another
task holds. Read the pool as pool.POOL at call time: a forked child
inherits the executor but none of its threads, and gets a fresh one.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
POOL = ThreadPoolExecutor(WORKERS)


def _reset_pool():
    global POOL
    POOL = ThreadPoolExecutor(WORKERS)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_pool)
