"""The one process pool of the package, shared by the clustering sweep and
the selftest.

:func:`pool_map` runs independent pieces of work in worker processes, at
most one per CPU this process may use, and returns what a plain loop over
them would return, in the same order. The pool's modules are imported only
when a pool starts, so no command pays for them at start-up.
"""

from __future__ import annotations

import os

# the mapped function and its shared inputs in a worker process, set once by
# _init_worker
_worker_call: tuple = ()


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    reports one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _init_worker(fn, shared: tuple) -> None:
    global _worker_call
    _worker_call = (fn, shared)


def _call(args: tuple):
    fn, shared = _worker_call
    return fn(*shared, *args)


def pool_map(fn, items, jobs: int | None = None, shared: tuple = ()) -> list:
    """``[fn(*shared, *args) for args in items]``, run in
    N = min(jobs, len(items), usable CPUs) worker processes.

    ``fn`` is a module-level function; ``jobs=None`` sets no limit of its
    own. The workers receive ``fn`` and ``shared`` once, when they start
    (forked where the platform can fork, so they are inherited rather than
    pickled); each item and its result travel one at a time. Items are
    handed out in input order, so a caller that lists its longest first
    keeps the last worker from finishing alone on a long one. When N is 1
    the loop runs in this process and starts none. An exception ``fn``
    raises in a worker is raised here; a worker that dies, leaving the pool
    broken, raises :class:`ChildProcessError`. Every worker has exited when
    this returns or raises.
    """
    items = list(items)
    workers = min(len(items), usable_cpus(), len(items) if jobs is None else jobs)
    if workers <= 1:
        return [fn(*shared, *args) for args in items]
    import concurrent.futures
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool

    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    try:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context(method),
            initializer=_init_worker,
            initargs=(fn, shared),
        ) as pool:
            return list(pool.map(_call, items))
    except BrokenProcessPool as exc:
        raise ChildProcessError(f"a worker process died: {exc}") from exc
