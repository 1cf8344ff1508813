"""Deterministic work sharding.

Suites split their instance space into shards and merge results in shard
order, so reports are byte-identical for any worker count.  A suite takes
the workers its work pays for (workers_for), capped at the usable CPUs.  A
fan-out forks one child per extra worker; child w maps the stride
items[w::n] and sends its results back as one pickled list over a pipe,
while the caller maps items[0::n] itself.  A child's exception is pickled
back and raised in the caller, and every path reaps every child.
"""
from __future__ import annotations

import os
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# what a forked child costs its caller, in nanoseconds: the fork, the pipe,
# the wait, the child's start and, first in a process, the pickle import
FORK_NS = 4_000_000


def usable_workers(workers: int) -> int:
    """workers, capped at the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(workers, cpus)


def workers_for(units: int, unit_ns: int, workers: int) -> int:
    """One worker per FORK_NS of work, units of unit_ns each, so a second
    comes once half of it costs a fork; at least one, at most usable_workers."""
    return max(1, min(usable_workers(workers), units * unit_ns // FORK_NS))


def ordered_map(fn: Callable[[T], R], items: Iterable[T], workers: int = 1) -> list[R]:
    """map() preserving input order, optionally fanned out to forked children."""
    items = list(items)
    workers = min(usable_workers(workers), len(items))
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    # imported only when fanning out: a one-worker run never loads them
    import pickle
    import signal

    children: list[tuple[int, int]] = []  # (pid, read end of its pipe), uncollected
    try:
        for w in range(1, workers):
            children.append(_fork(fn, items[w::workers]))
        shares = [[fn(item) for item in items[0::workers]]]
        while children:
            pid, read = children[0]
            with open(read, "rb", closefd=False) as pipe:
                payload = pipe.read()
            del children[0]
            os.close(read)
            _, status = os.waitpid(pid, 0)
            if not payload:
                raise ChildProcessError(f"worker {pid} exited with status {status}")
            ok, value = pickle.loads(payload)
            if not ok:
                raise value
            shares.append(value)
    finally:
        for pid, read in children:
            os.kill(pid, signal.SIGKILL)
            os.close(read)
            os.waitpid(pid, 0)
    results: list = [None] * len(items)
    for w, share in enumerate(shares):
        results[w::workers] = share
    return results


def _fork(fn: Callable, share: list) -> tuple[int, int]:
    """Start a child that maps share and writes (ok, results or exception)."""
    import pickle

    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:  # the child never returns: os._exit skips the caller's cleanup
        code = 1
        try:
            os.close(read)
            try:
                payload = pickle.dumps((True, [fn(item) for item in share]))
            except BaseException as error:  # the caller raises it
                payload = pickle.dumps((False, error))
            with open(write, "wb") as pipe:
                pipe.write(payload)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    return pid, read

