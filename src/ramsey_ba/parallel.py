"""Deterministic work sharding.

Suites split their instance space into shards and merge results in shard
order, so reports are byte-identical for any worker count.  The caller
names the worker count, and a pool never starts more processes than there
are shards or CPUs this process may run on.
"""
from __future__ import annotations

import os
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def ordered_map(fn: Callable[[T], R], items: Iterable[T], workers: int = 1) -> list[R]:
    """map() preserving input order, optionally fanned out to processes."""
    items = list(items)
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(workers, len(items), cpus)
    if workers <= 1:
        return [fn(item) for item in items]
    # imported only when fanning out: it pulls in multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
