"""Deterministic work sharding.

Suites split their instance space into shards and merge results in shard
order, so reports are byte-identical for any worker count.  The environment
variable RAMSEY_BA_WORKERS overrides a requested worker count.  A pool never
starts more processes than there are shards or CPUs this process may run on.
"""
from __future__ import annotations

import os
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

WORKERS_ENV = "RAMSEY_BA_WORKERS"


def resolve_workers(requested: int | None) -> int:
    """Worker count from the environment override or the request; at least 1."""
    raw = os.environ.get(WORKERS_ENV)
    if raw is not None:
        try:
            requested = int(raw)
        except ValueError:
            raise ValueError(f"{WORKERS_ENV} must be an integer, got {raw!r}")
    if requested is None:
        return 1
    if requested < 1:
        raise ValueError(f"worker count must be at least 1, got {requested}")
    return requested


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
