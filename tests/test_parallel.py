"""Worker pools: order-preserving fan-out within the host's CPUs."""
from __future__ import annotations

import concurrent.futures
import os

import pytest

from ramsey_ba.parallel import ordered_map


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.fixture
def pool_sizes(monkeypatch):
    RecordingPool.sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return RecordingPool.sizes


def test_pool_is_capped_by_the_usable_cpus(monkeypatch, pool_sizes):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert ordered_map(abs, range(-15, 0), 64) == list(range(15, 0, -1))
    assert pool_sizes == [2]


def test_pool_falls_back_to_the_cpu_count(monkeypatch, pool_sizes):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert ordered_map(abs, range(-15, 0), 64) == list(range(15, 0, -1))
    assert ordered_map(abs, [-1, -2], 64) == [1, 2]
    assert pool_sizes == [3, 2]


def test_one_usable_cpu_maps_in_process(monkeypatch, pool_sizes):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert ordered_map(abs, range(-15, 0), 64) == list(range(15, 0, -1))
    assert pool_sizes == []
