"""Fan-out: order-preserving map over forked children within the host's CPUs."""
from __future__ import annotations

import os

import pytest

from ramsey_ba import parallel
from ramsey_ba.parallel import ordered_map


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children ordered_map forks; each child still runs."""
    pids: list[int] = []
    real = os.fork

    def recording_fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


@pytest.fixture
def cheap_forks(monkeypatch):
    """A fork costs one nanosecond, so every suite with work to share forks:
    its fork path stays under test on suites too small to pay for a child."""
    monkeypatch.setattr(parallel, "FORK_NS", 1)


def no_child_is_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_a_sweep_with_no_work_takes_one_worker(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert parallel.workers_for(0, 7_000, 3) == 1
    assert parallel.workers_for(10**9, 7_000, 0) == 1


@pytest.mark.parametrize("workers", [2, 3])
def test_a_sweep_takes_a_worker_per_fork_of_work(monkeypatch, workers):
    # w workers from w forks' worth of work: a second once half the sweep
    # costs a fork, a third once a third of it does
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert parallel.FORK_NS % 1000 == 0
    unit_ns = parallel.FORK_NS // 1000  # a fork's worth is 1,000 units
    assert parallel.workers_for(workers * 1000 - 1, unit_ns, 4) == workers - 1
    assert parallel.workers_for(workers * 1000, unit_ns, 4) == workers


def test_a_sweep_takes_at_most_the_usable_cpus_and_the_workers_asked(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    plenty = 100 * parallel.FORK_NS  # a hundred forks' worth of work in one unit
    assert parallel.workers_for(1, plenty, 64) == 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert parallel.workers_for(1, plenty, 3) == 3
    assert parallel.workers_for(1, plenty, 1) == 1


def test_pool_is_capped_by_the_usable_cpus(monkeypatch, forks):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert ordered_map(abs, range(-15, 0), 64) == list(range(15, 0, -1))
    assert len(forks) == 1  # the caller maps the first share itself


def test_pool_falls_back_to_the_cpu_count(monkeypatch, forks):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert ordered_map(abs, range(-15, 0), 64) == list(range(15, 0, -1))
    assert len(forks) == 2
    assert ordered_map(abs, [-1, -2], 64) == [1, 2]
    assert len(forks) == 3  # two items: one child


def test_one_usable_cpu_maps_in_process(monkeypatch, forks):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert ordered_map(abs, range(-15, 0), 64) == list(range(15, 0, -1))
    assert forks == []


def test_no_fork_maps_in_process(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.delattr(os, "fork")
    assert ordered_map(abs, range(-15, 0), 2) == list(range(15, 0, -1))


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("count", [1, 2, 7, 10, 11])
def test_results_come_back_in_input_order(monkeypatch, forks, workers, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
    items = [(i, "x" * i) for i in range(count)]
    assert ordered_map(repr, items, workers) == [repr(item) for item in items]
    assert len(forks) == min(workers, count) - 1
    assert no_child_is_left()


def fails_on(bad):
    def fn(item):
        if item == bad:
            raise KeyError(f"item {item} is bad")
        return item * item

    return fn


@pytest.mark.parametrize("bad", [0, 4, 5, 8])
def test_an_error_in_any_share_reaches_the_caller(monkeypatch, forks, bad):
    # with three workers, 0 is in the caller's own share, 4 and 5 in each
    # child's, and 8 in the second child's after the first child's results
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    with pytest.raises(KeyError) as raised:
        ordered_map(fails_on(bad), range(9), 3)
    assert str(raised.value) == repr(f"item {bad} is bad")
    assert len(forks) == 2
    assert no_child_is_left()


def test_a_child_that_dies_without_results_is_an_error(monkeypatch, forks):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with pytest.raises(ChildProcessError, match="exited with status"):
        ordered_map(lambda i: os._exit(3) if i else i, range(2), 2)
    assert no_child_is_left()

def test_a_normal_return_leaves_no_child(monkeypatch, forks):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert ordered_map(fails_on(None), range(9), 2) == [i * i for i in range(9)]
    assert len(forks) == 1
    assert no_child_is_left()


def test_a_large_share_comes_back_whole(monkeypatch):
    # a child's results exceed a pipe's buffer while the caller maps its own
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    got = ordered_map(lambda i: bytes([i % 256]) * 100_000, range(8), 2)
    assert got == [bytes([i]) * 100_000 for i in range(8)]
    assert no_child_is_left()
