import ast
import multiprocessing
import os
from multiprocessing.context import ForkProcess
from pathlib import Path

import pytest

import metadapt
from metadapt.errors import StateError
from metadapt.forkpool import ForkPool

from conftest import on_cpus


def _record_starts(monkeypatch, fail_at=None) -> list:
    """Record each started process; the start numbered `fail_at` raises."""
    started = []
    real = ForkProcess.start

    def start(self):
        if len(started) == fail_at:
            raise OSError("cannot start a process")
        started.append(self)
        real(self)

    monkeypatch.setattr(ForkProcess, "start", start)
    return started


def _with_pid(common, item):
    return common + item, os.getpid()


def test_results_come_back_in_item_order(monkeypatch):
    """Item i runs on process i mod 3 (the caller is process 0), and the
    results come back in item order."""
    on_cpus(monkeypatch, 3)
    with ForkPool(_with_pid, 7, "test") as pool:
        results = pool.map((10,), range(7))
    assert [value for value, _ in results] == list(range(10, 17))
    pids = [pid for _, pid in results]
    assert pids[0] == pids[3] == pids[6] == os.getpid()
    assert pids[1] == pids[4] and pids[2] == pids[5]
    assert len({pids[0], pids[1], pids[2]}) == 3


@pytest.mark.parametrize("cpus", [1, 3])
def test_the_first_failure_in_item_order_is_raised(monkeypatch, cpus):
    """Items 2 to 5 fail; item 2 runs on a worker and item 3 on the caller,
    and item 2's error is the one raised, as in a serial loop."""
    on_cpus(monkeypatch, cpus)

    def fn(item):
        if item >= 2:
            raise ValueError(f"item {item} failed")
        return item

    with ForkPool(fn, 6, "test") as pool:
        with pytest.raises(ValueError, match="^item 2 failed$"):
            pool.map((), range(6))
        assert pool.map((), range(2)) == [0, 1]  # the pool still serves


def test_a_worker_that_dies_is_a_state_error(monkeypatch):
    on_cpus(monkeypatch, 2)
    caller = os.getpid()

    def fn(item):
        if os.getpid() != caller:
            os._exit(3)
        return item

    with ForkPool(fn, 2, "test: item") as pool:
        with pytest.raises(StateError, match=r"^test: item worker \d+ exited before it replied$"):
            pool.map((), range(2))
    assert multiprocessing.active_children() == []


def test_one_cpu_starts_no_process(monkeypatch):
    on_cpus(monkeypatch, 1)
    started = _record_starts(monkeypatch, fail_at=0)
    with ForkPool(_with_pid, 4, "test") as pool:
        assert pool.map((0,), range(4)) == [(i, os.getpid()) for i in range(4)]
    assert started == []


@pytest.mark.parametrize("most, cpus, workers",
                         [(1, 3, 0), (2, 3, 1), (3, 3, 2), (8, 3, 2), (8, 1, 0), (0, 3, 0)])
def test_the_pool_starts_min_most_cpus_minus_one_workers(monkeypatch, most, cpus, workers):
    on_cpus(monkeypatch, cpus)
    started = _record_starts(monkeypatch)
    with ForkPool(_with_pid, most, "test"):
        assert len(multiprocessing.active_children()) == workers
    assert len(started) == workers
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("fail_at", [0, 1])
def test_a_failed_start_raises_its_own_error_and_leaves_nothing_open(monkeypatch, fail_at):
    """When starting the first or the second of two workers raises an
    OSError, the caller gets a StateError caused by it, every worker already
    started has ended, and every pipe end the pool opened is closed, even
    while the caller holds the error (its traceback keeps the pool's locals
    alive)."""
    on_cpus(monkeypatch, 3)
    started = _record_starts(monkeypatch, fail_at=fail_at)
    fds = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(StateError, match=r"^test: could not start a worker process "
                                         r"\(cannot start a process\)$") as caught:
        ForkPool(_with_pid, 3, "test")
    assert isinstance(caught.value.__cause__, OSError)
    assert len(started) == fail_at
    assert multiprocessing.active_children() == []
    assert sorted(os.listdir("/proc/self/fd")) == fds
    del caught


def test_only_forkpool_reads_the_cpu_count():
    """The CPU count has one owner: every other module sizes its ForkPool by
    its number of items and never asks how many CPUs there are."""
    names = {"available_cpus", "sched_getaffinity", "cpu_count", "process_cpu_count"}
    offenders = []
    for path in sorted(Path(metadapt.__file__).parent.rglob("*.py")):
        if path.name == "forkpool.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name in names:
                offenders.append(f"{path.name}:{node.lineno}: {name}")
    assert offenders == []
