import errno
import os
import threading
import time

import pytest

from stealthreach.errors import DegenerateCloud
from stealthreach.workers import ordered_map


def square_and_pid(i):
    return i * i, os.getpid()


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("count", [0, 1, 2, 3, 11])
def test_results_in_item_order(usable_cpus, count):
    usable_cpus(3)
    results = list(ordered_map(square_and_pid, range(count)))
    assert [r for r, _ in results] == [i * i for i in range(count)]
    # item i is computed by worker i mod W, worker 0 being this process
    pids = [pid for _, pid in results]
    assert pids[::3] == [os.getpid()] * len(pids[::3])
    assert len(set(pids)) == min(3, count)
    assert all(pids[i] == pids[i % 3] for i in range(count))
    assert_no_child()


def failing_on(bad):
    def fn(i):
        if i == bad:
            raise DegenerateCloud(f"item {i} has no spread")
        time.sleep(0.01)
        return i
    return fn


@pytest.mark.parametrize("bad", [0, 3], ids=["caller", "child"])
def test_exception_reaches_caller(usable_cpus, bad):
    usable_cpus(2)
    got = []
    with pytest.raises(DegenerateCloud, match=f"^item {bad} has no spread$"):
        for value in ordered_map(failing_on(bad), range(8)):
            got.append(value)
    assert got == list(range(bad))
    assert_no_child()


def test_close_after_first_result_reaps_children(usable_cpus):
    usable_cpus(3)
    results = ordered_map(failing_on(None), range(30))
    assert next(results) == 0
    results.close()
    assert_no_child()


@pytest.mark.parametrize("platform", ["one_cpu", "no_fork", "other_thread"])
def test_serial_fallback_forks_nothing(monkeypatch, usable_cpus, platform):
    def forbidden_fork():
        raise AssertionError("os.fork called")

    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    if platform == "one_cpu":
        usable_cpus(1)
        monkeypatch.setattr(os, "fork", forbidden_fork)
    elif platform == "no_fork":
        usable_cpus(4)
        monkeypatch.delattr(os, "fork")
    else:
        usable_cpus(4)
        monkeypatch.setattr(os, "fork", forbidden_fork)
        thread.start()
    try:
        results = list(ordered_map(square_and_pid, range(5)))
    finally:
        release.set()
        if thread.is_alive():
            thread.join()
    assert results == [(i * i, os.getpid()) for i in range(5)]


def test_failed_fork_leaves_its_items_to_caller(monkeypatch, usable_cpus):
    real_fork = os.fork
    forks = []

    def fork_once():
        forks.append(None)
        if len(forks) > 1:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    usable_cpus(3)
    monkeypatch.setattr(os, "fork", fork_once)
    results = list(ordered_map(square_and_pid, range(7)))
    assert len(forks) == 2
    assert [r for r, _ in results] == [i * i for i in range(7)]
    # worker 1 is a child; the items of worker 2, whose fork failed, stay here
    pids = [pid for _, pid in results]
    assert [i for i, pid in enumerate(pids) if pid != os.getpid()] == [1, 4]
    assert_no_child()
