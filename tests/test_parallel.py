"""The job runner: job order, lane counts, failures, warnings, and that no
lane outlives a call."""

import multiprocessing
import os
import threading
import time
import warnings
from contextlib import contextmanager, nullcontext

import pytest

from soco import DataError, WorkerError, parallel

needs_two_cpus = pytest.mark.skipif(
    parallel._usable_cpus() < 2, reason="forked lanes need two usable CPUs"
)

pytestmark = pytest.mark.usefixtures("no_leftovers")


def square_slowly(job):
    time.sleep(0.01 * (3 - job % 4))  # later jobs often finish first
    return job * job, os.getpid()


@needs_two_cpus
def test_results_come_back_in_job_order_from_forked_lanes():
    out = parallel.run_jobs(lambda: nullcontext(square_slowly), list(range(12)), 8)
    assert [square for square, _ in out] == [job * job for job in range(12)]
    pids = {pid for _, pid in out}
    assert os.getpid() not in pids
    assert 1 <= len(pids) <= parallel._usable_cpus()


def lane_log(path):
    """A lane that appends 'enter PID' and 'exit PID' lines to ``path``."""

    @contextmanager
    def open_lane():
        with open(path, "a") as log:
            log.write(f"enter {os.getpid()}\n")
        yield lambda job: job
        with open(path, "a") as log:
            log.write(f"exit {os.getpid()}\n")

    return open_lane


@pytest.mark.parametrize(
    "cpus, max_lanes, n_jobs, lanes",
    [(64, 8, 3, 3), (2, 8, 12, 2), (64, 1, 12, 0), (1, 8, 12, 0), (64, 8, 1, 0)],
)
def test_lanes_never_outnumber_cpus_jobs_or_the_request(
    tmp_path, monkeypatch, cpus, max_lanes, n_jobs, lanes
):
    # lanes == 0: the jobs run inline, in the caller, in one open_lane context
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: cpus)
    log = tmp_path / "lanes.log"
    assert parallel.run_jobs(lane_log(log), list(range(n_jobs)), max_lanes) == list(
        range(n_jobs)
    )
    events = [line.split() for line in log.read_text().splitlines()]
    entered = [int(pid) for what, pid in events if what == "enter"]
    assert sorted(entered) == sorted(int(pid) for what, pid in events if what == "exit")
    if lanes:
        assert len(set(entered)) == len(entered) == lanes
        assert os.getpid() not in entered
    else:
        assert entered == [os.getpid()]


def fail_on_five_and_six(log):
    """Job 5 fails slowly and job 6 at once, so on two lanes 6 fails first."""

    def work(job):
        with open(log, "a") as handle:
            handle.write(f"{job}\n")
        if job in (5, 6):
            time.sleep(0.2 if job == 5 else 0.0)
            raise DataError(f"job {job} is bad")
        time.sleep(0.01)
        return job

    return work


@pytest.mark.parametrize("cpus", [1, 2])
def test_first_failure_in_job_order_is_raised_and_stops_the_rest(
    tmp_path, monkeypatch, cpus
):
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: cpus)
    log = tmp_path / "started.log"
    with pytest.raises(DataError, match="job 5 is bad"):
        parallel.run_jobs(lambda: nullcontext(fail_on_five_and_six(log)), list(range(40)), 2)
    started = sorted(int(job) for job in log.read_text().split())
    assert started[:6] == list(range(6))
    assert max(started) < 8  # no job was handed out once a job had failed


def warn(job):
    warnings.warn(f"job {job} warns", UserWarning)
    if job % 2:
        warnings.warn(f"job {job} warns twice", UserWarning)
    return job


@pytest.mark.parametrize("cpus", [1, 2])
def test_warnings_reach_the_caller_in_job_order(monkeypatch, cpus):
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: cpus)
    with pytest.warns(UserWarning) as record:
        parallel.run_jobs(lambda: nullcontext(warn), list(range(6)), 2)
    expected = []
    for job in range(6):
        expected.append(f"job {job} warns")
        if job % 2:
            expected.append(f"job {job} warns twice")
    assert [str(w.message) for w in record] == expected
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UserWarning, match="job 0 warns"):
            parallel.run_jobs(lambda: nullcontext(warn), list(range(6)), 2)


def die_on_three(job):
    if job == 3:
        os._exit(7)
    time.sleep(0.01)
    return job


@needs_two_cpus
def test_a_lane_that_dies_raises_worker_error():
    with pytest.raises(WorkerError, match=r"died \(exit code 7\) in job 3"):
        parallel.run_jobs(lambda: nullcontext(die_on_three), list(range(20)), 2)


@contextmanager
def fail_to_open():
    raise DataError("this lane cannot open")
    yield


@contextmanager
def exit_on_open():
    os._exit(9)
    yield


@pytest.mark.parametrize("open_lane, code", [(exit_on_open, 9)])
def test_a_lane_that_dies_before_its_first_job_raises_worker_error(
    monkeypatch, open_lane, code
):
    # a lane may die after its first job index reached its pipe: the caller
    # then reads a reset connection, not end-of-file
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
    for _ in range(5):
        with pytest.raises(WorkerError, match=rf"died \(exit code {code}\) in job 0"):
            parallel.run_jobs(open_lane, list(range(4)), 2)


def test_a_lane_that_cannot_open_raises_its_error_as_job_0(monkeypatch, capfd):
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
    for _ in range(5):
        with pytest.raises(DataError, match="^this lane cannot open$") as caught:
            parallel.run_jobs(fail_to_open, list(range(4)), 2)
        assert caught.type is DataError
    assert "Traceback" not in capfd.readouterr().err


def pid_of(job):
    return os.getpid()


def nested_jobs(job):
    return parallel.run_jobs(lambda: nullcontext(pid_of), [0, 1, 2], 8), os.getpid()


def test_a_lane_runs_nested_jobs_inline(monkeypatch):
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
    for inner, pid in parallel.run_jobs(lambda: nullcontext(nested_jobs), [0, 1], 2):
        assert pid != os.getpid()
        assert inner == [pid] * 3


def test_jobs_run_inline_while_another_thread_is_alive(monkeypatch):
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert parallel.usable_lanes() == 1
        assert parallel.run_jobs(lambda: nullcontext(pid_of), [0, 1, 2], 2) == [os.getpid()] * 3
    finally:
        stop.set()
        thread.join()
    assert parallel.usable_lanes() == 2
    assert os.getpid() not in parallel.run_jobs(lambda: nullcontext(pid_of), [0, 1, 2], 2)


def test_jobs_run_inline_without_fork(monkeypatch):
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert parallel.usable_lanes() == 1
    assert parallel.run_jobs(lambda: nullcontext(pid_of), [0, 1, 2], 2) == [os.getpid()] * 3


def share_of(share):
    warnings.warn(f"share {share} warns", UserWarning)
    return share, os.getpid()


@pytest.mark.parametrize("shares", [1, 2, 3])
def test_the_caller_runs_the_first_share_and_a_lane_of_its_own_each_other(shares):
    with pytest.warns(UserWarning) as record:
        out = parallel.run_shares(share_of, list(range(shares)))
    assert [share for share, _ in out] == list(range(shares))
    pids = [pid for _, pid in out]
    assert pids[0] == os.getpid() and len(set(pids)) == shares
    assert [str(w.message) for w in record] == [f"share {i} warns" for i in range(shares)]


def fail_in_caller(log):
    def work(share):
        if share == 0:
            raise DataError("the caller's share is bad")
        time.sleep(0.2)
        with open(log, "a") as handle:
            handle.write(f"{share}\n")
        raise DataError(f"share {share} is bad")

    return work


def test_the_first_failing_share_is_raised_once_every_lane_is_joined(tmp_path):
    log = tmp_path / "finished.log"
    with pytest.raises(DataError, match="^the caller's share is bad$"):
        parallel.run_shares(fail_in_caller(log), [0, 1, 2])
    assert multiprocessing.active_children() == []
    assert sorted(log.read_text().split()) == ["1", "2"]


def test_a_share_lane_that_dies_raises_worker_error():
    with pytest.raises(WorkerError, match=r"died \(exit code 7\) in job 2"):
        parallel.run_shares(die_on_three, [0, 1, 3])
