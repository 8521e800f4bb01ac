"""Independent jobs on forked worker processes.

``run_jobs(open_lane, jobs, max_lanes)`` applies one function to every job
and returns the results in job order.  It forks up to ``max_lanes`` worker
processes ("lanes"), never more than the usable CPUs or the jobs.  What the
job function closes over (a dataset, the map stacks, a model) reaches the
lanes by fork inheritance and is never pickled: only job indices go out,
and only results come back.  Each lane enters ``open_lane()`` once, applies
the function it yields to one job at a time, handed out in job order as
lanes fall idle, and leaves the context before it exits; that is where a
lane closes a model server of its own.  While the lanes run, the caller
only waits: ``run_experiment`` and ``run_validation`` hold every result in
the caller, so a job run there as well would add its own peak memory to
the caller's.

``run_shares(work, shares)`` is for a caller that holds the results anyway
and writes them to memory the lanes share (the noisy-linear fill's window):
the caller runs the first share itself while one forked lane runs each
other share, so it forks one process fewer than there are shares, and none
for one share.  Both are built on one fork, hand-out and join routine,
``_forked``, which lets the caller work between forking the lanes and
collecting them.

With one lane or one job ``run_jobs`` runs the jobs inline, in order.
``usable_lanes`` allows only one inside a lane, so that lanes never fork
lanes and a run never has more lanes than CPUs; while another Python thread
is alive, since forking a process that runs threads is unsafe; and without
the ``fork`` start method.  Either way a job's warnings are recorded where
it runs and re-issued in the caller, in job order, and the first failed job
in job order raises its exception in the caller; from a lane it arrives as
a copy, with its type and message.  An exception raised by ``open_lane()``
in a lane is the outcome of the lane's first job.  A lane that dies without
reporting its job raises ``WorkerError``.  No lane outlives ``run_jobs`` or
``run_shares``: both join every lane before they re-issue a warning or
raise.  So a lane forked while a model server is open, which inherits the
server's pipe ends and never uses them, holds them only for the call: a
server closed after it sees the end of its input.

The lanes are forked, not spawned, so that a lane starts without
re-importing soco or receiving a copy of the state.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import warnings
from contextlib import ExitStack, contextmanager, nullcontext
from multiprocessing.connection import wait
from typing import Callable, ContextManager, Iterator, Sequence

from .core import WorkerError


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_in_lane = False  # set in every lane, so that a lane runs its own jobs inline


def usable_lanes() -> int:
    """The most lanes ``run_jobs`` may fork from here: the usable CPUs, or 1
    inside a lane, while another thread is alive, or without ``fork``."""
    if (
        _in_lane
        or threading.active_count() > 1
        or "fork" not in multiprocessing.get_all_start_methods()
    ):
        return 1
    return _usable_cpus()


def _attempt(work: Callable, job) -> tuple:
    """One job's (result, error, warnings); the error is None on success.

    The caller's warning filters stay in force while the job runs.
    """
    with warnings.catch_warnings(record=True) as caught:
        try:
            result, error = work(job), None
        except Exception as exc:  # raised again in the caller by _settle
            result, error = None, exc
    return result, error, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _settle(outcome: tuple, registry: dict):
    """Re-issue a job's warnings in the caller, then return its result or raise."""
    result, error, caught = outcome
    for message, category, filename, lineno in caught:
        warnings.warn_explicit(message, category, filename, lineno, registry=registry)
    if error is not None:
        raise error
    return result


def _lane(open_lane, jobs, conn, inherited) -> None:
    """A worker process: run each job index received until the caller hangs up."""
    global _in_lane
    _in_lane = True
    for end in inherited:  # the caller's pipe ends: a lane holding one would never read EOF
        end.close()
    with ExitStack() as stack:
        try:
            work = stack.enter_context(open_lane())
        except Exception as exc:  # reported as the outcome of the lane's first job

            def work(job, exc=exc):
                raise exc

        while True:
            try:
                index = conn.recv()
            except EOFError:
                return
            outcome = _attempt(work, jobs[index])
            try:
                conn.send(outcome)
            except BrokenPipeError:  # the caller stopped waiting
                return


@contextmanager
def _forked(
    open_lane, jobs: Sequence, lanes: int, first: int = 0
) -> Iterator[Callable[[], list]]:
    """Fork ``lanes`` lanes that run ``jobs[first:]``, and yield ``collect``.

    The caller may do work of its own, such as the jobs before ``first``,
    before it calls ``collect()``, which waits until no job runs and returns
    the (result, error, warnings) of each job from ``first`` on, in job
    order; a job that never started, because an earlier one failed, has
    None.  Every lane is joined when the context ends.
    """
    ctx = multiprocessing.get_context("fork")
    outcomes: list = [None] * len(jobs)
    todo = iter(range(first, len(jobs)))
    procs: dict = {}  # the caller's pipe end -> its lane
    running: dict = {}  # the caller's pipe end -> the job index its lane runs
    failed = False

    def hand_out(conn) -> None:
        index = None if failed else next(todo, None)
        if index is None:
            conn.close()  # the lane reads end-of-file and exits
            return
        try:
            conn.send(index)
        except OSError:  # the lane died before it took a job
            lost(conn, index)
        else:
            running[conn] = index

    def lost(conn, index: int) -> None:
        nonlocal failed
        proc = procs[conn]
        proc.join()
        conn.close()
        outcomes[index] = (
            None,
            WorkerError(f"a worker process died (exit code {proc.exitcode}) in job {index}"),
            [],
        )
        failed = True

    def collect() -> list:
        nonlocal failed
        while running:
            for conn in wait(list(running)):
                index = running.pop(conn)
                try:
                    outcomes[index] = conn.recv()
                except (EOFError, ConnectionResetError):  # the lane died
                    lost(conn, index)
                    continue
                failed = failed or outcomes[index][1] is not None
                hand_out(conn)
        return outcomes[first:]

    try:
        for _ in range(lanes):
            ours, theirs = ctx.Pipe()
            proc = ctx.Process(target=_lane, args=(open_lane, jobs, theirs, (*procs, ours)))
            proc.start()
            theirs.close()
            procs[ours] = proc
        for conn in procs:
            hand_out(conn)
        yield collect
    finally:
        for conn, proc in procs.items():
            conn.close()
            proc.join()


def run_jobs(
    open_lane: Callable[[], ContextManager[Callable]],
    jobs: Sequence,
    max_lanes: int,
) -> list:
    """``work(job)`` for every job, in job order, on up to ``max_lanes`` lanes.

    ``open_lane()`` returns a context manager that yields ``work``.  When a
    job fails, no further job starts; the jobs already running finish, and
    the first failure in job order is raised.  The caller only waits.
    """
    lanes = min(max_lanes, usable_lanes(), len(jobs))
    registry: dict = {}
    if lanes <= 1:
        with open_lane() as work:
            return [_settle(_attempt(work, job), registry) for job in jobs]
    with _forked(open_lane, jobs, lanes) as collect:
        outcomes = collect()
    # a failure stops the hand-out, so every job before the first failed
    # one in job order has an outcome
    return [_settle(outcome, registry) for outcome in outcomes]


def run_shares(work: Callable, shares: Sequence) -> list:
    """``work(share)`` for every share, in share order, the first one in the
    caller and each other one on a forked lane of its own.

    Pass at most ``usable_lanes()`` shares; with one share nothing is forked.
    The caller's share runs while the lanes run theirs, and the lanes are
    joined before any share's warnings are re-issued or its failure raised.
    """
    registry: dict = {}
    with _forked(lambda: nullcontext(work), shares, len(shares) - 1, first=1) as collect:
        outcomes = [_attempt(work, shares[0]), *collect()]
    return [_settle(outcome, registry) for outcome in outcomes]
