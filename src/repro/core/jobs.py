"""Fault-tolerant job runtime for campaigns.

Every unit of campaign work — one Phase-1 exploration or one crosscheck
pair — becomes a :class:`CampaignJob` and runs under a
:class:`JobSupervisor` instead of directly on an executor.  One loop waits
on every in-flight attempt as a :class:`concurrent.futures.Future`: a job
that carries a ``process_task`` runs in a lazily built process pool, every
other job on a daemon thread.  The campaign decides which jobs get a
``process_task``; the supervisor only follows it.  One bad cell cannot
take the campaign down:

* **Timeouts** — an attempt still running ``cell_timeout`` seconds after
  it started is abandoned (a thread attempt is left behind as a daemon
  thread; a pool attempt gets the pool torn down, and the other in-flight
  pool jobs re-run without spending a retry).  The loop sleeps until the
  nearest deadline, so there is no polling tick.
* **Retries** — a failed or timed-out attempt goes straight back on the
  queue, up to ``retries + 1`` attempts; the cell then lands in its
  terminal state (``failed``, ``timed_out`` or ``crashed``).
* **Crash isolation** — a worker-process death breaks the pool; the
  in-flight pool jobs re-run without spending a retry (the victim is
  usually innocent) on a rebuilt pool.  After :data:`MAX_POOL_REBUILDS`
  rebuilds the remaining pool jobs run on threads, and the degradation is
  *recorded* instead of hidden.
* **Structured failures** — every non-``ok`` terminal state becomes a
  :class:`JobFailure` with the attempt count and full traceback, which
  campaigns aggregate onto their report (completed-with-failures is a
  different exit code than crashed).

Side effects stay on the supervisor's caller thread: job callables
*return* values, and the caller's ``on_result`` hook commits them (cache
seeding, checkpoint appends).  An abandoned attempt that eventually
finishes in its zombie thread therefore cannot corrupt campaign state —
its return value is simply dropped.
"""

from __future__ import annotations

import threading
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, wait
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import CellTimeoutError, WorkerCrashError

__all__ = [
    "MAX_POOL_REBUILDS",
    "TERMINAL_STATES",
    "CampaignJob",
    "JobFailure",
    "JobResult",
    "JobSupervisor",
]

#: Terminal job states.  ``ok`` carries a value; the rest carry a
#: :class:`JobFailure`.  ``skipped`` is assigned by the *campaign* (a cell
#: whose dependency failed, or one restored from a checkpoint) — the
#: supervisor itself only produces the first four.
TERMINAL_STATES = ("ok", "failed", "timed_out", "crashed", "skipped")

#: Process-pool breaks survived by rebuilding; the next one moves the
#: remaining pool jobs onto threads.
MAX_POOL_REBUILDS = 2


@dataclass
class CampaignJob:
    """One campaign cell: a deadline-and-retry-bounded unit of work."""

    #: Cell kind: ``"phase1"`` / ``"pair"``.
    kind: str
    #: Stable cell identity (kind, then the cell coordinates), used for
    #: checkpoint keys and failure records.
    key: Tuple[str, ...]
    #: Runs the cell in a worker thread; returns the cell's value.
    thread_fn: Callable[[], object] = lambda: None
    #: Picklable ``(fn, args)``: when set, the cell runs in a process pool.
    process_task: Optional[Tuple[Callable, tuple]] = None
    #: Attempts started so far (owned by the supervisor).
    attempts: int = 0

    @property
    def cell(self) -> str:
        return "/".join(self.key)


@dataclass
class JobFailure:
    """Structured record of one cell's non-``ok`` terminal state."""

    kind: str
    cell: str
    state: str
    attempts: int
    error_type: str = ""
    message: str = ""
    traceback: str = ""
    wall_time: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "cell": self.cell,
            "state": self.state,
            "attempts": self.attempts,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
            "wall_time": self.wall_time,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "JobFailure":
        return cls(
            kind=str(data.get("kind", "")),
            cell=str(data.get("cell", "")),
            state=str(data.get("state", "failed")),
            attempts=int(data.get("attempts", 0)),
            error_type=str(data.get("error_type", "")),
            message=str(data.get("message", "")),
            traceback=str(data.get("traceback", "")),
            wall_time=float(data.get("wall_time", 0.0)),
        )

    def describe(self) -> str:
        return "%-6s %-40s %s after %d attempt(s): %s" % (
            self.kind, self.cell, self.state, self.attempts,
            self.message or self.error_type or "(no detail)")


@dataclass
class JobResult:
    """Terminal outcome of one job: a value (``ok``) or a failure."""

    job: CampaignJob
    state: str
    value: object = None
    failure: Optional[JobFailure] = None
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return self.state == "ok"


def _process_attempt_main(fault_plan, fn, args):
    """Module-level process-pool entry: install the fault plan, run the cell.

    Unpickling the plan already installs it in the worker (see
    ``FaultPlan.__reduce__``); receiving it as an argument is what ships
    it there.
    """

    return fn(*args)


def _start_thread(job: CampaignJob) -> Future:
    """Run ``job.thread_fn`` on a daemon thread that completes a future."""

    future: Future = Future()
    fn = job.thread_fn

    def body() -> None:
        try:
            future.set_result(fn())
        # soft-lint: disable=broad-except -- the whole point: any cell crash becomes a structured failure, not a campaign abort
        except Exception as exc:
            future.set_exception(exc)

    threading.Thread(target=body, daemon=True, name="soft-job-%s" % job.cell).start()
    return future


def _kill_pool(pool) -> None:
    """Tear a pool down hard, terminating workers that may be hung."""

    try:
        for process in list((getattr(pool, "_processes", None) or {}).values()):
            process.terminate()
    # soft-lint: disable=broad-except -- best-effort teardown of an already-broken pool
    except Exception:
        pass
    pool.shutdown(wait=False)


class JobSupervisor:
    """Runs :class:`CampaignJob` lists with timeouts, retries and isolation."""

    def __init__(self,
                 workers: int = 1,
                 cell_timeout: Optional[float] = None,
                 retries: int = 1,
                 fault_plan=None) -> None:
        self.workers = max(1, int(workers))
        self.cell_timeout = cell_timeout
        #: Extra attempts per job after the first (0 = fail fast).
        self.retries = max(0, int(retries))
        self.fault_plan = fault_plan
        #: Executor degradations recorded during runs (never silent).
        self.degradation_events: List[Dict[str, object]] = []
        #: Thread attempts abandoned at their deadline (zombies left behind).
        self.abandoned_attempts = 0

    def record_degradation(self, reason: str, **detail: object) -> None:
        event: Dict[str, object] = {"reason": reason}
        event.update(detail)
        self.degradation_events.append(event)

    def run(self, jobs: Sequence[CampaignJob],
            on_result: Optional[Callable[[JobResult], None]] = None,
            ) -> List[JobResult]:
        """Run every job to a terminal state; results in input order.

        *on_result* fires on this thread as each job terminalizes — the
        campaign uses it to seed caches and append checkpoint records
        incrementally, so a killed campaign can resume mid-stage.
        """

        jobs = list(jobs)
        max_attempts = self.retries + 1
        results: Dict[int, JobResult] = {}
        first_started: Dict[int, float] = {}
        pending = deque(jobs)
        #: future -> (job, attempt deadline or None, runs in the pool)
        inflight: Dict[Future, Tuple[CampaignJob, Optional[float], bool]] = {}
        pool = None
        pool_breaks = 0

        def commit(result: JobResult) -> None:
            results[id(result.job)] = result
            if on_result is not None:
                on_result(result)

        def elapsed(job: CampaignJob) -> float:
            return max(0.0, time.monotonic() - first_started[id(job)])

        def retry_or_fail(job: CampaignJob, error: BaseException, tb: str) -> None:
            if job.attempts < max_attempts:
                pending.append(job)
                return
            state = ("timed_out" if isinstance(error, CellTimeoutError)
                     else "crashed" if isinstance(error, WorkerCrashError)
                     else "failed")
            failure = JobFailure(kind=job.kind, cell=job.cell, state=state,
                                 attempts=job.attempts,
                                 error_type=type(error).__name__,
                                 message=str(error), traceback=tb,
                                 wall_time=elapsed(job))
            commit(JobResult(job=job, state=state, failure=failure,
                             wall_time=failure.wall_time))

        def drop_pool() -> None:
            """Kill the pool; its in-flight jobs re-run without a retry."""

            nonlocal pool
            for future, (job, _, on_pool) in list(inflight.items()):
                if on_pool:
                    del inflight[future]
                    job.attempts -= 1
                    pending.append(job)
            _kill_pool(pool)
            pool = None

        try:
            while pending or inflight:
                while pending and len(inflight) < self.workers:
                    job = pending.popleft()
                    job.attempts += 1
                    now = time.monotonic()
                    first_started.setdefault(id(job), now)
                    on_pool = (job.process_task is not None
                               and pool_breaks <= MAX_POOL_REBUILDS)
                    if on_pool:
                        if pool is None:
                            # Imported here: thread-only runs never load
                            # multiprocessing (~14 ms of import time).
                            from concurrent.futures import ProcessPoolExecutor

                            pool = ProcessPoolExecutor(max_workers=self.workers)
                        fn, args = job.process_task  # type: ignore[misc]
                        try:
                            future = pool.submit(_process_attempt_main,
                                                 self.fault_plan, fn, args)
                        except BrokenExecutor as exc:
                            future = Future()
                            future.set_exception(exc)
                    else:
                        future = _start_thread(job)
                    deadline = (None if self.cell_timeout is None
                                else now + self.cell_timeout)
                    inflight[future] = (job, deadline, on_pool)

                deadlines = [d for _, d, _ in inflight.values() if d is not None]
                timeout = (max(0.0, min(deadlines) - time.monotonic())
                           if deadlines else None)
                done, _ = wait(list(inflight), timeout=timeout,
                               return_when=FIRST_COMPLETED)

                pool_broke = False
                for future in done:
                    job, _, on_pool = inflight.pop(future)
                    error = future.exception()
                    if error is None:
                        commit(JobResult(job=job, state="ok", value=future.result(),
                                         wall_time=elapsed(job)))
                    elif on_pool and isinstance(error, BrokenExecutor):
                        job.attempts -= 1
                        pending.append(job)
                        pool_broke = True
                    else:
                        retry_or_fail(job, error, "".join(traceback.format_exception(
                            type(error), error, error.__traceback__)))

                if pool_broke:
                    drop_pool()
                    pool_breaks += 1
                    if pool_breaks > MAX_POOL_REBUILDS:
                        self.record_degradation(
                            "process pool broke %d time(s); degrading the "
                            "remaining Phase-1 cells to the thread executor"
                            % pool_breaks,
                            kind="process-pool-broken", pool_rebuilds=pool_breaks)

                now = time.monotonic()
                expired = [(future, job, on_pool)
                           for future, (job, deadline, on_pool) in inflight.items()
                           if deadline is not None and now >= deadline
                           and not future.done()]
                for future, _, _ in expired:
                    del inflight[future]
                if any(on_pool for _, _, on_pool in expired):
                    drop_pool()  # a hung worker cannot be reclaimed on its own
                for _, job, on_pool in expired:
                    if not on_pool:
                        self.abandoned_attempts += 1
                    error = CellTimeoutError(
                        "cell %s exceeded its %.2fs deadline (attempt %d/%d)"
                        % (job.cell, self.cell_timeout, job.attempts, max_attempts))
                    retry_or_fail(job, error, "")
        finally:
            if pool is not None:
                _kill_pool(pool)
        return [results[id(job)] for job in jobs]
