"""Fault-tolerant job runtime for campaigns.

Every unit of campaign work — one Phase-1 exploration or one crosscheck
pair — becomes a :class:`CampaignJob` with a wall-clock
deadline and a retry budget, and runs under a :class:`JobSupervisor`
instead of directly on an executor.  The supervisor guarantees that one
bad cell cannot take the campaign down:

* **Timeouts** — a cell that exceeds ``cell_timeout`` is abandoned at its
  deadline (thread attempts run as daemon threads precisely so they can
  be walked away from; process attempts get their pool torn down) and
  lands as terminal state ``timed_out`` once its retries are spent.
* **Retries** — failed/timed-out attempts are re-queued with exponential
  backoff and jitter (:class:`RetryPolicy`; clock, sleep and RNG are all
  injectable, so tests pin the schedule down deterministically).
* **Crash isolation** — a worker-process death surfaces as
  ``BrokenProcessPool`` on every in-flight future; the supervisor
  rebuilds the pool, re-queues the in-flight jobs (pool breaks don't
  consume a job's retry budget — the victim is usually innocent), and
  after ``max_pool_rebuilds`` rebuilds degrades the remaining work to
  the thread executor, *recording* the degradation instead of hiding it.
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

import random
import threading
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait as futures_wait
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import CampaignError, CellTimeoutError, WorkerCrashError

__all__ = [
    "TERMINAL_STATES",
    "CampaignJob",
    "JobFailure",
    "JobResult",
    "JobSupervisor",
    "RetryPolicy",
]

#: Terminal job states.  ``ok`` carries a value; the rest carry a
#: :class:`JobFailure`.  ``skipped`` is assigned by the *campaign* (a cell
#: whose dependency failed, or one restored from a checkpoint) — the
#: supervisor itself only produces the first four.
TERMINAL_STATES = ("ok", "failed", "timed_out", "crashed", "skipped")


@dataclass
class RetryPolicy:
    """Exponential backoff with jitter for re-queued attempts."""

    #: Extra attempts after the first (0 = fail fast).
    retries: int = 1
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    #: Uniform jitter fraction added on top of the deterministic delay.
    jitter: float = 0.5

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff before attempt ``attempt + 1`` (attempts are 1-based)."""

        base = min(self.backoff_max,
                   self.backoff_base * self.backoff_factor ** max(0, attempt - 1))
        return base * (1.0 + self.jitter * rng.random())

    @property
    def max_attempts(self) -> int:
        return max(1, self.retries + 1)


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
    #: Optional picklable alternative ``(fn, args)`` for process pools.
    process_task: Optional[Tuple[Callable, tuple]] = None
    #: Per-job deadline override (falls back to the supervisor's).
    timeout: Optional[float] = None
    # -- runtime accounting (owned by the supervisor) --
    attempts: int = 0
    pool_breaks: int = 0

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


class _Attempt:
    """One in-flight thread attempt; daemonized so timeouts can abandon it."""

    __slots__ = ("job", "number", "done", "value", "error", "tb",
                 "started", "abandoned", "wake")

    def __init__(self, job: CampaignJob, number: int, wake: threading.Event) -> None:
        self.job = job
        self.number = number
        self.done = threading.Event()
        self.value: object = None
        self.error: Optional[BaseException] = None
        self.tb: str = ""
        self.started: float = 0.0
        self.abandoned = False
        self.wake = wake

    def run(self) -> None:
        try:
            self.value = self.job.thread_fn()
        # soft-lint: disable=broad-except -- the whole point: any cell crash becomes a structured failure, not a campaign abort
        except Exception as exc:
            self.error = exc
            self.tb = traceback.format_exc()
        finally:
            self.done.set()
            self.wake.set()


def _process_attempt_main(fault_plan, fn, args):
    """Module-level process-pool entry: install the fault plan, run the cell.

    Unpickling the plan already installs it in the worker (see
    ``FaultPlan.__reduce__``); receiving it as an argument is what ships
    it there.
    """

    return fn(*args)


class JobSupervisor:
    """Runs :class:`CampaignJob` lists with timeouts, retries and isolation."""

    def __init__(self,
                 workers: int = 1,
                 executor: str = "thread",
                 cell_timeout: Optional[float] = None,
                 retry: Optional[RetryPolicy] = None,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep,
                 rng: Optional[random.Random] = None,
                 max_pool_rebuilds: int = 2,
                 fault_plan=None) -> None:
        if executor not in ("thread", "process"):
            raise CampaignError("executor must be 'thread' or 'process', got %r"
                                % (executor,))
        self.workers = max(1, int(workers))
        self.executor = executor
        self.cell_timeout = cell_timeout
        self.retry = retry or RetryPolicy()
        self.clock = clock
        self.sleep = sleep
        self.rng = rng or random.Random(0)
        self.max_pool_rebuilds = max(0, int(max_pool_rebuilds))
        self.fault_plan = fault_plan
        #: Executor degradations recorded during runs (never silent).
        self.degradation_events: List[Dict[str, object]] = []
        self.pool_rebuilds = 0
        #: Thread attempts abandoned at their deadline (zombies left behind).
        self.abandoned_attempts = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, jobs: Sequence[CampaignJob],
            on_result: Optional[Callable[[JobResult], None]] = None,
            ) -> List[JobResult]:
        """Run every job to a terminal state; results in input order.

        *on_result* fires on this thread as each job terminalizes — the
        campaign uses it to seed caches and append checkpoint records
        incrementally, so a killed campaign can resume mid-stage.
        """

        jobs = list(jobs)
        results: Dict[int, JobResult] = {}

        def commit(result: JobResult) -> None:
            results[id(result.job)] = result
            if on_result is not None:
                on_result(result)

        process_jobs = [job for job in jobs
                        if job.process_task is not None and self.executor == "process"
                        and self.workers > 1]
        thread_jobs = [job for job in jobs if id(job) not in
                       {id(j) for j in process_jobs}]
        if process_jobs:
            demoted = self._run_process_stage(process_jobs, commit)
            thread_jobs = demoted + thread_jobs
        if thread_jobs:
            self._run_thread_stage(thread_jobs, commit)
        return [results[id(job)] for job in jobs]

    @property
    def degraded(self) -> bool:
        return bool(self.degradation_events)

    def record_degradation(self, reason: str, **detail: object) -> None:
        event: Dict[str, object] = {"reason": reason}
        event.update(detail)
        self.degradation_events.append(event)

    # ------------------------------------------------------------------
    # Shared terminal-state plumbing
    # ------------------------------------------------------------------

    def _effective_timeout(self, job: CampaignJob) -> Optional[float]:
        return job.timeout if job.timeout is not None else self.cell_timeout

    def _terminal_state_for(self, error: BaseException) -> str:
        if isinstance(error, CellTimeoutError):
            return "timed_out"
        if isinstance(error, WorkerCrashError):
            return "crashed"
        return "failed"

    def _failure(self, job: CampaignJob, state: str, error: BaseException,
                 tb: str, started: float) -> JobResult:
        failure = JobFailure(
            kind=job.kind,
            cell=job.cell,
            state=state,
            attempts=job.attempts,
            error_type=type(error).__name__,
            message=str(error),
            traceback=tb,
            wall_time=max(0.0, self.clock() - started),
        )
        return JobResult(job=job, state=state, failure=failure,
                         wall_time=failure.wall_time)

    def _retry_or_terminalize(self, job: CampaignJob, error: BaseException,
                              tb: str, started: float,
                              waiting: List[Tuple[float, CampaignJob]],
                              commit: Callable[[JobResult], None]) -> None:
        if job.attempts < self.retry.max_attempts:
            eligible_at = self.clock() + self.retry.delay(job.attempts, self.rng)
            waiting.append((eligible_at, job))
            return
        commit(self._failure(job, self._terminal_state_for(error), error, tb, started))

    # ------------------------------------------------------------------
    # Thread stage
    # ------------------------------------------------------------------

    def _run_thread_stage(self, jobs: Sequence[CampaignJob],
                          commit: Callable[[JobResult], None]) -> None:
        pending = deque(jobs)
        waiting: List[Tuple[float, CampaignJob]] = []
        running: List[_Attempt] = []
        wake = threading.Event()
        job_started: Dict[int, float] = {id(job): 0.0 for job in jobs}

        while pending or waiting or running:
            now = self.clock()
            for entry in list(waiting):
                if now >= entry[0]:
                    waiting.remove(entry)
                    pending.append(entry[1])

            while pending and len(running) < self.workers:
                job = pending.popleft()
                job.attempts += 1
                if job.attempts == 1:
                    job_started[id(job)] = self.clock()
                attempt = _Attempt(job, job.attempts, wake)
                attempt.started = self.clock()
                thread = threading.Thread(target=attempt.run, daemon=True,
                                          name="soft-job-%s" % job.cell)
                thread.start()
                running.append(attempt)

            wake.clear()
            progressed = False
            for attempt in list(running):
                job = attempt.job
                started = job_started[id(job)]
                if attempt.done.is_set():
                    running.remove(attempt)
                    progressed = True
                    if attempt.error is None:
                        commit(JobResult(job=job, state="ok", value=attempt.value,
                                         wall_time=max(0.0, self.clock() - started)))
                    else:
                        self._retry_or_terminalize(job, attempt.error, attempt.tb,
                                                   started, waiting, commit)
                    continue
                timeout = self._effective_timeout(job)
                if timeout is not None and self.clock() - attempt.started >= timeout:
                    attempt.abandoned = True
                    self.abandoned_attempts += 1
                    running.remove(attempt)
                    progressed = True
                    error = CellTimeoutError(
                        "cell %s exceeded its %.2fs deadline (attempt %d/%d)"
                        % (job.cell, timeout, job.attempts, self.retry.max_attempts))
                    self._retry_or_terminalize(job, error, "", started, waiting, commit)

            if progressed or (pending and len(running) < self.workers):
                continue
            if not running and not pending and waiting:
                next_eligible = min(entry[0] for entry in waiting)
                self.sleep(max(0.0, min(next_eligible - self.clock(), 0.05)))
                continue
            if running:
                tick = 0.25
                deadlines = [self._effective_timeout(a.job) for a in running]
                if any(d is not None for d in deadlines):
                    tick = 0.01
                wake.wait(tick)

    # ------------------------------------------------------------------
    # Process stage
    # ------------------------------------------------------------------

    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.workers)

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Tear a pool down hard, terminating workers that may be hung."""

        try:
            for process in list(getattr(pool, "_processes", {}).values()):
                process.terminate()
        # soft-lint: disable=broad-except -- best-effort teardown of an already-broken pool
        except Exception:
            pass
        try:
            pool.shutdown(wait=False)
        # soft-lint: disable=broad-except -- best-effort teardown of an already-broken pool
        except Exception:
            pass

    def _run_process_stage(self, jobs: Sequence[CampaignJob],
                           commit: Callable[[JobResult], None],
                           ) -> List[CampaignJob]:
        """Run process-capable jobs; returns jobs demoted to the thread stage."""

        from concurrent.futures.process import BrokenProcessPool

        pending = deque(jobs)
        waiting: List[Tuple[float, CampaignJob]] = []
        job_started: Dict[int, float] = {id(job): 0.0 for job in jobs}
        pool = self._make_pool()
        inflight: Dict[object, Tuple[CampaignJob, float]] = {}

        def drain_inflight() -> List[CampaignJob]:
            victims = [job for job, _ in inflight.values()]
            inflight.clear()
            return victims

        try:
            while pending or waiting or inflight:
                now = self.clock()
                for entry in list(waiting):
                    if now >= entry[0]:
                        waiting.remove(entry)
                        pending.append(entry[1])

                while pending and len(inflight) < self.workers:
                    job = pending.popleft()
                    job.attempts += 1
                    if job_started[id(job)] == 0.0:
                        job_started[id(job)] = self.clock()
                    fn, args = job.process_task  # type: ignore[misc]
                    future = pool.submit(_process_attempt_main, self.fault_plan,
                                         fn, args)
                    inflight[future] = (job, self.clock())

                if not inflight:
                    if waiting and not pending:
                        next_eligible = min(entry[0] for entry in waiting)
                        self.sleep(max(0.0, min(next_eligible - self.clock(), 0.05)))
                    continue

                done, _ = futures_wait(list(inflight), timeout=0.05,
                                       return_when=FIRST_COMPLETED)
                pool_broke = False
                for future in done:
                    job, _submitted = inflight.pop(future)
                    started = job_started[id(job)]
                    try:
                        value = future.result(timeout=0)
                    except BrokenProcessPool:
                        pool_broke = True
                        job.pool_breaks += 1
                        # The pool break is not this job's fault until proven
                        # otherwise: re-queue without consuming its retries.
                        job.attempts -= 1
                        pending.append(job)
                    # soft-lint: disable=broad-except -- worker exceptions of any type become structured failures
                    except Exception as exc:
                        tb = getattr(exc, "__traceback__", None)
                        rendered = "".join(traceback.format_exception(
                            type(exc), exc, tb))
                        self._retry_or_terminalize(job, exc, rendered, started,
                                                   waiting, commit)
                    else:
                        commit(JobResult(job=job, state="ok", value=value,
                                         wall_time=max(0.0, self.clock() - started)))

                if pool_broke:
                    for job in drain_inflight():
                        job.pool_breaks += 1
                        job.attempts -= 1
                        pending.append(job)
                    self._kill_pool(pool)
                    self.pool_rebuilds += 1
                    if self.pool_rebuilds > self.max_pool_rebuilds:
                        self.record_degradation(
                            "process pool broke %d time(s); degrading the "
                            "remaining Phase-1 cells to the thread executor"
                            % self.pool_rebuilds,
                            kind="process-pool-broken",
                            pool_rebuilds=self.pool_rebuilds)
                        leftovers = list(pending) + [entry[1] for entry in waiting]
                        pending.clear()
                        waiting.clear()
                        return leftovers
                    pool = self._make_pool()
                    continue

                # Deadline sweep: a hung worker cannot be reclaimed on its
                # own, so the whole pool is torn down and the survivors
                # re-queued (for free — only the timed-out cell pays).
                timed_out = [
                    (future, job) for future, (job, submitted) in inflight.items()
                    if self._effective_timeout(job) is not None
                    and self.clock() - submitted >= self._effective_timeout(job)]
                if timed_out:
                    expired = {id(job) for _, job in timed_out}
                    survivors = [job for job, _ in inflight.values()
                                 if id(job) not in expired]
                    inflight.clear()
                    self._kill_pool(pool)
                    for _, job in timed_out:
                        timeout = self._effective_timeout(job)
                        error = CellTimeoutError(
                            "cell %s exceeded its %.2fs deadline (attempt %d/%d)"
                            % (job.cell, timeout, job.attempts,
                               self.retry.max_attempts))
                        self._retry_or_terminalize(job, error, "",
                                                   job_started[id(job)],
                                                   waiting, commit)
                    for job in survivors:
                        job.attempts -= 1
                        pending.append(job)
                    pool = self._make_pool()
        finally:
            self._kill_pool(pool)
        return []
