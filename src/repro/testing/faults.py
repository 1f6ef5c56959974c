"""A deterministic fault-injection harness for the campaign runtime.

The production code exposes *named fault sites* — cheap
:func:`fault_point` calls at the places campaigns have actually died in
the wild (agent message handling, Phase-1 exploration, solver queries,
corpus I/O).  A :class:`FaultPlan` is a list of :class:`FaultSpec`
entries describing what to inject where:

* ``raise`` — raise :class:`InjectedFault` at the site (a crashing cell);
* ``hang``  — sleep for ``duration`` seconds (a hung cell, which the job
  supervisor must kill at its deadline);
* ``kill``  — die like a segfaulted worker: ``os._exit`` in a worker
  process (breaking the process pool), or :class:`WorkerCrashError` when
  the site runs in the main process (killing it would take the campaign
  down with it — exactly what crash *isolation* must prevent);
* ``corrupt`` — no in-band effect; the site's caller receives the
  directive and corrupts the artifact it was about to produce (e.g. a
  truncated witness bundle).

Everything is deterministic: a spec fires at explicit 1-based *hit
indices* of its (site, match) counter, so "crash the first two attempts,
then succeed" is expressible and replayable.  Counters are per process —
a fresh worker process starts counting from zero, which is what makes
``kill`` specs break a pool on every spawned attempt until the
supervisor degrades to threads.

With no plan installed, a fault point is a single global read — safe to
leave in hot paths.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError, WorkerCrashError

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "active_fault_plan",
    "clear_fault_plan",
    "fault_point",
    "install_fault_plan",
    "installed_fault_plan",
    "load_fault_plan",
]

#: Supported injection kinds.
FAULT_KINDS = ("raise", "hang", "kill", "corrupt")

#: Exit code used for injected worker kills (recognizable in worker logs).
KILL_EXIT_CODE = 73

FAULT_PLAN_FORMAT = "soft/fault-plan/v1"


class InjectedFault(ReproError):
    """The exception a ``raise`` fault spec throws at its site."""


@dataclass
class FaultSpec:
    """One deterministic injection: *what* to do, *where*, and *when*."""

    #: Fault site name (``"agent.handle"``, ``"phase1"``, ``"solver.check"``,
    #: ``"corpus.load"``, ``"corpus.save"``, ...).
    site: str
    kind: str = "raise"
    #: Substring that must occur in the site's context string (agent name,
    #: ``agent:test`` cell, bundle path...).  Empty matches everything.
    match: str = ""
    #: 1-based hit indices of the (site, match) counter at which to fire.
    hits: Tuple[int, ...] = (1,)
    #: Sleep length for ``hang`` faults (pick it larger than the cell
    #: timeout under test; the sleeping thread is abandoned, not joined).
    duration: float = 30.0
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError("unknown fault kind %r (valid: %s)"
                             % (self.kind, ", ".join(FAULT_KINDS)))
        self.hits = tuple(int(h) for h in self.hits)

    def to_dict(self) -> Dict[str, object]:
        return {
            "site": self.site,
            "kind": self.kind,
            "match": self.match,
            "hits": list(self.hits),
            "duration": self.duration,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultSpec":
        return cls(
            site=str(data["site"]),
            kind=str(data.get("kind", "raise")),
            match=str(data.get("match", "")),
            hits=tuple(int(h) for h in data.get("hits", (1,))),
            duration=float(data.get("duration", 30.0)),
            message=str(data.get("message", "injected fault")),
        )


class FaultPlan:
    """A set of :class:`FaultSpec` entries with per-spec hit counters.

    Thread-safe and picklable: worker threads share the installed plan's
    counters; worker *processes* re-install a copy and count from zero
    (documented semantics — see the module docstring).
    """

    def __init__(self, specs: Sequence[FaultSpec] = (), seed: int = 0) -> None:
        self.specs: List[FaultSpec] = list(specs)
        self.seed = int(seed)
        self.main_pid = os.getpid()
        self._lock = threading.Lock()
        self._counters: Dict[int, int] = {}
        #: Injections actually performed: (site, context, kind, hit) tuples.
        self.fired: List[Tuple[str, str, str, int]] = []
        #: Injectable for tests; ``hang`` sleeps through it.
        self.sleep: Callable[[float], None] = time.sleep

    # Pickling ships the specs and the originating main pid (so a ``kill``
    # spec still knows it is running in a worker); counters restart.
    def __reduce__(self):
        return (_rebuild_plan, (self.specs, self.seed, self.main_pid))

    def to_dict(self) -> Dict[str, object]:
        return {
            "format": FAULT_PLAN_FORMAT,
            "seed": self.seed,
            "specs": [spec.to_dict() for spec in self.specs],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        tag = data.get("format", FAULT_PLAN_FORMAT)
        if tag != FAULT_PLAN_FORMAT:
            raise ValueError("unsupported fault plan format %r (expected %r)"
                             % (tag, FAULT_PLAN_FORMAT))
        return cls(specs=[FaultSpec.from_dict(s) for s in data.get("specs", [])],
                   seed=int(data.get("seed", 0)))

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------

    def fire(self, site: str, context: str = "") -> Optional[str]:
        """Evaluate every matching spec for one site visit.

        Performs ``raise``/``hang``/``kill`` effects in-band; returns
        ``"corrupt"`` when a corrupt spec fired (the caller corrupts its
        own artifact), else ``None``.
        """

        directive: Optional[str] = None
        for index, spec in enumerate(self.specs):
            if spec.site != site or spec.match not in context:
                continue
            with self._lock:
                hit = self._counters.get(index, 0) + 1
                self._counters[index] = hit
                due = hit in spec.hits
                if due:
                    self.fired.append((site, context, spec.kind, hit))
            if not due:
                continue
            if spec.kind == "raise":
                raise InjectedFault("%s at %s[%s] (hit %d)"
                                    % (spec.message, site, context, hit))
            if spec.kind == "hang":
                self.sleep(spec.duration)
            elif spec.kind == "kill":
                if os.getpid() != self.main_pid:
                    # A real worker-process death: no cleanup, no excuses.
                    os._exit(KILL_EXIT_CODE)
                raise WorkerCrashError(
                    "injected worker kill at %s[%s] (hit %d; in-process, so "
                    "raised instead of killing the main interpreter)"
                    % (site, context, hit))
            elif spec.kind == "corrupt":
                directive = "corrupt"
        return directive


def _rebuild_plan(specs: List[FaultSpec], seed: int,
                  main_pid: Optional[int] = None) -> FaultPlan:
    """Unpickle helper: a worker process both rebuilds AND installs the plan,
    so fault sites inside the worker see it without extra wiring."""

    plan = FaultPlan(specs, seed=seed)
    if main_pid is not None:
        plan.main_pid = main_pid
    install_fault_plan(plan)
    return plan


# ---------------------------------------------------------------------------
# Process-global installation
# ---------------------------------------------------------------------------

_ACTIVE: Optional[FaultPlan] = None


def install_fault_plan(plan: Optional[FaultPlan]) -> None:
    """Install *plan* process-globally (``None`` clears it)."""

    global _ACTIVE
    _ACTIVE = plan


def clear_fault_plan() -> None:
    install_fault_plan(None)


def active_fault_plan() -> Optional[FaultPlan]:
    return _ACTIVE


class installed_fault_plan:
    """Context manager: install a plan for the block, restore the old one."""

    def __init__(self, plan: Optional[FaultPlan]) -> None:
        self.plan = plan
        self._previous: Optional[FaultPlan] = None

    def __enter__(self) -> Optional[FaultPlan]:
        self._previous = active_fault_plan()
        install_fault_plan(self.plan)
        return self.plan

    def __exit__(self, *exc_info: object) -> None:
        install_fault_plan(self._previous)


def fault_point(site: str, context: str = "") -> Optional[str]:
    """Evaluate the active fault plan (if any) at a named site.

    Returns ``"corrupt"`` when the caller should corrupt the artifact it is
    producing; raises/hangs/kills in-band for the other kinds.  A no-op
    single global read when no plan is installed.
    """

    plan = _ACTIVE
    if plan is None:
        return None
    return plan.fire(site, context)


def load_fault_plan(path: str) -> FaultPlan:
    """Load a JSON fault plan (the ``soft campaign --fault-plan`` format)."""

    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ValueError("cannot read fault plan %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ValueError("fault plan %s is not valid JSON: %s" % (path, exc))
    return FaultPlan.from_dict(data)
