"""Search strategies: pluggable frontiers for the exploration scheduler.

The exploration engine is a *scheduler* over a frontier of pending path
prefixes: it pops one prefix, re-executes the program along it, and pushes
the unexplored sibling of every fresh two-sided branch.  Which prefix is
popped next — the *search strategy* — does not change the set of feasible
paths (exploration is exhaustive), but it decides the order in which they
appear, which matters as soon as a budget (``max_paths``, ``time_budget``)
truncates the search: a good strategy front-loads the interesting paths.

Four strategies ship with the engine:

``dfs``
    Depth-first (LIFO).  The default order; cheapest frontier and
    the best cache locality for the prefix-feasibility oracle, because
    consecutive paths share the longest common ancestry.
``bfs``
    Breadth-first (FIFO).  Shallow behaviours surface first; useful with a
    tight ``max_paths`` when early divergence between agents is expected.
``random``
    Random-restart: pops a uniformly random frontier entry (deterministic
    for a fixed ``seed``).  De-correlates truncation bias from program
    structure.
``coverage``
    Coverage-guided via :class:`repro.coverage.tracker.CoverageTracker`:
    prefixes forked from paths that discovered new coverage (or, without a
    tracker, a previously unseen output log) are explored first.

A truncated exploration hands its unexplored prefixes back:
:meth:`SearchStrategy.drain` empties the frontier into
``ExplorationResult.frontier``.
"""

from __future__ import annotations

import random
from collections import deque
from heapq import heappop, heappush
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import EngineError

__all__ = [
    "SearchStrategy",
    "DFSStrategy",
    "BFSStrategy",
    "RandomRestartStrategy",
    "CoverageGuidedStrategy",
    "STRATEGIES",
    "make_strategy",
    "strategy_names",
]

#: A path prefix: the branch outcomes to replay before exploring freely.
Prefix = Tuple[bool, ...]


class SearchStrategy:
    """Owns the pending-prefix frontier of one exploration.

    Subclasses implement :meth:`_push`, :meth:`_pop` and :meth:`_length`;
    the base class tracks the frontier high-water mark and pop count, which
    every strategy reports through :meth:`metrics`.
    """

    name = "base"

    def __init__(self) -> None:
        self.pushes = 0
        self.pops = 0
        self.max_frontier = 0

    # -- frontier ---------------------------------------------------------

    def push(self, prefix: Prefix) -> None:
        self._push(tuple(prefix))
        self.pushes += 1
        self.max_frontier = max(self.max_frontier, self._length())

    def pop(self) -> Prefix:
        if not self._length():
            raise EngineError("pop from an empty exploration frontier")
        self.pops += 1
        return self._pop()

    def __len__(self) -> int:
        return self._length()

    def drain(self) -> List[Prefix]:
        """Empty the frontier and return the remaining prefixes (pop order)."""

        remaining: List[Prefix] = []
        while self._length():
            remaining.append(self._pop())
        return remaining

    def reset(self) -> None:
        """Drop all frontier state and metrics (engine reuse)."""

        self.drain()
        self.pushes = 0
        self.pops = 0
        self.max_frontier = 0

    # -- scheduler feedback ----------------------------------------------

    def on_path_complete(self, record: Any) -> None:
        """Called by the scheduler after each completed path (default no-op).

        *record* is the :class:`~repro.symbex.engine.PathRecord` just
        produced; prioritizing strategies use it to score the prefixes that
        were pushed while that path ran.
        """

    def on_path_discarded(self) -> None:
        """Called when a replay was abandoned without producing a record.

        Prefixes pushed during the discarded run must not inherit the next
        completed path's score (default no-op).
        """

    # -- reporting --------------------------------------------------------

    def metrics(self) -> Dict[str, object]:
        return {
            "strategy": self.name,
            "frontier_pushes": self.pushes,
            "frontier_pops": self.pops,
            "max_frontier": self.max_frontier,
        }

    # -- subclass interface ----------------------------------------------

    def _push(self, prefix: Prefix) -> None:
        raise NotImplementedError

    def _pop(self) -> Prefix:
        raise NotImplementedError

    def _length(self) -> int:
        raise NotImplementedError


class DFSStrategy(SearchStrategy):
    """Depth-first: LIFO stack, the default exploration order."""

    name = "dfs"

    def __init__(self) -> None:
        super().__init__()
        self._stack: List[Prefix] = []

    def _push(self, prefix: Prefix) -> None:
        self._stack.append(prefix)

    def _pop(self) -> Prefix:
        return self._stack.pop()

    def _length(self) -> int:
        return len(self._stack)


class BFSStrategy(SearchStrategy):
    """Breadth-first: FIFO queue; shallow paths complete first."""

    name = "bfs"

    def __init__(self) -> None:
        super().__init__()
        self._queue: deque = deque()

    def _push(self, prefix: Prefix) -> None:
        self._queue.append(prefix)

    def _pop(self) -> Prefix:
        return self._queue.popleft()

    def _length(self) -> int:
        return len(self._queue)


class RandomRestartStrategy(SearchStrategy):
    """Pop a uniformly random frontier entry (seeded, so deterministic).

    Every pop is a "restart" to an arbitrary point of the explored tree,
    which decorrelates a truncated sample of paths from program structure.
    """

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self.seed = seed
        self._rng = random.Random(seed)
        self._entries: List[Prefix] = []

    def _push(self, prefix: Prefix) -> None:
        self._entries.append(prefix)

    def _pop(self) -> Prefix:
        index = self._rng.randrange(len(self._entries))
        self._entries[index], self._entries[-1] = self._entries[-1], self._entries[index]
        return self._entries.pop()

    def _length(self) -> int:
        return len(self._entries)

    def reset(self) -> None:
        super().reset()
        self._rng = random.Random(self.seed)


class CoverageGuidedStrategy(SearchStrategy):
    """Prefer prefixes forked from paths that discovered something new.

    Prefixes pushed while a path runs are held in a batch; when the path
    completes, the batch is scored and moved into a max-heap:

    * with a :class:`~repro.coverage.tracker.CoverageTracker`, the score is
      the number of new executed lines + branch arcs the path contributed
      (the tracker is cumulative across paths, so the delta is exactly the
      novelty);
    * without a tracker, the score is 1 when the path produced a
      previously-unseen event log and 0 otherwise.

    Ties break FIFO, so with a constant score this degrades gracefully to
    breadth-first order.

    When *targets* — static decision-map sites as ``(path, line)`` pairs —
    are supplied alongside a tracker, a path that executes a target site for
    the first time earns an extra :attr:`TARGET_BONUS` per site, so the
    search leans toward the statically-known branches it has not reached yet
    rather than generic novelty.
    """

    name = "coverage"

    #: Extra score per statically-known branch site reached for the first time.
    TARGET_BONUS = 25

    def __init__(self, tracker: Optional[Any] = None,
                 targets: Optional[Any] = None) -> None:
        super().__init__()
        self.tracker = tracker
        self.targets = set(targets) if targets else set()
        self._targets_hit: set = set()
        self._heap: List[Tuple[int, int, Prefix]] = []
        self._batch: List[Prefix] = []
        self._counter = 0
        self._covered = 0
        self._seen_logs: set = set()
        self.rescores = 0

    # -- scoring ----------------------------------------------------------

    def _coverage_total(self) -> int:
        executed = sum(len(lines) for lines in self.tracker.executed.values())
        arcs = sum(len(pairs) for pairs in self.tracker.arcs.values())
        return executed + arcs

    def _new_target_hits(self) -> int:
        if not self.targets or self.tracker is None:
            return 0
        hits = {
            (path, line)
            for path, line in self.targets - self._targets_hit
            if line in self.tracker.executed.get(path, ())
        }
        self._targets_hit |= hits
        return len(hits)

    def _score_path(self, record: Any) -> int:
        if self.tracker is not None:
            total = self._coverage_total()
            delta = total - self._covered
            self._covered = total
            return delta + self.TARGET_BONUS * self._new_target_hits()
        log_key = repr(getattr(record, "events", None))
        if log_key in self._seen_logs:
            return 0
        self._seen_logs.add(log_key)
        return 1

    def on_path_complete(self, record: Any) -> None:
        # Always consume the path's novelty signal — a fork-less path still
        # advances the coverage baseline / seen-log set, otherwise its
        # discoveries would be credited to the next forking path.
        score = self._score_path(record)
        if not self._batch:
            return
        if score:
            self.rescores += 1
        self._flush_batch(score)

    def on_path_discarded(self) -> None:
        # An aborted replay has no coverage signal; its forks go in neutral.
        self._flush_batch(0)

    def _flush_batch(self, score: int) -> None:
        for prefix in self._batch:
            heappush(self._heap, (-score, self._counter, prefix))
            self._counter += 1
        self._batch = []

    # -- frontier ---------------------------------------------------------

    def _push(self, prefix: Prefix) -> None:
        self._batch.append(prefix)

    def _pop(self) -> Prefix:
        if not self._heap:
            # Entries with no completed parent yet (the root prefix):
            # neutral order.
            self._flush_batch(0)
        return heappop(self._heap)[2]

    def _length(self) -> int:
        return len(self._heap) + len(self._batch)

    def drain(self) -> List[Prefix]:
        self._flush_batch(0)
        return super().drain()

    def reset(self) -> None:
        super().reset()
        self._counter = 0
        self.rescores = 0
        self._seen_logs = set()
        # Re-baseline against the (cumulative) tracker so a fresh exploration
        # scores only coverage it discovers itself, not the previous run's.
        self._covered = self._coverage_total() if self.tracker is not None else 0
        self._targets_hit = set()
        if self.targets and self.tracker is not None:
            self._new_target_hits()  # absorb sites the tracker already covers

    def metrics(self) -> Dict[str, object]:
        data = super().metrics()
        data["scored_batches"] = self.rescores
        data["target_sites"] = len(self.targets)
        data["target_sites_hit"] = len(self._targets_hit)
        return data


STRATEGIES = {
    DFSStrategy.name: DFSStrategy,
    BFSStrategy.name: BFSStrategy,
    RandomRestartStrategy.name: RandomRestartStrategy,
    CoverageGuidedStrategy.name: CoverageGuidedStrategy,
}


def strategy_names() -> List[str]:
    """The selectable strategy names (CLI choices), sorted."""

    return sorted(STRATEGIES)


def make_strategy(name: str, seed: int = 0,
                  tracker: Optional[Any] = None,
                  targets: Optional[Any] = None) -> SearchStrategy:
    """Instantiate a registered strategy by name.

    *seed* parameterizes ``random``; *tracker* and *targets* (static
    decision-map sites) feed ``coverage`` (all are ignored by strategies
    that do not use them).
    """

    try:
        cls = STRATEGIES[name]
    except KeyError:
        raise EngineError(
            "unknown search strategy %r (available: %s)"
            % (name, ", ".join(strategy_names())))
    if cls is RandomRestartStrategy:
        return cls(seed=seed)
    if cls is CoverageGuidedStrategy:
        return cls(tracker=tracker, targets=targets)
    return cls()
