"""The hybrid seed pool: concrete inputs scored by coverage novelty.

A *seed* is a concrete assignment of a test's symbolic input variables —
the join-point representation every stage of the hunt already speaks:

* the **fuzzer** draws random assignments and materializes them to wire
  buffers (``build_testcase``);
* the **concolic executor** turns a seed into a path condition and solves
  branch flips into new assignments;
* the **symbex** stage's crosscheck inconsistencies carry solver models —
  assignments by construction;
* **corpus** witness bundles store the (minimized) assignment that
  reproduced a historical divergence.

The pool deduplicates seeds by assignment, scores each admitted seed by how
many coverage units (lines + arcs, :meth:`CoverageTracker.fingerprint`) it
added over everything admitted before it, and serves seeds back in
novelty-first order for concolic expansion.  Seeds with no coverage signal
yet (e.g. solver models that have not been replayed) are admitted with a
neutral score and sorted behind scored ones of equal origin priority.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

__all__ = ["Seed", "SeedPool"]

#: Admission order when novelty ties: directed seeds beat random ones.
_ORIGIN_RANK = {"corpus": 0, "symbex": 1, "concolic": 2, "fuzz": 3}


def _assignment_key(assignment: Dict[str, int]) -> Tuple[Tuple[str, int], ...]:
    return tuple(sorted(assignment.items()))


@dataclass
class Seed:
    """One concrete input assignment plus its pool bookkeeping."""

    assignment: Dict[str, int]
    #: Which stage produced it: "fuzz", "concolic", "symbex" or "corpus".
    origin: str
    #: Coverage units this seed added when admitted (0 = nothing new / unknown).
    novelty: int = 0
    #: Monotonic admission index (stable tie-break, deterministic order).
    serial: int = 0
    #: How many times the concolic stage has expanded this seed.
    expansions: int = 0

    def sort_key(self) -> Tuple[int, int, int, int]:
        """Novelty-first, then directed-origin-first, then admission order."""

        return (self.expansions, -self.novelty,
                _ORIGIN_RANK.get(self.origin, 9), self.serial)


class SeedPool:
    """Deduplicated, novelty-scored store of concrete input seeds."""

    def __init__(self, max_seeds: Optional[int] = None) -> None:
        self.max_seeds = max_seeds
        self._seeds: List[Seed] = []
        self._seen: set = set()
        #: Union coverage fingerprint of every scored admission so far.
        self._covered: FrozenSet[tuple] = frozenset()
        self._serial = 0
        self.rejected_duplicates = 0
        self.rejected_stale = 0

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def add(self, assignment: Dict[str, int], origin: str,
            fingerprint: Optional[FrozenSet[tuple]] = None,
            require_novel: bool = False) -> Optional[Seed]:
        """Admit *assignment* unless it is a duplicate (or stale, see below).

        *fingerprint* is the coverage the seed's replay touched; its novelty
        is measured against the union of all previously admitted coverage and
        the union is advanced.  With ``require_novel=True`` a fingerprinted
        seed that adds no new units is rejected — the fuzz stage uses this so
        the pool holds one representative per behaviour, not every random
        input that happened to diverge nowhere.  Returns the admitted
        :class:`Seed` or ``None``.
        """

        key = _assignment_key(assignment)
        if key in self._seen:
            self.rejected_duplicates += 1
            return None
        novelty = 0
        if fingerprint is not None:
            novelty = len(fingerprint - self._covered)
            if require_novel and not novelty:
                self.rejected_stale += 1
                return None
            self._covered = self._covered | fingerprint
        self._seen.add(key)
        seed = Seed(assignment=dict(assignment), origin=origin,
                    novelty=novelty, serial=self._serial)
        self._serial += 1
        self._seeds.append(seed)
        if self.max_seeds is not None and len(self._seeds) > self.max_seeds:
            # Evict the least interesting fully-expanded seed.
            victim = max(self._seeds, key=lambda s: s.sort_key())
            self._seeds.remove(victim)
        return seed

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------

    def next_for_expansion(self) -> Optional[Seed]:
        """The best seed to expand next (fewest expansions, most novelty).

        Marks the seed as expanded once more, so repeated calls walk the
        pool instead of hammering the single best seed.
        """

        if not self._seeds:
            return None
        seed = min(self._seeds, key=lambda s: s.sort_key())
        seed.expansions += 1
        return seed

    def seeds(self) -> List[Seed]:
        """All seeds, best-first (admission order breaks ties)."""

        return sorted(self._seeds, key=lambda s: s.sort_key())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._seeds)

    @property
    def covered_units(self) -> int:
        """Size of the union coverage fingerprint across admissions."""

        return len(self._covered)

    def origin_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for seed in self._seeds:
            counts[seed.origin] = counts.get(seed.origin, 0) + 1
        return counts

    def stats_dict(self) -> Dict[str, object]:
        return {
            "seeds": len(self._seeds),
            "covered_units": self.covered_units,
            "rejected_duplicates": self.rejected_duplicates,
            "rejected_stale": self.rejected_stale,
            "origins": self.origin_counts(),
        }
