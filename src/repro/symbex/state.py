"""Per-path execution state.

A :class:`PathState` is handed to the program under test for every explored
path.  It carries the accumulated *path condition*, the list of branch
decisions taken so far, and a free-form event log that the test harness uses
to record externally observable outputs (OpenFlow messages, data-plane
packets, crashes).  The path condition grows only through branch decisions
and :meth:`PathState.assume`; a path never pins a symbolic value to a
concrete one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import EngineError
from repro.symbex.expr import (
    BoolConst,
    BoolExpr,
    BVVar,
    bvvar,
    collect_variables,
    expr_size,
)

__all__ = ["PathCondition", "PathState"]


class PathCondition:
    """An ordered conjunction of boolean constraints."""

    def __init__(self, constraints: Optional[List[BoolExpr]] = None) -> None:
        self._constraints: List[BoolExpr] = list(constraints or [])

    def add(self, constraint: BoolExpr) -> None:
        """Append a constraint (constant ``true`` is dropped)."""

        if isinstance(constraint, BoolConst) and constraint.value:
            return
        self._constraints.append(constraint)

    def constraints(self) -> List[BoolExpr]:
        """Return a copy of the constraint list."""

        return list(self._constraints)

    def since(self, index: int) -> List[BoolExpr]:
        """Constraints appended at or after position *index*.

        The engine's feasibility oracle uses this to incrementally mirror
        constraints added outside branching (``assume``) without copying
        the whole list at every branch.
        """

        return self._constraints[index:]

    def copy(self) -> "PathCondition":
        return PathCondition(self._constraints)

    def size(self) -> int:
        """Total number of operator nodes across all constraints.

        This is the "constraint size" metric reported in Table 2 of the paper.
        """

        return sum(expr_size(c) for c in self._constraints)

    def variables(self) -> Dict[str, int]:
        """Mapping of every free variable name to its width."""

        merged: Dict[str, int] = {}
        for constraint in self._constraints:
            merged.update(collect_variables(constraint))
        return merged

    def __len__(self) -> int:
        return len(self._constraints)

    def __iter__(self):
        return iter(self._constraints)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return "PathCondition(%d constraints)" % len(self._constraints)


@dataclass
class PathState:
    """Mutable state of a single explored path."""

    path_id: int
    condition: PathCondition = field(default_factory=PathCondition)
    decisions: List[bool] = field(default_factory=list)
    events: List[Any] = field(default_factory=list)
    #: Names and widths of the symbolic inputs created through new_symbol().
    symbols: Dict[str, int] = field(default_factory=dict)
    #: Arbitrary per-path scratch storage for the program under test.
    data: Dict[str, Any] = field(default_factory=dict)

    # -- symbolic inputs ------------------------------------------------------

    def new_symbol(self, name: str, width: int) -> BVVar:
        """Create (or re-create, deterministically) a named symbolic input.

        The same name must map to the same width on every path; exploration
        re-runs the program once per path and input names are the join points
        between paths.
        """

        existing = self.symbols.get(name)
        if existing is not None and existing != width:
            raise EngineError(
                "symbolic input %r created with widths %d and %d" % (name, existing, width)
            )
        self.symbols[name] = width
        return bvvar(name, width)

    # -- constraints -----------------------------------------------------------

    def assume(self, constraint: BoolExpr) -> None:
        """Add *constraint* to the path condition without branching.

        Used by the harness to encode input well-formedness (e.g. "the message
        length field equals the concrete length we serialized").
        """

        if isinstance(constraint, bool):
            if constraint:
                return
            raise EngineError("assumed a concretely false constraint")
        self.condition.add(constraint)

    def record_event(self, event: Any) -> None:
        """Append an externally observable event to the path's output log."""

        self.events.append(event)

    # -- introspection -----------------------------------------------------------

    @property
    def depth(self) -> int:
        """Number of symbolic branch decisions taken so far."""

        return len(self.decisions)

    def snapshot(self) -> Tuple[Tuple[bool, ...], int]:
        return tuple(self.decisions), len(self.condition)
