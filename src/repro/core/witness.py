"""Witness triage: minimized, deduplicated, replay-confirmed inconsistencies.

The crosscheck stage reports *raw* inconsistencies — one per satisfiable pair
of differing output groups.  The paper's end product (§3.5, Table 5) is much
smaller: many raw inconsistencies collapse to a handful of root causes, each
confirmed by concretely replaying a generated input.  This module is that
reporting layer:

* a :class:`Witness` is a pair's one record of a replayed inconsistency: it
  joins the ``Inconsistency``, its ``ConcreteTestCase`` and the
  ``ReplayOutcome`` into one object carrying the solver model, the
  materialized inputs, both replay traces and a :class:`DivergenceSignature`
  (first divergent event index plus normalized event kinds, volatile fields
  dropped);
* :func:`minimize_witness` delta-minimizes a witness with concrete replay as
  the oracle — trailing inputs are dropped, then model variables are greedily
  zeroed or shrunk while the divergence (and its signature) persists;
* a :class:`TriageIndex` deduplicates witnesses across a whole campaign into
  :class:`WitnessCluster` s keyed by signature, each with one minimized
  representative.  A campaign adds each pair's witnesses on its supervisor
  thread as the pair's cell completes;
* the resulting :class:`TriageReport` is what campaign reports, the CLI's
  ``soft triage`` verb and the persistent corpus (:mod:`repro.core.corpus`)
  consume.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.crosscheck import Inconsistency
from repro.core.testcase import ConcreteTestCase, ReplayOutcome, build_testcase
from repro.core.tests_catalog import TestSpec
from repro.core.trace import OutputTrace, TraceDiff, _deep_tuple, render_kind
from repro.errors import WitnessError
from repro.harness.driver import ConcreteRunResult
from repro.symbex.expr import BoolExpr
from repro.symbex.serialize import (
    bool_expr_from_obj,
    expr_to_obj,
    model_from_obj,
    model_to_obj,
)
from repro.wire.buffer import SymBuffer

__all__ = [
    "DivergenceSignature",
    "MinimizationStats",
    "Witness",
    "WitnessCluster",
    "TriageIndex",
    "TriageReport",
    "build_witness",
    "minimize_witness",
]

#: Replays a candidate test case against the witness's agent pair.
Replayer = Callable[[ConcreteTestCase], ReplayOutcome]

#: Format tag stamped into serialized witness bundles.
WITNESS_BUNDLE_FORMAT = "soft/witness-bundle/v1"


@dataclass(frozen=True)
class DivergenceSignature:
    """The clustering key of a witness: where and how two replays diverge.

    ``index`` is the position of the first differing trace event;
    ``kind_a``/``kind_b`` are the :func:`repro.core.trace.event_kind`
    renderings of each side's event there (``None`` = trace ended).  Volatile
    fields (xids, ports, payload lengths, timestamps) never reach the kind
    tuples, so the signature is stable under input truncation and model
    minimization.
    """

    test_key: str
    agent_a: str
    agent_b: str
    index: int
    kind_a: Optional[Tuple]
    kind_b: Optional[Tuple]

    @classmethod
    def from_diff(cls, test_key: str, agent_a: str, agent_b: str,
                  diff: TraceDiff) -> "DivergenceSignature":
        return cls(test_key=test_key, agent_a=agent_a, agent_b=agent_b,
                   index=diff.index, kind_a=diff.kind_a, kind_b=diff.kind_b)

    def key(self) -> Tuple:
        """The hashable identity used for clustering and corpus filenames."""

        return (self.test_key, self.agent_a, self.agent_b,
                self.index, self.kind_a, self.kind_b)

    def matches_diff(self, diff: TraceDiff) -> bool:
        """Whether a replay diff reproduces this signature (same pair assumed)."""

        return (diff.index, diff.kind_a, diff.kind_b) == \
            (self.index, self.kind_a, self.kind_b)

    def short(self) -> str:
        return "%s %s~%s @%d %s != %s" % (
            self.test_key, self.agent_a, self.agent_b, self.index,
            render_kind(self.kind_a), render_kind(self.kind_b))

    def to_obj(self) -> Dict[str, object]:
        return {
            "test": self.test_key,
            "agent_a": self.agent_a,
            "agent_b": self.agent_b,
            "index": self.index,
            "kind_a": list(self.kind_a) if self.kind_a is not None else None,
            "kind_b": list(self.kind_b) if self.kind_b is not None else None,
        }

    @classmethod
    def from_obj(cls, obj: Dict[str, object]) -> "DivergenceSignature":
        try:
            return cls(
                test_key=str(obj["test"]),
                agent_a=str(obj["agent_a"]),
                agent_b=str(obj["agent_b"]),
                index=int(obj["index"]),
                kind_a=_deep_tuple(obj["kind_a"]) if obj.get("kind_a") is not None else None,
                kind_b=_deep_tuple(obj["kind_b"]) if obj.get("kind_b") is not None else None,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise WitnessError("malformed serialized signature %r: %s" % (obj, exc))


@dataclass
class MinimizationStats:
    """Before/after accounting of one witness's delta-minimization."""

    original_variables: int
    minimized_variables: int
    original_inputs: int
    minimized_inputs: int
    dropped_variables: List[str] = field(default_factory=list)
    shrunk_variables: List[str] = field(default_factory=list)
    replays: int = 0
    wall_time: float = 0.0

    @property
    def shrink_ratio(self) -> float:
        """Fraction of (variables + inputs) the minimizer removed."""

        original = self.original_variables + self.original_inputs
        minimized = self.minimized_variables + self.minimized_inputs
        return (original - minimized) / original if original else 0.0

    @property
    def reduced(self) -> bool:
        """Strictly fewer assigned variables or inputs than the original."""

        return (self.minimized_variables < self.original_variables
                or self.minimized_inputs < self.original_inputs)

    def to_dict(self) -> Dict[str, object]:
        return {
            "original_variables": self.original_variables,
            "minimized_variables": self.minimized_variables,
            "original_inputs": self.original_inputs,
            "minimized_inputs": self.minimized_inputs,
            "dropped_variables": list(self.dropped_variables),
            "shrunk_variables": list(self.shrunk_variables),
            "replays": self.replays,
            "wall_time": self.wall_time,
            "shrink_ratio": self.shrink_ratio,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MinimizationStats":
        return cls(
            original_variables=int(data.get("original_variables", 0)),
            minimized_variables=int(data.get("minimized_variables", 0)),
            original_inputs=int(data.get("original_inputs", 0)),
            minimized_inputs=int(data.get("minimized_inputs", 0)),
            dropped_variables=[str(v) for v in data.get("dropped_variables", [])],
            shrunk_variables=[str(v) for v in data.get("shrunk_variables", [])],
            replays=int(data.get("replays", 0)),
            wall_time=float(data.get("wall_time", 0.0)),
        )


def _inputs_to_obj(inputs: Sequence[Tuple[str, object]]) -> List[List[object]]:
    """JSON-safe rendering of fully concrete test-case inputs."""

    rendered: List[List[object]] = []
    for kind, payload in inputs:
        if kind == "control":
            rendered.append(["control", payload.to_bytes().hex()])
        elif kind == "probe":
            port, frame = payload
            rendered.append(["probe", port, frame.to_bytes().hex()])
        else:
            raise WitnessError("cannot serialize input kind %r" % (kind,))
    return rendered


def _inputs_from_obj(obj: Sequence[Sequence[object]]) -> List[Tuple[str, object]]:
    inputs: List[Tuple[str, object]] = []
    try:
        for entry in obj:
            kind = entry[0]
            if kind == "control":
                inputs.append(("control", SymBuffer(bytes.fromhex(entry[1]))))
            elif kind == "probe":
                inputs.append(("probe", (entry[1], SymBuffer(bytes.fromhex(entry[2])))))
            else:
                raise WitnessError("unknown serialized input kind %r" % (kind,))
    except (IndexError, TypeError, ValueError) as exc:
        raise WitnessError("malformed serialized inputs: %s" % (exc,))
    return inputs


@dataclass
class Witness:
    """One replay-confirmed inconsistency, structured for triage.

    Carries everything the downstream consumers need: the (possibly
    minimized) solver model and the original one, the materialized concrete
    inputs, both replay traces, the divergence signature, and — when the
    witness came out of the minimizer — the before/after stats.
    """

    test_key: str
    scale: str
    agent_a: str
    agent_b: str
    #: The assignment the inputs were materialized under (minimization
    #: shrinks this; the solver's original model stays in ``solver_model``).
    assignment: Dict[str, int]
    testcase: ConcreteTestCase
    replay: ReplayOutcome
    signature: DivergenceSignature
    #: The satisfied crosscheck condition, stored either as an expression
    #: (in-process witnesses) or as its serialized form (corpus-loaded
    #: witnesses; deserialized lazily on first ``condition`` access — replay
    #: never needs it, and parsing it dominated bundle-load time).
    _condition: Optional[BoolExpr] = field(default=None, repr=False)
    condition_obj: Optional[object] = field(default=None, repr=False)
    solver_model: Dict[str, int] = field(default_factory=dict)
    minimization: Optional[MinimizationStats] = None

    @property
    def condition(self) -> Optional[BoolExpr]:
        """The crosscheck condition (lazily deserialized when corpus-loaded)."""

        if self._condition is None and self.condition_obj is not None:
            self._condition = bool_expr_from_obj(self.condition_obj)
        return self._condition

    @property
    def confirmed(self) -> bool:
        """Whether the concrete replay reproduced a divergence."""

        return self.replay.diverged

    @property
    def variable_count(self) -> int:
        return len(self.assignment)

    @property
    def input_count(self) -> int:
        return len(self.testcase.inputs)

    @property
    def minimized(self) -> bool:
        return self.minimization is not None and self.minimization.reduced

    def size_key(self) -> Tuple:
        """Deterministic "smaller is better" ordering key for representatives."""

        return (not self.confirmed, self.variable_count, self.input_count,
                sorted(self.assignment.items()))

    def describe(self) -> str:
        lines = [
            "witness: %s" % self.signature.short(),
            "  confirmed by replay: %s" % self.confirmed,
            "  model: %d variable(s), %d input(s)%s" % (
                self.variable_count, self.input_count,
                "" if self.minimization is None else
                " (minimized from %d/%d, %d replay(s))" % (
                    self.minimization.original_variables,
                    self.minimization.original_inputs,
                    self.minimization.replays)),
        ]
        for name, value in sorted(self.assignment.items()):
            lines.append("    %s = 0x%x" % (name, value))
        if self.testcase.unbound_variables:
            lines.append("  unbound (zero-filled): %s"
                         % ", ".join(self.testcase.unbound_variables))
        lines.append("  %s: %s" % (self.agent_a, self.replay.run_a.trace.short(limit=5)))
        lines.append("  %s: %s" % (self.agent_b, self.replay.run_b.trace.short(limit=5)))
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Serialization (the corpus bundle format)
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Serialize as a witness bundle: everything a solver-free replay needs."""

        return {
            "format": WITNESS_BUNDLE_FORMAT,
            "test": self.test_key,
            "scale": self.scale,
            "agent_a": self.agent_a,
            "agent_b": self.agent_b,
            "assignment": model_to_obj(self.assignment),
            "solver_model": model_to_obj(self.solver_model),
            "unbound_variables": list(self.testcase.unbound_variables),
            "inputs": _inputs_to_obj(self.testcase.inputs),
            "trace_a": self.replay.run_a.trace.to_obj(),
            "trace_b": self.replay.run_b.trace.to_obj(),
            "crashed_a": self.replay.run_a.crashed,
            "crashed_b": self.replay.run_b.crashed,
            "inputs_consumed_a": self.replay.run_a.inputs_consumed,
            "inputs_consumed_b": self.replay.run_b.inputs_consumed,
            "signature": self.signature.to_obj(),
            # A corpus-loaded witness round-trips its raw condition object
            # without ever deserializing it.
            "condition": (self.condition_obj if self.condition_obj is not None
                          else (expr_to_obj(self._condition)
                                if self._condition is not None else None)),
            "minimization": (self.minimization.to_dict()
                             if self.minimization is not None else None),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Witness":
        """Rebuild a witness bundle serialized with :meth:`to_dict`."""

        if not isinstance(data, dict):
            raise WitnessError("witness bundle must be a JSON object, got %r"
                               % (type(data).__name__,))
        tag = data.get("format", WITNESS_BUNDLE_FORMAT)
        if tag != WITNESS_BUNDLE_FORMAT:
            raise WitnessError("unsupported witness bundle format %r (expected %r)"
                               % (tag, WITNESS_BUNDLE_FORMAT))
        try:
            assignment = model_from_obj(data.get("assignment", {}))
            testcase = ConcreteTestCase(
                test_key=str(data["test"]),
                assignment=assignment,
                inputs=_inputs_from_obj(data.get("inputs", [])),
                unbound_variables=[str(v) for v in data.get("unbound_variables", [])],
            )
            run_a = ConcreteRunResult(
                agent_name=str(data["agent_a"]),
                trace=OutputTrace.from_obj(data.get("trace_a", [])),
                crashed=bool(data.get("crashed_a", False)),
                inputs_consumed=int(data.get("inputs_consumed_a", len(testcase.inputs))),
            )
            run_b = ConcreteRunResult(
                agent_name=str(data["agent_b"]),
                trace=OutputTrace.from_obj(data.get("trace_b", [])),
                crashed=bool(data.get("crashed_b", False)),
                inputs_consumed=int(data.get("inputs_consumed_b", len(testcase.inputs))),
            )
            condition_obj = data.get("condition")
            minimization_obj = data.get("minimization")
            return cls(
                test_key=str(data["test"]),
                scale=str(data.get("scale", "small")),
                agent_a=str(data["agent_a"]),
                agent_b=str(data["agent_b"]),
                assignment=assignment,
                testcase=testcase,
                replay=ReplayOutcome(testcase=testcase, run_a=run_a, run_b=run_b),
                signature=DivergenceSignature.from_obj(data["signature"]),
                condition_obj=condition_obj,
                solver_model=model_from_obj(data.get("solver_model", {})),
                minimization=(MinimizationStats.from_dict(minimization_obj)
                              if minimization_obj is not None else None),
            )
        except WitnessError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise WitnessError("malformed witness bundle: %s" % (exc,))


def build_witness(spec: TestSpec, inconsistency: Inconsistency,
                  testcase: ConcreteTestCase,
                  replay: ReplayOutcome) -> Witness:
    """Assemble a structured witness from the loose crosscheck/replay trio.

    The signature is computed from the *concrete* replay traces — what
    actually happened — not from the symbolic group traces the solver
    predicted.  A non-diverging replay yields an unconfirmed witness whose
    signature records "identical" (index -1); triage surfaces those as
    pipeline errors rather than hiding them.
    """

    diff = replay.run_a.trace.diff(replay.run_b.trace)
    signature = DivergenceSignature.from_diff(
        spec.key, inconsistency.agent_a, inconsistency.agent_b, diff)
    return Witness(
        test_key=spec.key,
        scale=spec.scale,
        agent_a=inconsistency.agent_a,
        agent_b=inconsistency.agent_b,
        assignment=dict(testcase.assignment),
        testcase=testcase,
        replay=replay,
        signature=signature,
        _condition=inconsistency.condition,
        solver_model=dict(inconsistency.example),
    )


def minimize_witness(witness: Witness, spec: TestSpec, replayer: Replayer,
                     max_replays: int = 96) -> Witness:
    """Delta-minimize *witness* with concrete replay as the oracle.

    Three greedy passes, each keeping a change only while the replay still
    diverges with the same :class:`DivergenceSignature`:

    1. drop trailing inputs (seeded by how many inputs the replayed agents
       actually consumed — inputs past both agents' consumption are free);
    2. drop model variables one by one — a dropped variable is zero-filled by
       materialization and recorded as unbound;
    3. shrink the surviving values toward zero (1, then halving).

    Returns a new witness with :class:`MinimizationStats` attached; the
    original solver model is preserved in ``solver_model``.  An unconfirmed
    witness is returned unchanged — there is no divergence to preserve.
    """

    if not witness.confirmed:
        return witness

    started = time.perf_counter()
    replays = 0
    signature = witness.signature

    def oracle(candidate: ConcreteTestCase) -> Optional[ReplayOutcome]:
        nonlocal replays
        replays += 1
        outcome = replayer(candidate)
        if not outcome.diverged:
            return None
        if not signature.matches_diff(outcome.diff()):
            return None
        return outcome

    assignment = dict(witness.assignment)
    keep_inputs = len(witness.testcase.inputs)
    best_testcase = witness.testcase
    best_replay = witness.replay
    original_variables = len(assignment)
    original_inputs = keep_inputs
    dropped: List[str] = []
    shrunk: List[str] = []

    def rebuild(trial_assignment: Dict[str, int], inputs: int) -> ConcreteTestCase:
        return build_testcase(spec, trial_assignment,
                              inconsistency=witness.testcase.inconsistency,
                              max_inputs=inputs)

    # Pass 1: trailing inputs.  Inputs past what either agent consumed cannot
    # have influenced either trace, so jump there first, then walk down.
    consumed = max(best_replay.run_a.inputs_consumed,
                   best_replay.run_b.inputs_consumed)
    if 0 < consumed < keep_inputs and replays < max_replays:
        candidate = rebuild(assignment, consumed)
        outcome = oracle(candidate)
        if outcome is not None:
            keep_inputs = consumed
            best_testcase, best_replay = candidate, outcome
    while keep_inputs > 1 and replays < max_replays:
        candidate = rebuild(assignment, keep_inputs - 1)
        outcome = oracle(candidate)
        if outcome is None:
            break
        keep_inputs -= 1
        best_testcase, best_replay = candidate, outcome

    # Pass 2: greedy variable dropping (deterministic order).
    for name in sorted(witness.assignment):
        if replays >= max_replays:
            break
        if name not in assignment:
            continue
        trial = {key: value for key, value in assignment.items() if key != name}
        candidate = rebuild(trial, keep_inputs)
        outcome = oracle(candidate)
        if outcome is not None:
            assignment = trial
            dropped.append(name)
            best_testcase, best_replay = candidate, outcome

    # Pass 3: shrink surviving values toward zero (zero itself is equivalent
    # to dropping, which pass 2 already rejected).
    for name in sorted(assignment):
        value = assignment[name]
        for smaller in dict.fromkeys((1, value >> 1)):
            if replays >= max_replays:
                break
            if smaller in (0, value):
                continue
            trial = dict(assignment)
            trial[name] = smaller
            candidate = rebuild(trial, keep_inputs)
            outcome = oracle(candidate)
            if outcome is not None:
                assignment = trial
                shrunk.append(name)
                best_testcase, best_replay = candidate, outcome
                break

    stats = MinimizationStats(
        original_variables=original_variables,
        minimized_variables=len(assignment),
        original_inputs=original_inputs,
        minimized_inputs=len(best_testcase.inputs),
        dropped_variables=dropped,
        shrunk_variables=shrunk,
        replays=replays,
        wall_time=time.perf_counter() - started,
    )
    return Witness(
        test_key=witness.test_key,
        scale=witness.scale,
        agent_a=witness.agent_a,
        agent_b=witness.agent_b,
        assignment=assignment,
        testcase=best_testcase,
        replay=best_replay,
        signature=signature,
        _condition=witness._condition,
        condition_obj=witness.condition_obj,
        solver_model=dict(witness.solver_model),
        minimization=stats,
    )


@dataclass
class WitnessCluster:
    """All witnesses of one campaign that share a divergence signature."""

    signature: DivergenceSignature
    witnesses: List[Witness] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.witnesses)

    @property
    def representative(self) -> Witness:
        """The smallest (minimized, confirmed-first) witness of the cluster."""

        if not self.witnesses:
            raise WitnessError("cluster %s has no witnesses" % (self.signature.short(),))
        return min(self.witnesses, key=Witness.size_key)

    @property
    def confirmed_count(self) -> int:
        return sum(1 for witness in self.witnesses if witness.confirmed)

    def add(self, witness: Witness) -> None:
        self.witnesses.append(witness)

    def summary_row(self) -> Dict[str, object]:
        representative = self.representative
        minimization = representative.minimization
        return {
            "test": self.signature.test_key,
            "agent_a": self.signature.agent_a,
            "agent_b": self.signature.agent_b,
            "signature": self.signature.short(),
            "witnesses": self.size,
            "confirmed": self.confirmed_count,
            "variables": representative.variable_count,
            "inputs": representative.input_count,
            "original_variables": (minimization.original_variables
                                   if minimization else representative.variable_count),
            "shrink_ratio": minimization.shrink_ratio if minimization else 0.0,
        }

    def to_dict(self) -> Dict[str, object]:
        row = self.summary_row()
        row["signature_detail"] = self.signature.to_obj()
        row["representative"] = self.representative.to_dict()
        return row

    def describe(self) -> str:
        representative = self.representative
        lines = [
            "cluster %s: %d witness(es), %d confirmed"
            % (self.signature.short(), self.size, self.confirmed_count),
            "  representative: " + representative.describe().replace("\n", "\n  "),
        ]
        return "\n".join(lines)


class TriageIndex:
    """Campaign-wide clustering of witnesses by signature.

    Pair cells run on a worker pool, but their witnesses ride back on the
    pair report and the campaign adds them here on its supervisor thread,
    one completed cell at a time.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._clusters: Dict[Tuple, WitnessCluster] = {}

    def add(self, witness: Witness) -> WitnessCluster:
        key = witness.signature.key()
        with self._lock:
            cluster = self._clusters.get(key)
            if cluster is None:
                cluster = WitnessCluster(signature=witness.signature)
                self._clusters[key] = cluster
            cluster.add(witness)
            return cluster

    def add_all(self, witnesses: Sequence[Witness]) -> None:
        for witness in witnesses:
            self.add(witness)

    def clusters(self) -> List[WitnessCluster]:
        """Clusters sorted largest-first (ties broken by signature text)."""

        with self._lock:
            clusters = list(self._clusters.values())
        return sorted(clusters, key=lambda c: (-c.size, c.signature.short()))

    def report(self, triage_time: float = 0.0,
               skipped_pairs: Optional[List[Tuple[str, str, str, str]]] = None,
               ) -> "TriageReport":
        clusters = self.clusters()
        witnesses = [witness for cluster in clusters for witness in cluster.witnesses]
        minimizations = [w.minimization for w in witnesses if w.minimization is not None]
        return TriageReport(
            clusters=clusters,
            raw_witnesses=len(witnesses),
            confirmed_witnesses=sum(1 for w in witnesses if w.confirmed),
            minimization_replays=sum(m.replays for m in minimizations),
            mean_shrink_ratio=(sum(m.shrink_ratio for m in minimizations)
                               / len(minimizations) if minimizations else 0.0),
            skipped_pairs=list(skipped_pairs or []),
            triage_time=triage_time,
        )


@dataclass
class TriageReport:
    """Campaign-level triage summary: clusters, confirmation and shrink stats."""

    clusters: List[WitnessCluster]
    raw_witnesses: int
    confirmed_witnesses: int
    minimization_replays: int
    mean_shrink_ratio: float
    #: (test, agent_a, agent_b, reason) for pairs whose inconsistencies
    #: bypassed triage — e.g. an artifact-only agent that cannot be replayed,
    #: or replay disabled on the campaign.
    skipped_pairs: List[Tuple[str, str, str, str]] = field(default_factory=list)
    triage_time: float = 0.0

    @property
    def cluster_count(self) -> int:
        return len(self.clusters)

    @property
    def merged_cluster_count(self) -> int:
        """Clusters that absorbed more than one raw witness."""

        return sum(1 for cluster in self.clusters if cluster.size > 1)

    @property
    def unconfirmed_witnesses(self) -> int:
        return self.raw_witnesses - self.confirmed_witnesses

    @property
    def dedup_ratio(self) -> float:
        """Raw witnesses per cluster (>= 1; higher = more duplication removed)."""

        return self.raw_witnesses / self.cluster_count if self.clusters else 0.0

    def representatives(self) -> List[Witness]:
        return [cluster.representative for cluster in self.clusters]

    def to_dict(self) -> Dict[str, object]:
        return {
            "raw_witnesses": self.raw_witnesses,
            "confirmed_witnesses": self.confirmed_witnesses,
            "unconfirmed_witnesses": self.unconfirmed_witnesses,
            "clusters": self.cluster_count,
            "merged_clusters": self.merged_cluster_count,
            "dedup_ratio": self.dedup_ratio,
            "minimization_replays": self.minimization_replays,
            "mean_shrink_ratio": self.mean_shrink_ratio,
            "skipped_pairs": [list(pair) for pair in self.skipped_pairs],
            "triage_time": self.triage_time,
            "cluster_rows": [cluster.summary_row() for cluster in self.clusters],
        }

    def describe(self) -> str:
        lines = [
            "triage: %d raw witness(es) -> %d cluster(s) (%d merged >= 2), "
            "%d confirmed, %d unconfirmed"
            % (self.raw_witnesses, self.cluster_count, self.merged_cluster_count,
               self.confirmed_witnesses, self.unconfirmed_witnesses),
            "  minimization: %d replay(s), mean shrink %.0f%%"
            % (self.minimization_replays, 100.0 * self.mean_shrink_ratio),
        ]
        if self.skipped_pairs:
            lines.append("  skipped: %s"
                         % ", ".join("%s %s~%s (%s)" % pair
                                     for pair in self.skipped_pairs))
        if self.clusters:
            lines.append("  %-52s %5s %5s %9s %8s"
                         % ("SIGNATURE", "RAW", "CONF", "VARS", "SHRINK"))
            for cluster in self.clusters:
                row = cluster.summary_row()
                lines.append("  %-52s %5d %5d %4d<-%-4d %7.0f%%"
                             % (row["signature"][:52], row["witnesses"], row["confirmed"],
                                row["variables"], row["original_variables"],
                                100.0 * row["shrink_ratio"]))
        return "\n".join(lines)
