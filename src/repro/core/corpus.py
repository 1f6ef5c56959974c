"""A persistent regression corpus of replay-confirmed witnesses.

Every confirmed, minimized witness a campaign produces can be serialized as a
*witness bundle* (JSON: concrete inputs, both expected traces, the divergence
signature, the solver model for provenance) into a corpus directory.  The
corpus then acts as a fast, solver-free regression suite: ``soft corpus run``
replays every stored bundle against the *current* agent implementations with
the concrete harness only — no symbolic exploration, no SAT queries — and
fails when a stored witness no longer diverges (a behavioural change, fixed
or regressed, that the full pipeline would have to re-derive from scratch).

Bundles are deduplicated by divergence signature: one file per signature,
named after its hash, so repeated campaigns keep the corpus stable and
re-adding a known witness is a no-op unless it is strictly smaller.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.agents.registry import AGENT_REGISTRY
from repro.core.testcase import AgentFactory, replay_testcase
from repro.core.witness import Witness, WitnessCluster
from repro.errors import CorpusError, ReproError
from repro.testing.faults import fault_point

__all__ = ["WitnessCorpus", "CorpusRunReport", "CorpusEntryResult"]


def _signature_digest(witness: Witness) -> str:
    """Stable filename hash of a witness's divergence signature."""

    return hashlib.sha1(repr(witness.signature.key()).encode("utf-8")).hexdigest()[:12]


@dataclass
class CorpusEntryResult:
    """Outcome of replaying one stored witness against the current agents."""

    path: str
    test_key: str
    agent_a: str
    agent_b: str
    #: ``confirmed`` — diverged with the stored signature;
    #: ``trace-changed`` — same signature but the traces themselves moved;
    #: ``signature-drift`` — still diverging, but elsewhere / differently;
    #: ``stale`` — no divergence any more (the regression-suite failure);
    #: ``corrupt`` — the bundle file is truncated or not a witness bundle
    #: (skipped and recorded; one bad file never aborts the whole run);
    #: ``error`` — the bundle loaded but could not be replayed.
    status: str
    detail: str = ""
    wall_time: float = 0.0

    @property
    def diverged(self) -> bool:
        return self.status in ("confirmed", "trace-changed", "signature-drift")

    def summary_row(self) -> Dict[str, object]:
        return {
            "file": os.path.basename(self.path),
            "test": self.test_key,
            "agent_a": self.agent_a,
            "agent_b": self.agent_b,
            "status": self.status,
            "detail": self.detail,
        }


@dataclass
class CorpusRunReport:
    """Result of replaying a whole corpus: per-entry statuses plus throughput."""

    directory: str
    entries: List[CorpusEntryResult] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def replayed(self) -> int:
        return len(self.entries)

    @property
    def ok(self) -> bool:
        """True when every stored witness still replay-diverges."""

        return all(entry.diverged for entry in self.entries)

    @property
    def stale(self) -> List[CorpusEntryResult]:
        return [entry for entry in self.entries if entry.status == "stale"]

    @property
    def errors(self) -> List[CorpusEntryResult]:
        return [entry for entry in self.entries if entry.status == "error"]

    @property
    def corrupt(self) -> List[CorpusEntryResult]:
        return [entry for entry in self.entries if entry.status == "corrupt"]

    @property
    def witnesses_per_sec(self) -> float:
        return self.replayed / self.wall_time if self.wall_time > 0 else 0.0

    def count(self, status: str) -> int:
        return sum(1 for entry in self.entries if entry.status == status)

    def to_dict(self) -> Dict[str, object]:
        return {
            "format": "soft/corpus-run/v1",
            "directory": self.directory,
            "replayed": self.replayed,
            "ok": self.ok,
            "confirmed": self.count("confirmed"),
            "trace_changed": self.count("trace-changed"),
            "signature_drift": self.count("signature-drift"),
            "stale": self.count("stale"),
            "corrupt": self.count("corrupt"),
            "errors": self.count("error"),
            "wall_time": self.wall_time,
            "witnesses_per_sec": self.witnesses_per_sec,
            #: By construction: corpus replay never touches the solver stack.
            "solver_queries": 0,
            "entries": [entry.summary_row() for entry in self.entries],
        }

    def describe(self) -> str:
        lines = [
            "corpus run: %d witness(es) replayed from %s in %.2fs (%.0f/s), "
            "0 solver queries"
            % (self.replayed, self.directory, self.wall_time, self.witnesses_per_sec),
        ]
        for entry in self.entries:
            marker = "ok " if entry.diverged else "FAIL"
            lines.append("  %s %-14s %s~%s %-16s %s"
                         % (marker, entry.test_key, entry.agent_a, entry.agent_b,
                            entry.status, entry.detail))
        if not self.ok:
            parts = []
            if self.stale:
                parts.append("%d stored witness(es) no longer diverge" % len(self.stale))
            if self.corrupt:
                parts.append("%d bundle(s) corrupt/truncated (skipped)"
                             % len(self.corrupt))
            if self.errors:
                parts.append("%d bundle(s) could not be replayed" % len(self.errors))
            lines.append("  FAIL: " + ", ".join(parts))
        return "\n".join(lines)


class WitnessCorpus:
    """A directory of witness bundles usable as a solver-free regression suite."""

    BUNDLE_SUFFIX = ".witness.json"

    def __init__(self, directory: str, create: bool = True) -> None:
        self.directory = str(directory)
        # Parsed-bundle cache keyed by path; entries are validated against
        # the file's (mtime, size) stamp so an on-disk change (re-add, manual
        # edit) is picked up and a stale parse is never replayed.  Replay
        # only *reads* witnesses, so sharing the parsed object across rounds
        # is safe — repeated ``run()`` calls skip JSON parsing entirely.
        self._bundle_cache: Dict[str, Tuple[Tuple[float, int], Witness]] = {}
        if create:
            try:
                os.makedirs(self.directory, exist_ok=True)
            except OSError as exc:
                raise CorpusError("cannot create corpus directory %s: %s"
                                  % (self.directory, exc))

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def path_for(self, witness: Witness) -> str:
        name = "%s-%s-vs-%s-%s%s" % (witness.test_key, witness.agent_a,
                                     witness.agent_b, _signature_digest(witness),
                                     self.BUNDLE_SUFFIX)
        return os.path.join(self.directory, name)

    def paths(self) -> List[str]:
        """Sorted bundle paths currently stored in the corpus directory."""

        try:
            names = sorted(name for name in os.listdir(self.directory)
                           if name.endswith(self.BUNDLE_SUFFIX))
        except OSError as exc:
            raise CorpusError("cannot list corpus directory %s: %s"
                              % (self.directory, exc))
        return [os.path.join(self.directory, name) for name in names]

    def __len__(self) -> int:
        return len(self.paths())

    def add(self, witness: Witness, overwrite: bool = False) -> Tuple[str, bool]:
        """Store one witness bundle; returns (path, whether a file was written).

        One bundle is kept per divergence signature.  An existing bundle is
        only replaced when *overwrite* is set or the new witness is strictly
        smaller (so repeated campaigns monotonically improve the corpus).
        """

        from repro.core.artifacts import save_witness_bundle

        path = self.path_for(witness)
        if os.path.exists(path) and not overwrite:
            try:
                existing = self._load_bundle(path)
            except (ReproError, ValueError, KeyError, TypeError):
                existing = None  # unreadable bundle: replace it
            if existing is not None and existing.size_key() <= witness.size_key():
                return path, False
        save_witness_bundle(witness, path)
        if fault_point("corpus.save", path) == "corrupt":
            # Injected fault: die mid-write, leaving a truncated bundle.
            with open(path, "w") as handle:
                handle.write('{"format": "soft/witness-bundle/v1", "tr')
            self._bundle_cache.pop(path, None)
        return path, True

    def add_clusters(self, clusters: List[WitnessCluster],
                     confirmed_only: bool = True) -> int:
        """Store each cluster's minimized representative; returns files written."""

        written = 0
        for cluster in clusters:
            representative = cluster.representative
            if confirmed_only and not representative.confirmed:
                continue
            _, added = self.add(representative)
            written += 1 if added else 0
        return written

    def _load_bundle(self, path: str) -> Witness:
        """Load one bundle through the (mtime, size)-validated cache."""

        from repro.core.artifacts import load_witness_bundle

        fault_point("corpus.load", path)
        try:
            stat = os.stat(path)
            stamp: Optional[Tuple[float, int]] = (stat.st_mtime, stat.st_size)
        except OSError:
            stamp = None
        if stamp is not None:
            cached = self._bundle_cache.get(path)
            if cached is not None and cached[0] == stamp:
                return cached[1]
        witness = load_witness_bundle(path)
        if stamp is not None:
            self._bundle_cache[path] = (stamp, witness)
        return witness

    def load(self) -> List[Witness]:
        """Load every stored bundle (sorted by filename for determinism)."""

        return [self._load_bundle(path) for path in self.paths()]

    # ------------------------------------------------------------------
    # Solver-free regression replay
    # ------------------------------------------------------------------

    def run(self, agent_factory: Optional[AgentFactory] = None) -> CorpusRunReport:
        """Replay every stored witness against the current agents.

        Fully concrete: each bundle's materialized inputs are fed to fresh
        agent instances through the concrete harness and the traces compared.
        No symbolic exploration and no solver query is ever issued — the
        corpus is the fast regression path.
        """

        report = CorpusRunReport(directory=self.directory)
        started = time.perf_counter()
        for path in self.paths():
            report.entries.append(self._run_one(path, agent_factory))
        report.wall_time = time.perf_counter() - started
        return report

    def _run_one(self, path: str,
                 agent_factory: Optional[AgentFactory]) -> CorpusEntryResult:
        entry_started = time.perf_counter()
        try:
            witness = self._load_bundle(path)
        except (ReproError, ValueError, KeyError, TypeError) as exc:
            # A truncated or garbage file is recorded and skipped; the rest
            # of the corpus still replays (the run still reports not-ok).
            return CorpusEntryResult(path=path, test_key="?", agent_a="?", agent_b="?",
                                     status="corrupt",
                                     detail="corrupt bundle: %s" % exc)
        result = CorpusEntryResult(path=path, test_key=witness.test_key,
                                   agent_a=witness.agent_a, agent_b=witness.agent_b,
                                   status="error")
        if agent_factory is None:
            missing = [name for name in (witness.agent_a, witness.agent_b)
                       if name not in AGENT_REGISTRY]
            if missing:
                result.detail = "agent(s) not registered: %s" % ", ".join(missing)
                result.wall_time = time.perf_counter() - entry_started
                return result
        try:
            replay = replay_testcase(witness.testcase, witness.agent_a, witness.agent_b,
                                     agent_factory=agent_factory)
        # soft-lint: disable=broad-except -- replay executes arbitrary agent code; any crash is this entry's result, not ours
        except Exception as exc:
            result.detail = "replay failed: %s" % exc
            result.wall_time = time.perf_counter() - entry_started
            return result

        diff = replay.diff()
        if not diff.diverged:
            result.status = "stale"
            result.detail = "replay no longer diverges"
        elif not witness.signature.matches_diff(diff):
            result.status = "signature-drift"
            result.detail = diff.describe()
        elif (replay.run_a.trace != witness.replay.run_a.trace
              or replay.run_b.trace != witness.replay.run_b.trace):
            result.status = "trace-changed"
            result.detail = "divergence preserved but traces moved"
        else:
            result.status = "confirmed"
            result.detail = witness.signature.short()
        result.wall_time = time.perf_counter() - entry_started
        return result
