"""Campaign checkpoints: a resumable on-disk journal of terminal cells.

A checkpointed campaign appends one JSONL record to ``jobs.jsonl`` every
time a cell (Phase-1 unit or crosscheck pair) reaches a terminal
state, alongside the cell's payload when it succeeded:

* ``meta.json`` — the format tag plus a *fingerprint* of the campaign
  configuration: tests, agents, pairs, and the Phase-1 exploration limits
  that decide which paths a restored cell holds (the ``EngineConfig``
  budgets).  Resuming into a differently-configured campaign is refused
  loudly rather than silently mixing incompatible cells.
* ``jobs.jsonl`` — append-only journal, one record per terminal job:
  ``{"cell": [...], "state": ..., "attempts": ..., "error": ...}``.
  Last record per cell wins, so a re-run of a previously failed cell
  simply appends its new outcome.  A truncated final line (the process
  died mid-append) is tolerated and ignored.
* ``artifacts/`` — one Phase-1 exploration artifact per ``ok`` phase-1
  cell, in the standard vendor-exchange format
  (:mod:`repro.core.artifacts`), so checkpoints double as artifact dirs.
* ``pairs/`` — one payload per ``ok`` crosscheck pair: everything the
  campaign report needs, without re-running Phase 2.  It holds the
  crosscheck counts, each inconsistency's traces and solver model, and the
  pair's witnesses.  No condition is written: an inconsistency's condition
  is the conjunction of its two output groups' conditions, which the
  restored Phase-1 cells already hold, so :meth:`CampaignCheckpoint.load_pair`
  rebuilds it and hands it back to the witness at the same index.

Resume semantics: only cells whose *last* recorded state is ``ok`` are
skipped — failed/timed-out/crashed cells get a fresh retry budget on
resume (the whole point of resuming is usually that the environmental
cause of the failure is gone).
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import asdict, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.artifacts import load_exploration_artifact, save_exploration_artifact
from repro.core.crosscheck import CrosscheckReport, Inconsistency
from repro.core.explorer import AgentExplorationReport
from repro.core.soft import SoftReport
from repro.core.tests_catalog import TestSpec
from repro.core.trace import OutputTrace
from repro.core.witness import Witness
from repro.errors import ArtifactError, CheckpointError, ReproError
from repro.symbex.engine import EngineConfig
from repro.symbex.expr import bool_and

__all__ = ["CampaignCheckpoint", "CHECKPOINT_FORMAT", "PAIR_CELL_FORMAT"]

#: v2: phase-1 payloads are term-table exploration artifacts, so an older
#: checkpoint is refused when it is opened rather than cell by cell.
#: v3: the fingerprint has no ``hybrid`` key (there is one campaign mode),
#: so a v2 directory is refused by format, not as a fingerprint mismatch.
#: v4: the fingerprint records the Phase-1 settings that decide which paths
#: a restored cell holds (``engine_config``, ``with_coverage``).
#: v5: campaigns explore with the default settings only, so the fingerprint
#: drops ``with_coverage`` and pair payloads drop ``truncated``.
#: v6: pair payloads are ``soft/pair-cell/v2``.
#: v7: the fingerprint records the Phase-2 settings that decide what a
#: restored pair holds (``replay_testcases``, ``minimize``,
#: ``minimize_budget``).
CHECKPOINT_FORMAT = "soft/campaign-checkpoint/v7"
#: v2: no conditions and no ``replays_diverged``; a pair's witnesses are its
#: replay record.
PAIR_CELL_FORMAT = "soft/pair-cell/v2"

Cell = Tuple[str, ...]


def _slug(text: str) -> str:
    """Filesystem-safe rendering of one cell-key component."""

    return re.sub(r"[^A-Za-z0-9._-]+", "_", text) or "_"


class CampaignCheckpoint:
    """One checkpoint directory: journal, meta fingerprint and payloads."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self._journal = os.path.join(directory, "jobs.jsonl")
        self._meta = os.path.join(directory, "meta.json")

    # ------------------------------------------------------------------
    # Opening / fingerprinting
    # ------------------------------------------------------------------

    def open(self, fingerprint: Dict[str, object], resume: bool) -> None:
        """Prepare the directory for a run; validate meta and resume intent.

        A fresh (non-resume) run into a directory that already holds
        journal records is refused — overwriting a half-finished campaign
        silently is exactly the data loss checkpoints exist to prevent.
        """

        try:
            os.makedirs(self.directory, exist_ok=True)
            os.makedirs(os.path.join(self.directory, "artifacts"), exist_ok=True)
            os.makedirs(os.path.join(self.directory, "pairs"), exist_ok=True)
        except OSError as exc:
            raise CheckpointError("cannot create checkpoint directory %s: %s"
                                  % (self.directory, exc))
        existing = self._load_meta()
        has_records = bool(self.records())
        if resume:
            if existing is None:
                if has_records:
                    raise CheckpointError(
                        "checkpoint %s has journal records but no meta.json; "
                        "refusing to resume from a corrupt checkpoint"
                        % self.directory)
                # Resuming into an empty directory degenerates to a fresh run.
            elif existing.get("fingerprint") != fingerprint:
                raise CheckpointError(
                    "checkpoint %s was written by a differently-configured "
                    "campaign and cannot be resumed into this one\n"
                    "  checkpoint: %s\n  this run:   %s"
                    % (self.directory,
                       json.dumps(existing.get("fingerprint"), sort_keys=True),
                       json.dumps(fingerprint, sort_keys=True)))
        elif has_records:
            raise CheckpointError(
                "checkpoint %s already contains journal records; pass "
                "resume=True (soft campaign --resume) to continue it, or "
                "point --checkpoint at a fresh directory" % self.directory)
        try:
            with open(self._meta, "w") as handle:
                json.dump({"format": CHECKPOINT_FORMAT,
                           "fingerprint": fingerprint}, handle, indent=2)
                handle.write("\n")
        except OSError as exc:
            raise CheckpointError("cannot write checkpoint meta %s: %s"
                                  % (self._meta, exc))

    def _load_meta(self) -> Optional[Dict[str, object]]:
        if not os.path.exists(self._meta):
            return None
        try:
            with open(self._meta) as handle:
                data = json.load(handle)
        except (OSError, ValueError) as exc:
            raise CheckpointError("cannot read checkpoint meta %s: %s"
                                  % (self._meta, exc))
        if data.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(
                "unsupported checkpoint format %r in %s (expected %r)"
                % (data.get("format"), self._meta, CHECKPOINT_FORMAT))
        return data

    @staticmethod
    def fingerprint_for(specs: Sequence[TestSpec], agents: Sequence[str],
                        pairs: Sequence[Tuple[str, str]], replay_testcases: bool,
                        minimize: bool, minimize_budget: int) -> Dict[str, object]:
        """The campaign fingerprint recorded in ``meta.json``.

        Besides the campaign's shape it holds the exploration limits Phase 1
        ran under and the Phase-2 settings that decide a pair's witnesses: a
        checkpoint whose explorations were truncated by other
        ``EngineConfig`` budgets, or whose pairs were not replayed or
        minimized the same way, must not resume into this run.
        """

        return {
            "tests": [[spec.key, spec.scale] for spec in specs],
            "agents": sorted(agents),
            "pairs": sorted([sorted(pair) for pair in pairs]),
            "engine_config": asdict(EngineConfig()),
            "replay_testcases": replay_testcases,
            "minimize": minimize,
            "minimize_budget": minimize_budget,
        }

    # ------------------------------------------------------------------
    # Journal
    # ------------------------------------------------------------------

    def records(self) -> List[Dict[str, object]]:
        """Every journal record, oldest first; a truncated tail is dropped."""

        if not os.path.exists(self._journal):
            return []
        try:
            with open(self._journal) as handle:
                lines = handle.read().splitlines()
        except OSError as exc:
            raise CheckpointError("cannot read checkpoint journal %s: %s"
                                  % (self._journal, exc))
        records: List[Dict[str, object]] = []
        nonempty = [line for line in lines if line.strip()]
        for index, line in enumerate(nonempty):
            try:
                record = json.loads(line)
            except ValueError:
                if index == len(nonempty) - 1:
                    # The process died mid-append; the cell will simply re-run.
                    continue
                raise CheckpointError(
                    "checkpoint journal %s line %d is not valid JSON"
                    % (self._journal, index + 1))
            if isinstance(record, dict):
                records.append(record)
        return records

    def terminal_cells(self) -> Dict[Cell, Dict[str, object]]:
        """Last recorded state per cell (last record wins)."""

        cells: Dict[Cell, Dict[str, object]] = {}
        for record in self.records():
            cell = record.get("cell")
            if isinstance(cell, list) and cell:
                cells[tuple(str(part) for part in cell)] = record
        return cells

    def completed_cells(self) -> Dict[Cell, Dict[str, object]]:
        """Cells whose last recorded state is ``ok`` — the ones resume skips."""

        return {cell: record for cell, record in self.terminal_cells().items()
                if record.get("state") == "ok"}

    def append(self, record: Dict[str, object]) -> None:
        try:
            with open(self._journal, "a") as handle:
                handle.write(json.dumps(record, sort_keys=True))
                handle.write("\n")
                handle.flush()
        except OSError as exc:
            raise CheckpointError("cannot append to checkpoint journal %s: %s"
                                  % (self._journal, exc))

    # ------------------------------------------------------------------
    # Cell keys and payload paths
    # ------------------------------------------------------------------

    @staticmethod
    def phase1_cell(agent: str, spec: TestSpec) -> Cell:
        return ("phase1", agent, spec.key, spec.scale)

    @staticmethod
    def pair_cell(spec: TestSpec, agent_a: str, agent_b: str) -> Cell:
        return ("pair", spec.key, spec.scale, agent_a, agent_b)

    def _phase1_path(self, agent: str, spec: TestSpec) -> str:
        return os.path.join(self.directory, "artifacts", "phase1-%s-%s-%s.json"
                            % (_slug(agent), _slug(spec.key), _slug(spec.scale)))

    def _pair_path(self, spec: TestSpec, agent_a: str, agent_b: str) -> str:
        return os.path.join(self.directory, "pairs", "pair-%s-%s-%s-vs-%s.json"
                            % (_slug(spec.key), _slug(spec.scale),
                               _slug(agent_a), _slug(agent_b)))

    # ------------------------------------------------------------------
    # Phase-1 payloads (standard exploration artifacts)
    # ------------------------------------------------------------------

    def save_phase1(self, report: AgentExplorationReport, spec: TestSpec) -> None:
        try:
            save_exploration_artifact(report, self._phase1_path(report.agent_name, spec))
        except ArtifactError as exc:
            raise CheckpointError(str(exc))

    def load_phase1(self, agent: str, spec: TestSpec) -> AgentExplorationReport:
        try:
            return load_exploration_artifact(self._phase1_path(agent, spec))
        except (ArtifactError, ReproError) as exc:
            raise CheckpointError(
                "checkpointed phase-1 artifact for %s on %s is unusable: %s"
                % (agent, spec.key, exc))

    def has_phase1(self, agent: str, spec: TestSpec) -> bool:
        return os.path.exists(self._phase1_path(agent, spec))

    # ------------------------------------------------------------------
    # Pair payloads
    # ------------------------------------------------------------------

    def save_pair(self, spec: TestSpec, report: SoftReport) -> None:
        crosscheck = report.crosscheck
        payload = {
            "format": PAIR_CELL_FORMAT,
            "test": spec.key,
            "scale": spec.scale,
            "agent_a": report.agent_a,
            "agent_b": report.agent_b,
            "crosscheck": {
                "queries": crosscheck.queries,
                "unsat_pairs": crosscheck.unsat_pairs,
                "unknown_pairs": crosscheck.unknown_pairs,
                "checking_time": crosscheck.checking_time,
                "identical_output_pairs": crosscheck.identical_output_pairs,
                "solver_stats": _json_safe(crosscheck.solver_stats),
                "inconsistencies": [
                    {
                        "trace_a": inc.trace_a.to_obj(),
                        "trace_b": inc.trace_b.to_obj(),
                        "example": {str(k): int(v) for k, v in inc.example.items()},
                        "solver_time": inc.solver_time,
                    }
                    for inc in crosscheck.inconsistencies
                ],
            },
            "witnesses": [replace(witness, _condition=None, condition_obj=None).to_dict()
                          for witness in report.witnesses],
            "total_time": report.total_time,
        }
        path = self._pair_path(spec, report.agent_a, report.agent_b)
        try:
            with open(path, "w") as handle:
                json.dump(payload, handle)
                handle.write("\n")
        except OSError as exc:
            raise CheckpointError("cannot write pair payload %s: %s" % (path, exc))

    def load_pair(self, spec: TestSpec, agent_a: str, agent_b: str,
                  entry_a, entry_b) -> SoftReport:
        """Rebuild one checkpointed pair report against cached explorations.

        *entry_a*/*entry_b* are the (restored) exploration-cache entries for
        the two agents; the pair payload only stores Phase-2 output.  Each
        inconsistency's condition is rebuilt from the two groups its traces
        name, and the witness at the same index gets it back.
        """

        path = self._pair_path(spec, agent_a, agent_b)
        try:
            with open(path) as handle:
                data = json.load(handle)
        except (OSError, ValueError) as exc:
            raise CheckpointError("cannot read pair payload %s: %s" % (path, exc))
        if data.get("format") != PAIR_CELL_FORMAT:
            raise CheckpointError("unsupported pair payload format %r in %s"
                                  % (data.get("format"), path))
        try:
            check = data["crosscheck"]
            inconsistencies: List[Inconsistency] = []
            for obj in check.get("inconsistencies", []):
                trace_a = OutputTrace.from_obj(obj["trace_a"])
                trace_b = OutputTrace.from_obj(obj["trace_b"])
                group_a = entry_a.grouped.group_for(trace_a)
                group_b = entry_b.grouped.group_for(trace_b)
                if group_a is None or group_b is None:
                    raise ValueError(
                        "inconsistency %d names a trace with no restored "
                        "output group" % len(inconsistencies))
                inconsistencies.append(Inconsistency(
                    agent_a=agent_a,
                    agent_b=agent_b,
                    trace_a=trace_a,
                    trace_b=trace_b,
                    condition=bool_and(group_a.condition, group_b.condition),
                    example={str(k): int(v) for k, v in obj.get("example", {}).items()},
                    solver_time=float(obj.get("solver_time", 0.0)),
                ))
            crosscheck = CrosscheckReport(
                agent_a=agent_a,
                agent_b=agent_b,
                test_key=spec.key,
                inconsistencies=inconsistencies,
                queries=int(check.get("queries", 0)),
                unsat_pairs=int(check.get("unsat_pairs", 0)),
                unknown_pairs=int(check.get("unknown_pairs", 0)),
                checking_time=float(check.get("checking_time", 0.0)),
                identical_output_pairs=int(check.get("identical_output_pairs", 0)),
                solver_stats=dict(check.get("solver_stats", {})),
            )
            witness_objs = data.get("witnesses", [])
            if witness_objs and len(witness_objs) != len(inconsistencies):
                raise ValueError("%d witness(es) for %d inconsistency(ies)"
                                 % (len(witness_objs), len(inconsistencies)))
            witnesses = [replace(Witness.from_dict(obj), _condition=inc.condition)
                         for obj, inc in zip(witness_objs, inconsistencies)]
        except (KeyError, TypeError, ValueError, ReproError) as exc:
            raise CheckpointError("malformed pair payload %s: %s" % (path, exc))
        return SoftReport(
            test_key=spec.key,
            agent_a=agent_a,
            agent_b=agent_b,
            exploration_a=entry_a.report,
            exploration_b=entry_b.report,
            grouped_a=entry_a.grouped,
            grouped_b=entry_b.grouped,
            crosscheck=crosscheck,
            witnesses=witnesses,
            total_time=float(data.get("total_time", 0.0)),
        )


def _json_safe(value):
    """Best-effort JSON projection of stats dicts (drops exotic values)."""

    try:
        json.dumps(value)
        return value
    except (TypeError, ValueError):
        pass
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return str(value)
