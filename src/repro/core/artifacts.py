"""Saved Phase-1 artifacts: the paper's vendor exchange format (§2.4).

A vendor runs Phase 1 (symbolic exploration) in-house, saves the resulting
:class:`~repro.core.explorer.AgentExplorationReport` to a JSON file, and ships
that file — path conditions plus normalized output traces, no source code —
to the crosschecking party.  The crosschecking party loads any number of such
artifacts into a :class:`~repro.core.campaign.Campaign` and runs Phase 2
without re-exploring anything.

File layout (compact JSON, one line)::

    {
      "format": "soft/exploration-artifact/v2",
      "agent": "...", "test": "...", "scale": "...", ...
      "terms": [ ["var", 16, "x"], ["const", 16, 3], ["cmp", "eq", 0, 1], ... ],
      "traces": [ [["ctrl_msg", ...], ...], ... ],
      "outcomes": [ {"path_id": 0, "constraints": [2, ...], "trace": 0, ...}, ... ]
    }

``terms`` lists each distinct expression node once, children before
parents, with each child given as the index of an earlier row; ``traces``
lists each distinct normalized output trace once.  An outcome refers to
both tables by index, so a term shared by thousands of path conditions is
written once (:mod:`repro.symbex.serialize`).
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence, Union

from repro.core.explorer import AgentExplorationReport
from repro.core.witness import Witness
from repro.errors import ArtifactError

__all__ = [
    "save_exploration_artifact",
    "load_exploration_artifact",
    "load_exploration_artifacts",
    "save_witness_bundle",
    "load_witness_bundle",
    "load_witness_bundles",
]

PathLike = Union[str, "os.PathLike[str]"]


def save_exploration_artifact(report: AgentExplorationReport,
                              path: PathLike) -> Dict[str, object]:
    """Write *report* to *path* as compact JSON; returns the serialized dict."""

    data = report.to_dict()
    try:
        with open(path, "w") as handle:
            # json.dumps without indent runs the C encoder; json.dump and
            # any indent= fall back to the pure-Python one.
            handle.write(json.dumps(data))
            handle.write("\n")
    except OSError as exc:
        raise ArtifactError("cannot write artifact %s: %s" % (path, exc))
    return data


def load_exploration_artifact(path: PathLike) -> AgentExplorationReport:
    """Load one Phase-1 artifact saved by :func:`save_exploration_artifact`."""

    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ArtifactError("cannot read artifact %s: %s" % (path, exc))
    except ValueError as exc:
        raise ArtifactError("artifact %s is not valid JSON: %s" % (path, exc))
    return AgentExplorationReport.from_dict(data)


def load_exploration_artifacts(paths: Sequence[PathLike]) -> List[AgentExplorationReport]:
    """Load several artifacts, preserving order."""

    return [load_exploration_artifact(path) for path in paths]


def save_witness_bundle(witness: Witness, path: PathLike,
                        indent: int = 2) -> Dict[str, object]:
    """Write one witness bundle (triage output) to *path* as JSON.

    The bundle is the persistent-corpus exchange format: concrete inputs,
    both expected replay traces, the divergence signature and the solver
    model, replayable later without any solver involvement.
    """

    data = witness.to_dict()
    try:
        with open(path, "w") as handle:
            json.dump(data, handle, indent=indent)
            handle.write("\n")
    except OSError as exc:
        raise ArtifactError("cannot write witness bundle %s: %s" % (path, exc))
    return data


def load_witness_bundle(path: PathLike) -> Witness:
    """Load one witness bundle saved by :func:`save_witness_bundle`."""

    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ArtifactError("cannot read witness bundle %s: %s" % (path, exc))
    except ValueError as exc:
        raise ArtifactError("witness bundle %s is not valid JSON: %s" % (path, exc))
    return Witness.from_dict(data)


def load_witness_bundles(paths: Sequence[PathLike]) -> List[Witness]:
    """Load several witness bundles, preserving order."""

    return [load_witness_bundle(path) for path in paths]
