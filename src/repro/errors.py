"""Exception hierarchy shared across the repro packages.

Every error raised by this library derives from :class:`ReproError` so that
applications embedding the tooling can catch a single base class.  Errors are
grouped by subsystem (symbolic execution, protocol, agents, harness, core
pipeline) which keeps ``except`` clauses precise without forcing callers to
import deep modules.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


# ---------------------------------------------------------------------------
# Symbolic execution engine
# ---------------------------------------------------------------------------

class SymbexError(ReproError):
    """Base class for symbolic-execution related errors."""


class ExpressionError(SymbexError):
    """An expression was constructed or combined in an invalid way."""


class WidthMismatchError(ExpressionError):
    """Two bit-vector operands of different widths were combined."""


class ConcretizationError(SymbexError):
    """A symbolic value was used where a concrete value is required."""


class SolverError(SymbexError):
    """The constraint solver failed or was mis-used."""


class EngineError(SymbexError):
    """The path-exploration engine detected an internal inconsistency."""


class NoActiveEngineError(EngineError):
    """A symbolic boolean was branched on outside of an exploration context."""


class DecisionLimitExceeded(EngineError):
    """A single path hit the configured maximum number of symbolic branches."""


# ---------------------------------------------------------------------------
# OpenFlow protocol / packets
# ---------------------------------------------------------------------------

class ProtocolError(ReproError):
    """Base class for OpenFlow wire-format errors."""


class MessageParseError(ProtocolError):
    """A byte buffer could not be parsed as the expected OpenFlow message."""


class PacketError(ReproError):
    """Base class for data-plane packet construction/parsing errors."""


class PacketParseError(PacketError):
    """A byte buffer could not be parsed as the expected packet header."""


# ---------------------------------------------------------------------------
# Agents under test
# ---------------------------------------------------------------------------

class AgentError(ReproError):
    """Base class for errors raised *by* an agent implementation.

    Note: an *uncaught* exception escaping an agent handler is treated by the
    harness as an agent crash (an observable output), not as a harness error.
    """


class AgentCrash(AgentError):
    """Deliberate signal that the agent aborted (models a C-level crash)."""

    def __init__(self, reason: str = "agent aborted") -> None:
        super().__init__(reason)
        self.reason = reason


class AgentRegistrationError(AgentError):
    """An agent failed registration-time validation.

    Raised for metadata problems: an empty description, a duplicate name,
    or a missing ``handle_control_buffer``.
    """


class UnknownAgentError(AgentError, KeyError):
    """A name was looked up in the agent registry but nothing is registered.

    Subclasses :class:`KeyError` so pre-existing ``except KeyError`` call
    sites keep working; new code should catch :class:`AgentError` (or
    :class:`ReproError`) instead.
    """

    def __str__(self) -> str:  # KeyError repr()s its message; undo that.
        return self.args[0] if self.args else KeyError.__str__(self)


# ---------------------------------------------------------------------------
# Harness / core pipeline
# ---------------------------------------------------------------------------

class HarnessError(ReproError):
    """The test harness was driven incorrectly."""


class PipelineError(ReproError):
    """Base class for SOFT-pipeline (explore/group/crosscheck) errors."""


class CrosscheckError(PipelineError):
    """The inconsistency finder was invoked with incompatible inputs."""


class ArtifactError(PipelineError):
    """A saved Phase-1 artifact could not be parsed or fails validation."""


class CampaignError(PipelineError):
    """A campaign was configured inconsistently (agents, tests or pairs)."""


class CellTimeoutError(PipelineError):
    """A campaign cell (one Phase-1 unit or crosscheck pair) exceeded its
    wall-clock deadline and was abandoned by the supervisor."""


class WorkerCrashError(PipelineError):
    """A campaign worker died (killed process, broken pool, injected kill).

    Distinct from :class:`CellTimeoutError` and from an ordinary in-cell
    exception: the *executor*, not the cell's own code, failed.  Campaigns
    record cells that keep crashing as terminal state ``crashed``.
    """


class CheckpointError(PipelineError):
    """A campaign checkpoint could not be created, read or resumed from
    (unwritable directory, truncated journal, incompatible fingerprint)."""


class WitnessError(PipelineError):
    """A witness could not be built, minimized or round-tripped."""


class CorpusError(PipelineError):
    """A persistent witness corpus could not be read, written or replayed."""
