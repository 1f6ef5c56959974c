"""The agent registry.

Agent implementations register themselves with the :func:`register_agent`
class decorator, carrying per-agent metadata (a one-line description, the
modelled vendor/code base, free-form tags).  Everything else in the code base
— the CLI, the campaign runner, the baselines — resolves agents through this
registry, so adding a fourth implementation is a single decorated class with
no central list to edit.

``AGENT_REGISTRY`` (name -> agent class) is kept as the backward-compatible
view the pre-registry code exposed; it is the *live* dict, updated as
decorators run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Type

from repro.errors import AgentRegistrationError, UnknownAgentError

__all__ = [
    "AgentInfo",
    "AGENT_REGISTRY",
    "register_agent",
    "agent_registry",
    "agent_info",
    "registered_agent_names",
    "make_agent",
    "first_doc_line",
]


def first_doc_line(obj: object) -> str:
    """First non-empty docstring line of *obj*, or ``""``.

    Safe on classes with empty or missing docstrings (a plain
    ``doc.strip().splitlines()[0]`` raises ``IndexError`` on ``""``).
    """

    doc = getattr(obj, "__doc__", None) or ""
    for line in doc.strip().splitlines():
        line = line.strip()
        if line:
            return line
    return ""


@dataclass(frozen=True)
class AgentInfo:
    """Registration record of one agent implementation."""

    name: str
    factory: Callable[..., object]
    description: str = ""
    vendor: str = ""
    tags: Tuple[str, ...] = ()


#: Live name -> agent class mapping (the historical public view).
AGENT_REGISTRY: Dict[str, Type] = {}

_INFO: Dict[str, AgentInfo] = {}


def register_agent(name: Optional[str] = None, *, description: Optional[str] = None,
                   vendor: str = "", tags: Tuple[str, ...] = (),
                   replace: bool = False,
                   validate: bool = True) -> Callable[[Type], Type]:
    """Class decorator registering an agent implementation.

    ``name`` defaults to the class's ``NAME`` attribute; ``description``
    defaults to the first docstring line.  Names are unique: re-registering
    an existing name is rejected unless ``replace=True`` (the knob tests use
    to install instrumented stand-ins).

    With ``validate=True`` (the default) the registration is checked: the
    description must be non-empty and the class must define
    ``handle_control_buffer``.  ``validate=False`` is the escape hatch for
    deliberately degenerate test stubs.  The symbex-compatibility lint is
    not run here: ``soft list-agents`` and ``soft lint`` run it on demand.
    """

    def decorate(cls: Type) -> Type:
        agent_name = name or getattr(cls, "NAME", None)
        if not agent_name:
            raise AgentRegistrationError(
                "agent class %r has no NAME attribute and no explicit "
                "register_agent(name=...)" % (cls,))
        resolved_description = (description if description is not None
                                else first_doc_line(cls))
        if validate:
            if agent_name in _INFO and not replace:
                raise AgentRegistrationError(
                    "agent %r is already registered (pass replace=True to "
                    "override it)" % agent_name)
            if not resolved_description.strip():
                raise AgentRegistrationError(
                    "agent %r has no description: pass description=... or "
                    "give the class a docstring" % agent_name)
            if not callable(getattr(cls, "handle_control_buffer", None)):
                raise AgentRegistrationError(
                    "agent %r does not define handle_control_buffer(); the "
                    "harness cannot drive it" % agent_name)
        info = AgentInfo(
            name=agent_name,
            factory=cls,
            description=resolved_description,
            vendor=vendor,
            tags=tuple(tags),
        )
        _INFO[agent_name] = info
        AGENT_REGISTRY[agent_name] = cls
        return cls

    return decorate


def agent_registry() -> Dict[str, AgentInfo]:
    """A snapshot of the registry metadata, keyed by agent name."""

    return dict(_INFO)


def agent_info(name: str) -> AgentInfo:
    """Metadata for one registered agent."""

    try:
        return _INFO[name]
    except KeyError:
        raise UnknownAgentError("unknown agent %r; known agents: %s"
                                % (name, sorted(_INFO)))


def registered_agent_names() -> List[str]:
    """Sorted names of every registered agent."""

    return sorted(_INFO)


def make_agent(name: str, **kwargs):
    """Instantiate a registered agent by name (``reference``/``ovs``/``modified``)."""

    try:
        info = _INFO[name]
    except KeyError:
        raise UnknownAgentError("unknown agent %r; known agents: %s"
                                % (name, sorted(_INFO)))
    return info.factory(**kwargs)
