"""Decision maps: static branch, dispatch and constant extraction.

A *decision map* is the static complement of the dynamic
:class:`~repro.coverage.tracker.CoverageTracker`: it enumerates every branch
site an agent's handler code *could* take before a single path is explored.
Three artifacts come out of one AST walk per module:

* **Branch sites** — the lines carrying ``if``/``while``/ternary/``assert``
  conditions, comprehension filters and short-circuit operators.  The
  extraction is shared with the coverage tracker (its ``branch_lines`` is a
  thin wrapper over :func:`branch_sites_for_file`), so the static denominator
  of ``coverage_fraction`` and the tracker's dynamic branch points are drawn
  from the same definition and the dynamic set is a subset of the static one
  by construction.
* **Dispatch arms** — comparisons against ``OFPT_*`` message-type constants,
  i.e. the agent's control-message dispatch table.
* **Mined constants** — integer literals and named protocol constants that
  appear in comparisons.  A constant compared in a branch is exactly the
  value a random fuzzer is astronomically unlikely to draw (a 16-bit match
  is a 2^-16 lottery ticket), so the miner's output seeds the differential
  fuzzer's interesting-value pool.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import textwrap
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "BranchSite",
    "DispatchArm",
    "DecisionMap",
    "branch_sites_for_file",
    "branch_sites_in_tree",
    "build_decision_map",
    "decision_map_for_agent",
    "mine_constants_from",
    "module_files",
]

#: Module whose upper-case integer attributes name protocol constants.
CONSTANTS_MODULE = "repro.openflow.constants"

_named_constants_cache: Optional[Dict[str, int]] = None


def _named_constants() -> Dict[str, int]:
    """Name -> value for every integer constant of :data:`CONSTANTS_MODULE`."""

    global _named_constants_cache
    if _named_constants_cache is None:
        try:
            module = importlib.import_module(CONSTANTS_MODULE)
        except ImportError:
            _named_constants_cache = {}
        else:
            _named_constants_cache = {
                name: value for name, value in vars(module).items()
                if name.isupper() and isinstance(value, int)
                and not isinstance(value, bool)
            }
    return _named_constants_cache


@dataclass(frozen=True)
class BranchSite:
    """One statically known branch point: a (file, line) plus its shape."""

    path: str
    line: int
    #: "if" | "while" | "ifexp" | "assert" | "comprehension" | "boolop"
    kind: str
    #: Source text of the condition (best effort; "" when unavailable).
    condition: str = ""

    def key(self) -> Tuple[str, int]:
        return (self.path, self.line)

    def to_dict(self) -> Dict[str, object]:
        return {"path": self.path, "line": self.line, "kind": self.kind,
                "condition": self.condition}


@dataclass(frozen=True)
class DispatchArm:
    """One message-type dispatch comparison (``msg_type == OFPT_...``)."""

    path: str
    line: int
    constant: str
    value: int

    def to_dict(self) -> Dict[str, object]:
        return {"path": self.path, "line": self.line,
                "constant": self.constant, "value": self.value}


@dataclass
class DecisionMap:
    """Everything statically known about the decisions of a set of modules."""

    packages: Tuple[str, ...] = ()
    sites: List[BranchSite] = field(default_factory=list)
    dispatch_arms: List[DispatchArm] = field(default_factory=list)
    #: Mined constant value -> sorted labels (constant names or "literal").
    constants: Dict[int, Tuple[str, ...]] = field(default_factory=dict)

    @property
    def site_count(self) -> int:
        """Distinct (file, line) branch sites — the static coverage denominator."""

        return len(self.site_keys())

    def site_keys(self) -> Set[Tuple[str, int]]:
        return {site.key() for site in self.sites}

    def files(self) -> List[str]:
        return sorted({site.path for site in self.sites})

    def interesting_values(self) -> List[int]:
        """Sorted mined constants, ready for a fuzzer's value pool."""

        return sorted(self.constants)

    def uncovered(self, executed: Dict[str, Set[int]]) -> Set[Tuple[str, int]]:
        """Static sites whose line never appears in *executed* (path -> lines)."""

        return {(path, line) for path, line in self.site_keys()
                if line not in executed.get(path, set())}

    def to_dict(self) -> Dict[str, object]:
        return {
            "format": "soft/decision-map/v1",
            "packages": list(self.packages),
            "site_count": self.site_count,
            "sites": [site.to_dict() for site in self.sites],
            "dispatch_arms": [arm.to_dict() for arm in self.dispatch_arms],
            "constants": {str(value): list(labels)
                          for value, labels in sorted(self.constants.items())},
        }


def _unparse(node: ast.AST) -> str:
    unparse = getattr(ast, "unparse", None)
    if unparse is None:  # pragma: no cover - Python < 3.9
        return ""
    return str(unparse(node))


def branch_sites_in_tree(tree: ast.AST, path: str) -> List[BranchSite]:
    """Every branch site of a parsed module.

    The node kinds here MUST stay in lockstep with what the coverage
    tracker's arc accounting treats as a branch line — both sides now call
    this one function, which is the point.
    """

    sites: List[BranchSite] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.If):
            sites.append(BranchSite(path, node.lineno, "if", _unparse(node.test)))
        elif isinstance(node, ast.While):
            sites.append(BranchSite(path, node.lineno, "while", _unparse(node.test)))
        elif isinstance(node, ast.IfExp):
            sites.append(BranchSite(path, node.lineno, "ifexp", _unparse(node.test)))
        elif isinstance(node, ast.Assert):
            sites.append(BranchSite(path, node.lineno, "assert", _unparse(node.test)))
        elif isinstance(node, ast.comprehension):
            for condition in node.ifs:
                sites.append(BranchSite(path, condition.lineno, "comprehension",
                                        _unparse(condition)))
        elif isinstance(node, ast.BoolOp):
            sites.append(BranchSite(path, node.lineno, "boolop", _unparse(node)))
    return sites


def branch_sites_for_file(filename: str) -> List[BranchSite]:
    """Parse *filename* and extract its branch sites."""

    with open(filename, "r", encoding="utf-8") as handle:
        source = handle.read()
    return branch_sites_in_tree(ast.parse(source, filename=filename), filename)


def _constant_label(node: ast.expr) -> Optional[str]:
    """The constant name an expression references, if it looks like one."""

    if isinstance(node, ast.Attribute) and node.attr.isupper():
        return node.attr
    if isinstance(node, ast.Name) and node.id.isupper():
        return node.id
    return None


def _compares_in_tree(tree: ast.AST, path: str,
                      ) -> Tuple[List[DispatchArm], Dict[int, Set[str]]]:
    """Dispatch arms plus mined constants from every comparison in *tree*."""

    named = _named_constants()
    arms: List[DispatchArm] = []
    constants: Dict[int, Set[str]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        for operand in [node.left] + list(node.comparators):
            if (isinstance(operand, ast.Constant)
                    and isinstance(operand.value, int)
                    and not isinstance(operand.value, bool)):
                constants.setdefault(operand.value, set()).add("literal")
                continue
            label = _constant_label(operand)
            if label is not None and label in named:
                value = named[label]
                constants.setdefault(value, set()).add(label)
                if label.startswith("OFPT_"):
                    arms.append(DispatchArm(path, node.lineno, label, value))
    return arms, constants


def module_files(package_names: Iterable[str]) -> Dict[str, str]:
    """Module name -> source file for every module under the given packages.

    Resolution is spec-based (no module is imported), so the map can be
    built for packages whose import would have side effects.
    """

    files: Dict[str, str] = {}
    for package_name in package_names:
        try:
            spec = importlib.util.find_spec(package_name)
        except (ImportError, ValueError):
            continue
        if spec is None:
            continue
        if spec.origin and spec.origin.endswith(".py"):
            files[package_name] = spec.origin
        search = spec.submodule_search_locations
        if not search:
            continue
        for module_info in pkgutil.walk_packages(list(search),
                                                 prefix=package_name + "."):
            try:
                sub = importlib.util.find_spec(module_info.name)
            except (ImportError, ValueError):
                continue
            if sub is not None and sub.origin and sub.origin.endswith(".py"):
                files[module_info.name] = sub.origin
    return files


def build_decision_map(package_names: Sequence[str]) -> DecisionMap:
    """Extract one :class:`DecisionMap` over every module of *package_names*.

    Packages that do not resolve are skipped (an unregistered vendor agent
    without a dedicated package simply contributes nothing).
    """

    decision_map = DecisionMap(packages=tuple(package_names))
    merged: Dict[int, Set[str]] = {}
    for path in sorted(set(module_files(package_names).values())):
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            continue
        decision_map.sites.extend(branch_sites_in_tree(tree, path))
        arms, constants = _compares_in_tree(tree, path)
        decision_map.dispatch_arms.extend(arms)
        for value, labels in constants.items():
            merged.setdefault(value, set()).update(labels)
    decision_map.constants = {value: tuple(sorted(labels))
                              for value, labels in merged.items()}
    return decision_map


def decision_map_for_agent(agent_name: str) -> DecisionMap:
    """The decision map of one registered agent: common base + its package."""

    return build_decision_map(["repro.agents.common",
                               "repro.agents.%s" % agent_name])


def mine_constants_from(obj: object) -> List[int]:
    """Mine compared constants from a class or function's own source.

    Works on objects outside the agent packages (e.g. a planted in-test
    agent): the PR-6 planted ``OFPP_CONTROLLER`` comparison is exactly the
    kind of rare constant this surfaces for a fuzzer.  Returns ``[]`` when
    the source is unavailable (interactively defined objects).
    """

    try:
        source = textwrap.dedent(inspect.getsource(obj))  # type: ignore[arg-type]
    except (OSError, TypeError):
        return []
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return []
    _arms, constants = _compares_in_tree(tree, "<source>")
    return sorted(constants)
