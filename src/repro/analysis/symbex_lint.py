"""Symbex-compatibility lint: constructs the symbolic engine cannot model.

The engine replays agent handlers along recorded decision schedules
(:mod:`repro.symbex.engine`).  It assumes the program under test is a
*deterministic pure function of its inputs*:

* calls into ``time``/``random``/``os``/... make replays diverge from their
  schedule (a replay that branches on a condition its prefix never forked
  on aborts the exploration with an engine fault);
* I/O escapes the recorded trace entirely;
* iterating an unordered ``set`` makes branch order depend on hash
  randomization;
* builtins like ``hash``/``id`` in a branch condition fold a process-random
  value into the path condition.

This lint rejects those shapes *statically*, at ``@register_agent`` time,
instead of at replay-mismatch time deep inside a campaign.
"""

from __future__ import annotations

import ast
from typing import List, Tuple

__all__ = [
    "IO_CALLS",
    "NONDETERMINISTIC_MODULES",
    "UNSUPPORTED_BRANCH_BUILTINS",
    "check_tree",
]

#: Modules whose calls are nondeterministic or environment-dependent.
NONDETERMINISTIC_MODULES = frozenset({
    "time", "random", "os", "datetime", "uuid", "secrets", "socket",
    "subprocess", "threading",
})

#: Builtins that perform I/O; handlers must be pure over their inputs.
IO_CALLS = frozenset({"open", "input", "print"})

#: Builtins whose result the engine cannot model inside a branch condition.
UNSUPPORTED_BRANCH_BUILTINS = frozenset({
    "hash", "id", "repr", "format", "vars", "globals", "locals",
})


def _branch_condition_findings(test: ast.expr) -> List[Tuple[int, str]]:
    findings: List[Tuple[int, str]] = []
    for sub in ast.walk(test):
        if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                and sub.func.id in UNSUPPORTED_BRANCH_BUILTINS):
            findings.append((
                sub.lineno,
                "branch condition calls %s(); the symbolic engine cannot "
                "model its result" % sub.func.id))
    return findings


def _call_findings(node: ast.Call) -> List[Tuple[int, str]]:
    func = node.func
    if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
            and func.value.id in NONDETERMINISTIC_MODULES):
        return [(node.lineno,
                 "call to %s.%s() is nondeterministic under symbolic "
                 "execution; replays would diverge from their decision "
                 "schedule" % (func.value.id, func.attr))]
    if isinstance(func, ast.Name) and func.id in IO_CALLS:
        return [(node.lineno,
                 "%s() performs I/O; agent handlers must be pure functions "
                 "of their inputs" % func.id)]
    return []


def _iteration_findings(iter_node: ast.expr) -> List[Tuple[int, str]]:
    unordered = False
    if (isinstance(iter_node, ast.Call) and isinstance(iter_node.func, ast.Name)
            and iter_node.func.id in ("set", "frozenset")):
        unordered = True
    elif isinstance(iter_node, (ast.Set, ast.SetComp)):
        unordered = True
    if not unordered:
        return []
    return [(iter_node.lineno,
             "iteration over an unordered set; branch order would depend on "
             "hash randomization (use a sorted() or list iteration)")]


def check_tree(tree: ast.AST) -> List[Tuple[int, str]]:
    """All symbex-compatibility findings of a parsed source, as (line, message)."""

    findings: List[Tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.While, ast.IfExp)):
            findings.extend(_branch_condition_findings(node.test))
        if isinstance(node, ast.Call):
            findings.extend(_call_findings(node))
        if isinstance(node, ast.For):
            findings.extend(_iteration_findings(node.iter))
        if isinstance(node, ast.comprehension):
            findings.extend(_iteration_findings(node.iter))
    return sorted(set(findings))
