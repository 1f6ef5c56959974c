"""The ``soft lint`` driver: rule registry, file walking, class linting.

Three rules:

* ``broad-except`` — ``except Exception:`` / bare ``except:`` hides
  ``KeyboardInterrupt`` subclass-adjacent bugs and typo'd attribute errors;
  every catch in ``src/`` must name the exception types it expects (or
  carry a suppression with a reason, for the genuine catch-alls around
  arbitrary agent code).
* ``symbex-compat`` — agent modules only (paths under ``repro/agents``):
  see :mod:`repro.analysis.symbex_lint`.
* ``unlocked-shared-state`` — see :mod:`repro.analysis.concurrency_lint`.
"""

from __future__ import annotations

import ast
import inspect
import os
import textwrap
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.analysis import concurrency_lint, symbex_lint
from repro.analysis.findings import Finding, LintReport, apply_suppressions

__all__ = ["RULE_NAMES", "lint_class", "lint_source", "run_lint"]

RULE_NAMES: Tuple[str, ...] = (
    "broad-except", "symbex-compat", "unlocked-shared-state")

_AGENTS_FRAGMENT = os.path.join("repro", "agents")


def _broad_except_findings(tree: ast.AST) -> List[Tuple[int, str]]:
    findings: List[Tuple[int, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            findings.append((node.lineno,
                             "bare except: swallows KeyboardInterrupt and "
                             "SystemExit; name the expected exception types"))
            continue
        names: List[ast.expr] = []
        if isinstance(node.type, ast.Tuple):
            names.extend(node.type.elts)
        else:
            names.append(node.type)
        for name_node in names:
            label: Optional[str] = None
            if isinstance(name_node, ast.Name):
                label = name_node.id
            elif isinstance(name_node, ast.Attribute):
                label = name_node.attr
            if label in ("Exception", "BaseException"):
                findings.append((node.lineno,
                                 "except %s: is too broad; name the expected "
                                 "exception types" % label))
                break
    return findings


def _rules_for_path(path: str, rules: Sequence[str]) -> List[str]:
    normalized = path.replace("\\", "/")
    agents_fragment = _AGENTS_FRAGMENT.replace("\\", "/")
    selected = []
    for rule in rules:
        if rule == "symbex-compat" and agents_fragment not in normalized:
            continue
        selected.append(rule)
    return selected


def lint_source(source: str, path: str,
                rules: Optional[Sequence[str]] = None,
                line_offset: int = 0) -> List[Finding]:
    """Lint one source string; suppression comments in it are honoured.

    *line_offset* is added to every reported line (used by
    :func:`lint_class` so findings land on real file lines).
    """

    selected = list(rules) if rules is not None else list(RULE_NAMES)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        line = line_offset + (exc.lineno or 1)
        return [Finding("parse-error", path, line,
                        "source does not parse: %s" % exc.msg)]
    findings: List[Finding] = []
    for rule in selected:
        if rule == "broad-except":
            raw = _broad_except_findings(tree)
        elif rule == "symbex-compat":
            raw = symbex_lint.check_tree(tree)
        elif rule == "unlocked-shared-state":
            raw = concurrency_lint.check_tree(tree)
        else:
            raise ValueError("unknown lint rule: %r (known: %s)"
                             % (rule, ", ".join(RULE_NAMES)))
        findings.extend(Finding(rule, path, line + line_offset, message)
                        for line, message in raw)
    findings.sort(key=lambda finding: (finding.line, finding.rule))
    return apply_suppressions(findings, source, line_offset=line_offset)


def _python_files(root: str) -> List[str]:
    if os.path.isfile(root):
        return [root]
    collected: List[str] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [name for name in dirnames if name != "__pycache__"]
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                collected.append(os.path.join(dirpath, filename))
    return collected


def run_lint(paths: Iterable[str],
             rules: Optional[Sequence[str]] = None) -> LintReport:
    """Lint every ``.py`` file under *paths* and return one report.

    ``symbex-compat`` only applies to files under ``repro/agents`` —
    nondeterminism is fine in the campaign driver; it is the *agents* the
    symbolic engine has to model.
    """

    selected = tuple(rules) if rules is not None else RULE_NAMES
    report = LintReport(rules=selected)
    for root in paths:
        for path in _python_files(root):
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            applicable = _rules_for_path(path, selected)
            report.files_scanned += 1
            if not applicable:
                continue
            report.findings.extend(lint_source(source, path, rules=applicable))
    report.findings.sort(
        key=lambda finding: (finding.path, finding.line, finding.rule))
    return report


def lint_class(cls: type,
               rules: Sequence[str] = ("symbex-compat",)) -> List[Finding]:
    """Lint one class from its live source (``soft list-agents`` uses it).

    Returns ``[]`` when the source is unavailable (e.g. classes defined in
    a REPL) — linting a live class is best effort by design.
    """

    try:
        source_lines, start = inspect.getsourcelines(cls)
        path = inspect.getsourcefile(cls) or "<source>"
    except (OSError, TypeError):
        return []
    source = textwrap.dedent("".join(source_lines))
    try:
        return lint_source(source, path, rules=rules, line_offset=start - 1)
    except SyntaxError:  # pragma: no cover - dedent produced invalid source
        return []
