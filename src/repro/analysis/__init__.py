"""Static analysis over agent modules and the repro stack itself.

Three passes, all AST-level and solver-free:

* **Decision maps** (:mod:`repro.analysis.decision_map`) — extract every
  branch site, message-type dispatch arm and compared constant from agent
  handler code.  The branch-site set is the *static denominator* behind
  ``CoverageTracker``'s ``coverage_fraction``, and mined constants seed the
  differential fuzzer's interesting-value pool.
* **Symbex-compatibility lint** (:mod:`repro.analysis.symbex_lint`) — flag
  constructs the symbolic engine cannot model (time/random/os calls, I/O,
  iteration over unordered sets, unsupported builtins in branch conditions).
  ``soft list-agents`` runs it on every registered agent, and ``soft lint``
  runs it on ``repro/agents``.
* **Concurrency lint** (:mod:`repro.analysis.concurrency_lint`) — in classes
  that own a ``threading.Lock``/``RLock``, flag shared-state writes in public
  methods that are not inside a ``with self.<lock>:`` block (the invariant
  hand-maintained by the campaign caches, the triage index and the
  incremental SAT engine).

All passes surface through ``soft lint`` (:func:`repro.analysis.lint.run_lint`)
and the CI lint job.  Findings are silenced per line with::

    # soft-lint: disable=<rule> -- <reason>

on the offending line or the line above; the reason is mandatory.
"""

from __future__ import annotations

from repro.analysis.decision_map import (
    BranchSite,
    DecisionMap,
    DispatchArm,
    branch_sites_for_file,
    build_decision_map,
    decision_map_for_agent,
    mine_constants_from,
    module_files,
)
from repro.analysis.findings import Finding, LintReport
from repro.analysis.lint import (
    RULE_NAMES,
    lint_class,
    lint_source,
    run_lint,
)

__all__ = [
    "BranchSite",
    "DecisionMap",
    "DispatchArm",
    "Finding",
    "LintReport",
    "RULE_NAMES",
    "branch_sites_for_file",
    "build_decision_map",
    "decision_map_for_agent",
    "lint_class",
    "lint_source",
    "mine_constants_from",
    "module_files",
    "run_lint",
]
