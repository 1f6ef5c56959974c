"""Line and branch coverage tracking for the agents under test.

The tracker is deliberately scoped: it is armed only while agent handlers run
(the harness wraps each dispatch in :meth:`CoverageTracker.tracking`), so the
symbolic-execution machinery itself does not pollute the numbers.  Coverage is
cumulative across all explored paths of a test, matching how the paper
aggregates Cloud9's per-test coverage.

* **Instruction coverage** — executed source lines over statically counted
  executable lines of the tracked modules.
* **Branch coverage** — executed outgoing arcs of branching lines over two
  arcs per statically counted branch point (``if``/``while``/ternary/
  comprehension-filter), the usual arc-based approximation.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import pkgutil
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Set, Tuple

__all__ = ["CoverageTracker", "CoverageReport", "executable_lines", "branch_lines"]


def _module_files(package_names: Iterable[str]) -> Dict[str, str]:
    """Map module name -> source file for every module under the given packages."""

    files: Dict[str, str] = {}
    for package_name in package_names:
        package = importlib.import_module(package_name)
        package_file = getattr(package, "__file__", None)
        if package_file:
            files[package_name] = package_file
        search_path = getattr(package, "__path__", None)
        if not search_path:
            continue
        for module_info in pkgutil.walk_packages(search_path, prefix=package_name + "."):
            try:
                module = importlib.import_module(module_info.name)
            except ImportError:  # pragma: no cover - defensive
                continue
            module_file = getattr(module, "__file__", None)
            if module_file:
                files[module_info.name] = module_file
    return files


def executable_lines(filename: str) -> Set[int]:
    """Statically determine the executable line numbers of a source file."""

    with open(filename, "r", encoding="utf-8") as handle:
        source = handle.read()
    tree = ast.parse(source, filename=filename)
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.stmt, ast.excepthandler)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            lines.add(node.lineno)
        elif isinstance(node, (ast.IfExp, ast.comprehension)):
            lines.add(getattr(node, "lineno", 0) or 0)
    lines.discard(0)
    return lines


def branch_lines(filename: str) -> Set[int]:
    """Statically determine the lines that contain a branch point.

    Thin wrapper over the decision-map extractor so the tracker's dynamic
    branch accounting and the static denominator behind ``coverage_fraction``
    share one definition of "branch site" — the dynamic set is a subset of
    the static one by construction.
    """

    from repro.analysis.decision_map import branch_sites_for_file

    return {site.line for site in branch_sites_for_file(filename)}


@dataclass
class CoverageReport:
    """Aggregated coverage numbers for one tracked scope."""

    executable_line_count: int
    executed_line_count: int
    branch_point_count: int
    executed_branch_arc_count: int
    #: Static branch sites whose line was executed at least once — the
    #: numerator of :attr:`coverage_fraction` (denominator is the static
    #: :attr:`branch_point_count` from the decision map).
    executed_branch_point_count: int = 0

    @property
    def instruction_coverage(self) -> float:
        """Fraction of executable lines that were executed at least once."""

        if not self.executable_line_count:
            return 0.0
        return self.executed_line_count / self.executable_line_count

    @property
    def branch_coverage(self) -> float:
        """Executed branch arcs over two arcs per static branch point (capped at 1)."""

        if not self.branch_point_count:
            return 0.0
        return min(1.0, self.executed_branch_arc_count / (2.0 * self.branch_point_count))

    @property
    def coverage_fraction(self) -> float:
        """Dynamic branch points reached over static decision-map sites.

        This is the true fraction the paper-style "coverage" tables need:
        the denominator is counted statically before any path runs, so an
        unexplored agent reports 0.0 rather than an undefined novelty count.
        """

        if not self.branch_point_count:
            return 0.0
        return self.executed_branch_point_count / self.branch_point_count

    def as_dict(self) -> Dict[str, float]:
        return {
            "executable_lines": self.executable_line_count,
            "executed_lines": self.executed_line_count,
            "branch_points": self.branch_point_count,
            "executed_branch_arcs": self.executed_branch_arc_count,
            "executed_branch_points": self.executed_branch_point_count,
            "instruction_coverage": self.instruction_coverage,
            "branch_coverage": self.branch_coverage,
            "coverage_fraction": self.coverage_fraction,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "CoverageReport":
        """Rebuild a report from :meth:`as_dict` output (derived rates recomputed)."""

        return cls(
            executable_line_count=int(data["executable_lines"]),
            executed_line_count=int(data["executed_lines"]),
            branch_point_count=int(data["branch_points"]),
            executed_branch_arc_count=int(data["executed_branch_arcs"]),
            executed_branch_point_count=int(data.get("executed_branch_points", 0)),
        )


class CoverageTracker:
    """Records executed lines/arcs of the tracked packages while armed."""

    def __init__(self, packages: Optional[Iterable[str]] = None) -> None:
        self.packages = list(packages) if packages is not None else ["repro.agents"]
        self._files = _module_files(self.packages)
        self._file_set = set(self._files.values())
        self._executable: Dict[str, Set[int]] = {
            path: executable_lines(path) for path in self._file_set
        }
        self._branches: Dict[str, Set[int]] = {
            path: branch_lines(path) for path in self._file_set
        }
        self.executed: Dict[str, Set[int]] = {path: set() for path in self._file_set}
        self.arcs: Dict[str, Set[Tuple[int, int]]] = {path: set() for path in self._file_set}
        self._last_line: Dict[int, Tuple[str, int]] = {}

    # ------------------------------------------------------------------
    # Arming / disarming
    # ------------------------------------------------------------------

    @contextlib.contextmanager
    def tracking(self):
        """Context manager that arms the tracer for the duration of the block."""

        previous = sys.gettrace()
        sys.settrace(self._trace)
        try:
            yield self
        finally:
            sys.settrace(previous)

    def _trace(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in self._file_set:
            return None  # do not trace into foreign code
        if event == "call":
            return self._trace
        if event == "line":
            line = frame.f_lineno
            self.executed[filename].add(line)
            frame_key = id(frame)
            previous = self._last_line.get(frame_key)
            if previous is not None and previous[0] == filename:
                self.arcs[filename].add((previous[1], line))
            self._last_line[frame_key] = (filename, line)
        return self._trace

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def reset(self) -> None:
        for path in self._file_set:
            self.executed[path].clear()
            self.arcs[path].clear()
        self._last_line.clear()

    def report(self, modules: Optional[Iterable[str]] = None) -> CoverageReport:
        """Aggregate coverage, optionally restricted to module-name prefixes."""

        if modules is None:
            selected = self._file_set
        else:
            prefixes = tuple(modules)
            selected = {
                path for name, path in self._files.items()
                if name.startswith(prefixes)
            }
        executable_count = 0
        executed_count = 0
        branch_count = 0
        arc_count = 0
        executed_branch_count = 0
        for path in selected:
            executable = self._executable.get(path, set())
            executed = self.executed.get(path, set()) & executable
            branches = self._branches.get(path, set())
            executable_count += len(executable)
            executed_count += len(executed)
            branch_count += len(branches)
            executed_branch_count += len(self.executed.get(path, set()) & branches)
            arc_count += sum(1 for (src, _dst) in self.arcs.get(path, set()) if src in branches)
        return CoverageReport(
            executable_line_count=executable_count,
            executed_line_count=executed_count,
            branch_point_count=branch_count,
            executed_branch_arc_count=arc_count,
            executed_branch_point_count=executed_branch_count,
        )
