"""The budgeted hybrid hunt scheduler: fuzz / concolic / symbex / replay.

One :class:`HybridHunt` crosschecks one agent pair on one test specification
under a global wall-clock budget, interleaving four stages in short slices:

``fuzz``
    Draw random assignments of the test's symbolic variables, materialize
    them to wire buffers and replay both agents concretely.  Cheap breadth;
    inputs with novel coverage fingerprints are admitted to the seed pool.
``concolic``
    Take the pool's most promising seed, replay it *symbolically* to recover
    its path condition (:mod:`repro.symbex.concolic`), and solve negations of
    unflipped branches into directed new inputs — the inputs random draws
    essentially never hit (a 16-bit constant match is a 2^-16 lottery ticket).
``symbex``
    Classic SOFT exploration, sliced: each slice resumes the engine from the
    frontier the previous slice handed back (``ExplorationResult.resume``),
    then crosschecks the accumulated path groups of the two agents; solver
    models of fresh inconsistencies become seeds too.
``replay``
    Replay stored corpus witnesses (historical divergences) against the
    current agents and feed their minimized assignments into the pool, so a
    hunt starts from everything previous campaigns learned.

After every slice the scheduler re-scores each stage by **marginal value per
second** — new coverage units plus (heavily weighted) new witness clusters,
divided by the stage's cumulative runtime — and the next slice goes to the
highest scorer.  Stages that stall decay naturally; a stage that keeps
finding divergences keeps the clock.  Every divergence found by *any* stage
flows through the one witness pipeline: concrete replay confirmation →
delta-minimization → :class:`TriageIndex` clustering → optional
:class:`WitnessCorpus` persistence.

The clock is injectable (``clock=``) and every stage does a bounded amount
of work per slice, so the scheduler is fully deterministic under a fake
clock — which is how the slice-accounting tests pin its behaviour down.
"""

from __future__ import annotations

import importlib.util
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.crosscheck import find_inconsistencies
from repro.core.explorer import (
    AgentExplorationReport,
    AgentSpec,
    _outcome_from_record,
    _resolve_agent_factory,
)
from repro.core.grouping import group_paths
from repro.core.testcase import (
    ConcreteTestCase,
    ReplayOutcome,
    build_testcase,
    replay_testcase,
)
from repro.core.tests_catalog import TestSpec, get_test
from repro.core.witness import (
    DivergenceSignature,
    TriageIndex,
    TriageReport,
    Witness,
    minimize_witness,
)
from repro.coverage.tracker import CoverageTracker
from repro.errors import ArtifactError, CampaignError, CorpusError
from repro.harness.driver import TestDriver, run_concrete_sequence
from repro.hybrid.seeds import Seed, SeedPool
from repro.symbex.concolic import ConcolicExecutor
from repro.symbex.engine import Engine, EngineConfig, ExplorationResult
from repro.symbex.expr import reset_branch_hook, set_branch_hook
from repro.symbex.compile import evaluate_compiled_bool
from repro.symbex.solver import GroupEncoding, Solver, SolverConfig
from repro.symbex.state import PathState

__all__ = ["HybridConfig", "HybridHunt", "HybridStats", "StageStats",
           "HuntReport", "discover_symbols"]

#: The full stage roster, in bootstrap order.
ALL_STAGES = ("fuzz", "concolic", "symbex", "replay")


@dataclass
class HybridConfig:
    """Knobs of one hybrid hunt."""

    #: Global wall-clock budget in seconds.
    budget: float = 10.0
    #: Target length of one scheduler slice in seconds.
    slice_time: float = 0.5
    #: RNG seed: one seed reproduces the whole hunt (fuzz draws included).
    seed: int = 0
    #: Which stages run; subsets give the pure baselines ("fuzz",)/("symbex",).
    stages: Tuple[str, ...] = ALL_STAGES
    #: Random assignments drawn per fuzz slice.
    fuzz_per_slice: int = 12
    #: Branch flips solved per concolic slice.
    flips_per_slice: int = 6
    #: Corpus bundles / pending seeds replayed per replay slice.
    replays_per_slice: int = 8
    #: Crosscheck pair cap per symbex slice (None = unlimited).
    max_pairs_per_slice: Optional[int] = 512
    #: Weight of one new witness cluster vs one new coverage unit when
    #: re-allocating slices (divergences are the point of the exercise).
    divergence_weight: float = 200.0
    #: Weight of one *statically known* decision-map branch site reached for
    #: the first time.  Sites come from :mod:`repro.analysis.decision_map`;
    #: a stage that keeps turning uncovered static sites into covered ones
    #: keeps the clock even when raw line/arc novelty stalls.
    target_site_weight: float = 25.0
    #: Mix decision-map mined constants into fuzz draws: with probability
    #: :attr:`interesting_prob` per field, draw a compared constant (masked
    #: to the field width) instead of a uniform value.  Off by default so
    #: pure-fuzz baselines stay the paper's uninformed random search.
    mined_constants: bool = False
    interesting_prob: float = 0.25
    #: Delta-minimize the first witness of each new signature.
    minimize: bool = True
    minimize_budget: int = 24
    #: Persist confirmed clusters into this corpus directory (also the
    #: directory the replay stage loads historical witnesses from).
    corpus_dir: Optional[str] = None
    #: Packages the coverage fingerprints are computed over; None derives
    #: ``repro.agents.common`` + the per-agent packages when they exist.
    coverage_packages: Optional[Sequence[str]] = None
    #: Symbolic engine limits for the symbex stage.
    engine_config: Optional[EngineConfig] = None
    solver_config: Optional[SolverConfig] = None
    #: Hard cap on scheduler slices (safety net for frozen clocks).
    max_slices: Optional[int] = None


@dataclass
class StageStats:
    """Per-stage accounting the scheduler re-allocates by."""

    name: str
    slices: int = 0
    time_spent: float = 0.0
    #: Concrete inputs replayed / paths explored / flips solved, per stage kind.
    inputs_run: int = 0
    divergences: int = 0
    new_clusters: int = 0
    new_coverage_units: int = 0
    #: Static decision-map branch sites this stage reached first.
    new_target_sites: int = 0
    seeds_added: int = 0

    def value(self, divergence_weight: float,
              target_site_weight: float = 0.0) -> float:
        return (self.new_coverage_units
                + divergence_weight * self.new_clusters
                + target_site_weight * self.new_target_sites)

    def rate(self, divergence_weight: float,
             target_site_weight: float = 0.0) -> float:
        """Marginal value per second; optimistic (inf-like) before first run."""

        if not self.slices:
            return float("inf")
        return (self.value(divergence_weight, target_site_weight)
                / max(self.time_spent, 1e-9))

    def as_dict(self) -> Dict[str, object]:
        spent = max(self.time_spent, 1e-9)
        return {
            "slices": self.slices,
            "time_spent": self.time_spent,
            "inputs_run": self.inputs_run,
            "divergences": self.divergences,
            "new_clusters": self.new_clusters,
            "new_coverage_units": self.new_coverage_units,
            "new_target_sites": self.new_target_sites,
            "seeds_added": self.seeds_added,
            "coverage_per_sec": self.new_coverage_units / spent,
            "divergences_per_sec": self.divergences / spent,
        }

    @classmethod
    def from_dict(cls, name: str, data: Dict[str, object]) -> "StageStats":
        """Rebuild from :meth:`as_dict` output (derived rates are recomputed)."""

        return cls(
            name=name,
            slices=int(data.get("slices", 0)),
            time_spent=float(data.get("time_spent", 0.0)),
            inputs_run=int(data.get("inputs_run", 0)),
            divergences=int(data.get("divergences", 0)),
            new_clusters=int(data.get("new_clusters", 0)),
            new_coverage_units=int(data.get("new_coverage_units", 0)),
            new_target_sites=int(data.get("new_target_sites", 0)),
            seeds_added=int(data.get("seeds_added", 0)),
        )


@dataclass
class HybridStats:
    """Scheduler-level accounting of one hunt."""

    budget: float
    wall_time: float = 0.0
    slices: int = 0
    stages: Dict[str, StageStats] = field(default_factory=dict)
    seed_pool: Dict[str, object] = field(default_factory=dict)
    concolic: Dict[str, float] = field(default_factory=dict)
    #: Decision-map target accounting: static site total vs sites reached.
    targets: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "budget": self.budget,
            "wall_time": self.wall_time,
            "slices": self.slices,
            "stages": {name: stats.as_dict() for name, stats in self.stages.items()},
            "seed_pool": self.seed_pool,
            "concolic": self.concolic,
            "targets": self.targets,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "HybridStats":
        """Rebuild from :meth:`as_dict` output (campaign checkpoint restore)."""

        return cls(
            budget=float(data.get("budget", 0.0)),
            wall_time=float(data.get("wall_time", 0.0)),
            slices=int(data.get("slices", 0)),
            stages={str(name): StageStats.from_dict(str(name), stage)
                    for name, stage in dict(data.get("stages", {})).items()},
            seed_pool=dict(data.get("seed_pool", {})),
            concolic={str(k): float(v)
                      for k, v in dict(data.get("concolic", {})).items()},
            targets={str(k): int(v)
                     for k, v in dict(data.get("targets", {})).items()},
        )


@dataclass
class HuntReport:
    """Everything one hybrid hunt produced."""

    test_key: str
    agent_a: str
    agent_b: str
    stats: HybridStats
    triage: TriageReport
    witnesses: List[Witness] = field(default_factory=list)
    coverage: Optional[Dict[str, float]] = None
    corpus_saved: int = 0

    @property
    def cluster_count(self) -> int:
        return self.triage.cluster_count

    @property
    def confirmed_witnesses(self) -> int:
        return sum(1 for w in self.witnesses if w.confirmed)

    def to_dict(self) -> Dict[str, object]:
        return {
            "format": "soft/hunt-report/v1",
            "test": self.test_key,
            "agent_a": self.agent_a,
            "agent_b": self.agent_b,
            "clusters": self.cluster_count,
            "witnesses": len(self.witnesses),
            "confirmed_witnesses": self.confirmed_witnesses,
            "corpus_saved": self.corpus_saved,
            "coverage": self.coverage,
            "stats": self.stats.as_dict(),
            "triage": self.triage.to_dict(),
        }

    def describe(self) -> str:
        lines = [
            "hybrid hunt: %s vs %s on %r" % (self.agent_a, self.agent_b, self.test_key),
            "  budget %.2fs, ran %.2fs in %d slices"
            % (self.stats.budget, self.stats.wall_time, self.stats.slices),
            "  %d witnesses -> %d clusters (%d confirmed witnesses)"
            % (len(self.witnesses), self.cluster_count, self.confirmed_witnesses),
        ]
        for name, stage in self.stats.stages.items():
            lines.append(
                "  stage %-8s %3d slices %6.2fs  %4d runs  %3d divergences"
                "  %4d new cov units" % (name, stage.slices, stage.time_spent,
                                         stage.inputs_run, stage.divergences,
                                         stage.new_coverage_units))
        if self.corpus_saved:
            lines.append("  %d bundle(s) saved to corpus" % self.corpus_saved)
        return "\n".join(lines)


def discover_symbols(spec: TestSpec) -> Dict[str, int]:
    """Name → width of every symbolic variable the spec's inputs create.

    Builds each input once on a throwaway state, deciding any symbolic
    branches concretely (zero-filled), without dispatching to an agent.
    """

    state = PathState(path_id=-1)
    previous = set_branch_hook(lambda cond: evaluate_compiled_bool(cond, {}, default=0))
    try:
        for test_input in spec.inputs:
            test_input.build(state)
    finally:
        reset_branch_hook(previous)
    return dict(state.symbols)


def _coverage_tracker(packages: Sequence[str]) -> Optional[CoverageTracker]:
    """Build a tracker over the importable subset of *packages* (or None)."""

    importable = [name for name in packages
                  if importlib.util.find_spec(name) is not None]
    if not importable:
        return None
    return CoverageTracker(packages=importable)


class HybridHunt:
    """One budgeted hybrid crosscheck of an agent pair on a test spec."""

    def __init__(self, test: Union[str, TestSpec], agent_a: AgentSpec,
                 agent_b: AgentSpec, config: Optional[HybridConfig] = None,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.spec = get_test(test) if isinstance(test, str) else test
        self.config = config if config is not None else HybridConfig()
        self.clock = clock
        for stage in self.config.stages:
            if stage not in ALL_STAGES:
                raise CampaignError("unknown hunt stage %r (available: %s)"
                                    % (stage, ", ".join(ALL_STAGES)))
        self.agent_a, self._factory_a = _resolve_agent_factory(agent_a)
        self.agent_b, self._factory_b = _resolve_agent_factory(agent_b)
        self.rng = random.Random(self.config.seed)
        self.pool = SeedPool()
        self.triage = TriageIndex()
        self.witnesses: List[Witness] = []
        self._signatures_seen: set = set()
        self._symbols = discover_symbols(self.spec)

        packages = self.config.coverage_packages
        if packages is None:
            packages = ["repro.agents.common",
                        "repro.agents.%s" % self.agent_a,
                        "repro.agents.%s" % self.agent_b]
        self.tracker = _coverage_tracker(packages)
        self._probe_tracker = (_coverage_tracker(packages)
                               if self.tracker is not None else None)
        self._covered_units = 0

        # Static decision map over the same packages: its sites are the
        # hunt's explicit targets, and its mined constants optionally feed
        # the fuzz stage's interesting-value pool.
        self._target_sites: set = set()
        self._targets_covered: set = set()
        self._interesting: List[int] = []
        if self.tracker is not None:
            from repro.analysis.decision_map import build_decision_map

            decision_map = build_decision_map(packages)
            self._target_sites = decision_map.site_keys()
            if self.config.mined_constants:
                self._interesting = decision_map.interesting_values()

        solver_config = self.config.solver_config or SolverConfig()
        engine_config = self.config.engine_config or EngineConfig()
        self._engine_config = engine_config
        self._engines = {
            self.agent_a: Engine(solver=Solver(solver_config), config=engine_config),
            self.agent_b: Engine(solver=Solver(solver_config), config=engine_config),
        }
        self._programs = {
            self.agent_a: TestDriver(self._factory_a, self.spec.inputs).program,
            self.agent_b: TestDriver(self._factory_b, self.spec.inputs).program,
        }
        self._symbex_results: Dict[str, Optional[ExplorationResult]] = {
            self.agent_a: None, self.agent_b: None}
        # One encoding for the whole hunt: every slice re-scans the growing
        # pair matrix on it, and its pair cache answers the pairs earlier
        # slices decided.
        self._crosscheck_engine = GroupEncoding(solver_config)
        self._reported_examples: set = set()
        self._executors = {
            name: ConcolicExecutor(solver=Solver(solver_config))
            for name in (self.agent_a, self.agent_b)
        }
        self._concolic_turn = 0
        self._corpus_loaded = False
        self._pending_replay: List[Tuple[Dict[str, int], str]] = []

        def _replay_factory(name: str):
            if name == self.agent_a:
                return self._factory_a()
            if name == self.agent_b:
                return self._factory_b()
            raise CampaignError("hunt replayer asked for unknown agent %r" % name)

        self._replay_factory = _replay_factory

    # ------------------------------------------------------------------
    # Scheduler
    # ------------------------------------------------------------------

    def run(self) -> HuntReport:
        config = self.config
        started = self.clock()
        deadline = started + config.budget
        stats = HybridStats(budget=config.budget)
        stages = {name: StageStats(name=name) for name in config.stages}
        stats.stages = stages
        runners = {
            "fuzz": self._run_fuzz_slice,
            "concolic": self._run_concolic_slice,
            "symbex": self._run_symbex_slice,
            "replay": self._run_replay_slice,
        }

        while True:
            now = self.clock()
            if now >= deadline:
                break
            if config.max_slices is not None and stats.slices >= config.max_slices:
                break
            stage = self._pick_stage(stages)
            if stage is None:
                break
            slice_deadline = min(now + config.slice_time, deadline)
            clusters_before = len(self.triage.clusters())
            covered_before = self._covered_units
            targets_before = len(self._targets_covered)
            runners[stage.name](stage, slice_deadline)
            elapsed = self.clock() - now
            stage.slices += 1
            stage.time_spent += elapsed
            stage.new_clusters += len(self.triage.clusters()) - clusters_before
            stage.new_coverage_units += self._covered_units - covered_before
            stage.new_target_sites += len(self._targets_covered) - targets_before
            stats.slices += 1

        stats.wall_time = self.clock() - started
        stats.seed_pool = self.pool.stats_dict()
        if self._target_sites:
            stats.targets = {
                "decision_sites": len(self._target_sites),
                "sites_covered": len(self._targets_covered),
            }
        concolic_stats: Dict[str, float] = {}
        for executor in self._executors.values():
            for key, value in executor.stats.as_dict().items():
                concolic_stats[key] = concolic_stats.get(key, 0) + value
        stats.concolic = concolic_stats

        triage_report = self.triage.report(triage_time=stats.wall_time)
        corpus_saved = 0
        if config.corpus_dir:
            from repro.core.corpus import WitnessCorpus

            corpus_saved = WitnessCorpus(config.corpus_dir).add_clusters(
                triage_report.clusters)
        coverage = (self.tracker.report().as_dict()
                    if self.tracker is not None else None)
        return HuntReport(
            test_key=self.spec.key,
            agent_a=self.agent_a,
            agent_b=self.agent_b,
            stats=stats,
            triage=triage_report,
            witnesses=list(self.witnesses),
            coverage=coverage,
            corpus_saved=corpus_saved,
        )

    def _pick_stage(self, stages: Dict[str, StageStats]) -> Optional[StageStats]:
        """Highest marginal-value-per-second stage; bootstrap order first.

        Unrun stages score infinity, so every stage gets one slice before
        re-allocation kicks in; ties resolve in roster order.
        """

        best: Optional[StageStats] = None
        best_rate = -1.0
        for name in self.config.stages:
            stage = stages[name]
            rate = stage.rate(self.config.divergence_weight,
                              self.config.target_site_weight)
            if rate > best_rate:
                best, best_rate = stage, rate
        return best

    # ------------------------------------------------------------------
    # Shared machinery
    # ------------------------------------------------------------------

    def _random_assignment(self) -> Dict[str, int]:
        # With no interesting-value pool this draws exactly one rng value per
        # symbol, so seeded hunts reproduce bit-for-bit whether or not the
        # decision map was built.
        if not self._interesting:
            return {name: self.rng.randrange(0, 1 << width)
                    for name, width in self._symbols.items()}
        assignment: Dict[str, int] = {}
        for name, width in self._symbols.items():
            if self.rng.random() < self.config.interesting_prob:
                assignment[name] = (self.rng.choice(self._interesting)
                                    & ((1 << width) - 1))
            else:
                assignment[name] = self.rng.randrange(0, 1 << width)
        return assignment

    def _replay_assignment(self, assignment: Dict[str, int], origin: str,
                           stage: StageStats,
                           require_novel: bool = False) -> Optional[Seed]:
        """Materialize + concretely replay *assignment*; harvest everything.

        Updates coverage, admits the seed, and on divergence routes the
        result through the witness pipeline.  This one helper is what makes
        the stages composable: fuzz draws, concolic flips, symbex models and
        corpus assignments all land here.
        """

        testcase = build_testcase(self.spec, assignment)
        stage.inputs_run += 1
        fingerprint = None
        if self._probe_tracker is not None:
            self._probe_tracker.reset()
            with self._probe_tracker.tracking():
                run_a = run_concrete_sequence(self._factory_a(), testcase.inputs)
                run_b = run_concrete_sequence(self._factory_b(), testcase.inputs)
            fingerprint = self._probe_tracker.fingerprint()
            self.tracker.merge_from(self._probe_tracker)
            self._covered_units = len(self.tracker.fingerprint())
            if self._target_sites:
                self._targets_covered |= {
                    (path, line)
                    for path, line in self._target_sites - self._targets_covered
                    if line in self.tracker.executed.get(path, ())
                }
        else:
            run_a = run_concrete_sequence(self._factory_a(), testcase.inputs)
            run_b = run_concrete_sequence(self._factory_b(), testcase.inputs)

        seed = self.pool.add(assignment, origin, fingerprint=fingerprint,
                             require_novel=require_novel)
        if seed is not None:
            stage.seeds_added += 1

        if run_a.trace != run_b.trace:
            stage.divergences += 1
            replay = ReplayOutcome(testcase=testcase, run_a=run_a, run_b=run_b)
            self._record_witness(testcase, replay)
        return seed

    def _record_witness(self, testcase: ConcreteTestCase,
                        replay: ReplayOutcome) -> None:
        signature = DivergenceSignature.from_diff(
            self.spec.key, self.agent_a, self.agent_b, replay.diff())
        witness = Witness(
            test_key=self.spec.key,
            scale=self.spec.scale,
            agent_a=self.agent_a,
            agent_b=self.agent_b,
            assignment=dict(testcase.assignment),
            testcase=testcase,
            replay=replay,
            signature=signature,
        )
        key = signature.key()
        if self.config.minimize and key not in self._signatures_seen:
            witness = minimize_witness(
                witness, self.spec, self._replayer,
                max_replays=self.config.minimize_budget)
        self._signatures_seen.add(key)
        self.witnesses.append(witness)
        self.triage.add(witness)

    def _replayer(self, testcase: ConcreteTestCase) -> ReplayOutcome:
        return replay_testcase(testcase, self.agent_a, self.agent_b,
                               agent_factory=self._replay_factory)

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------

    def _run_fuzz_slice(self, stage: StageStats, deadline: float) -> None:
        for _ in range(self.config.fuzz_per_slice):
            if self.clock() >= deadline:
                break
            self._replay_assignment(self._random_assignment(), "fuzz", stage,
                                    require_novel=True)

    def _run_concolic_slice(self, stage: StageStats, deadline: float) -> None:
        seed = self.pool.next_for_expansion()
        assignment = seed.assignment if seed is not None else self._random_assignment()
        # Alternate which agent's paths get expanded: a branch rare in A may
        # be common in B, and divergences live where the two disagree.
        agent = (self.agent_a, self.agent_b)[self._concolic_turn % 2]
        self._concolic_turn += 1
        executor = self._executors[agent]
        trace = executor.trace(self._programs[agent], assignment)
        solved = 0
        for branch in executor.flip_candidates(trace):
            if solved >= self.config.flips_per_slice or self.clock() >= deadline:
                break
            model = executor.solve_flip(trace, branch)
            if model is None:
                continue
            solved += 1
            self._replay_assignment(model, "concolic", stage)

    def _run_symbex_slice(self, stage: StageStats, deadline: float) -> None:
        # Resume each agent's exploration from its handed-back frontier for
        # half the slice; first slice starts from the root.
        for agent in (self.agent_a, self.agent_b):
            if self.clock() >= deadline:
                break
            agent_deadline = min(deadline, self.clock()
                                 + max(0.0, deadline - self.clock()) / 2.0)
            engine = self._engines[agent]
            program = self._programs[agent]
            previous = self._symbex_results[agent]
            if previous is None:
                result = engine.explore(program, deadline=agent_deadline)
            elif previous.frontier:
                result = previous.resume(engine, program, deadline=agent_deadline)
            else:
                result = previous
            new_paths = result.path_count - (previous.path_count if previous else 0)
            stage.inputs_run += max(0, new_paths)
            self._symbex_results[agent] = result

        result_a = self._symbex_results[self.agent_a]
        result_b = self._symbex_results[self.agent_b]
        if not (result_a and result_b and result_a.paths and result_b.paths):
            return
        grouped_a = group_paths(self._exploration_report(self.agent_a, result_a))
        grouped_b = group_paths(self._exploration_report(self.agent_b, result_b))
        # The pair scan is deadline-bounded on the hunt's own clock: a slice
        # must never hold the scheduler past the global budget (the engine's
        # pair cache makes re-scanning the matrix next slice cheap).
        crosscheck = find_inconsistencies(
            grouped_a, grouped_b, engine=self._crosscheck_engine,
            max_pairs=self.config.max_pairs_per_slice,
            deadline=deadline, clock=self.clock)
        replayed = 0
        for inconsistency in crosscheck.inconsistencies:
            example_key = tuple(sorted(inconsistency.example.items()))
            if example_key in self._reported_examples:
                continue
            # Replay at least one fresh model per slice so a solved
            # inconsistency always makes progress, then respect the slice
            # deadline; examples not reached stay unreported and come back
            # from the next slice's re-scan.
            if replayed and self.clock() >= deadline:
                break
            self._reported_examples.add(example_key)
            self._replay_assignment(dict(inconsistency.example), "symbex", stage)
            replayed += 1

    def _run_replay_slice(self, stage: StageStats, deadline: float) -> None:
        if not self._corpus_loaded:
            self._corpus_loaded = True
            self._load_corpus_seeds()
        replayed = 0
        while self._pending_replay and replayed < self.config.replays_per_slice:
            if self.clock() >= deadline:
                return
            assignment, origin = self._pending_replay.pop(0)
            self._replay_assignment(assignment, origin, stage)
            replayed += 1
        # Corpus drained: spend the slice re-expanding coverage of the best
        # seeds (their replay keeps the coverage baseline honest after agent
        # code changes) — bounded, so a fake clock cannot trap us here.
        while replayed < self.config.replays_per_slice:
            if self.clock() >= deadline:
                return
            seed = self.pool.next_for_expansion()
            if seed is None:
                return
            self._replay_assignment(dict(seed.assignment), "replay-refresh", stage)
            replayed += 1

    def _load_corpus_seeds(self) -> None:
        if not self.config.corpus_dir:
            return
        from repro.core.corpus import WitnessCorpus

        try:
            bundles = WitnessCorpus(self.config.corpus_dir, create=False).load()
        except (CorpusError, ArtifactError, OSError):
            return
        for witness in bundles:
            if witness.test_key != self.spec.key:
                continue
            assignment = dict(witness.assignment) or dict(witness.solver_model)
            if assignment:
                self._pending_replay.append((assignment, "corpus"))

    # ------------------------------------------------------------------
    # Symbex plumbing
    # ------------------------------------------------------------------

    def _exploration_report(self, agent: str,
                            result: ExplorationResult) -> AgentExplorationReport:
        outcomes = [_outcome_from_record(record)
                    for record in result.paths if record.ok]
        return AgentExplorationReport(
            agent_name=agent,
            test_key=self.spec.key,
            scale=self.spec.scale,
            outcomes=outcomes,
            cpu_time=result.stats.wall_time,
            path_count=len(outcomes),
            message_count=self.spec.message_count,
            solver_stats=result.solver_stats,
            engine_stats=result.stats.as_dict(),
            truncated=result.stats.truncated,
        )
