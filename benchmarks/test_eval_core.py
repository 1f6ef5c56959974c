"""Core concrete-evaluation benchmark: interpreted vs compiled.

Every hot loop of the stack — branch decisions, witness-pool checks, model
verification, test-case materialization, corpus replay — bottoms out in
"evaluate this term under that assignment".  This bench measures that kernel
on the real workload: the path conditions the seed catalog produces, swept
under a pile of random assignments two ways (the recursive interpreter kept
in ``tests/oracles.py`` and the compiled register tape), asserting
bit-identical results, and emits ``BENCH_eval.json``:

* ``interpreted_evals_per_sec`` / ``compiled_evals_per_sec`` — single-model
  throughput of each engine (``compiled_speedup`` is their ratio);
* ``compile_amortization_evals`` — how many compiled evaluations pay back
  one cold compile (compile cost / per-eval saving); below ~10 the per-node
  memo could be dropped entirely, in practice hash-consing makes it ~free.

Timings use the best of ``ROUNDS`` sweeps (machine noise dominates any real
effect at these microsecond scales); results are asserted identical on
every round.
"""

from __future__ import annotations

import random
import time

from benchmarks.conftest import print_table, write_bench
from repro.core.explorer import explore_agent
from repro.symbex.compile import _compile, compile_term
from tests.oracles import evaluate_bool

AGENTS = ("reference", "ovs", "modified")
TEST = "packet_out"
MODELS_PER_TERM = 24
ROUNDS = 3


def _workload():
    """Distinct path-condition terms from the seed catalog + random models."""

    rng = random.Random(0x51AC)
    terms = {}
    for agent in AGENTS:
        report = explore_agent(agent, TEST)
        for outcome in report.outcomes:
            for constraint in outcome.constraints:
                terms[id(constraint)] = constraint
    terms = list(terms.values())
    workload = []
    for term in terms:
        program = compile_term(term)
        models = [
            {name: rng.getrandbits(width)
             for name, width in program.variables.items()}
            for _ in range(MODELS_PER_TERM)
        ]
        workload.append((term, program, models))
    return workload


def test_eval_core_benchmark():
    workload = _workload()
    evals = sum(len(models) for _, _, models in workload)
    assert evals > 0

    interpreted_time = compiled_time = None
    reference = None
    for _ in range(ROUNDS):
        started = time.perf_counter()
        interpreted = [[int(evaluate_bool(term, model)) for model in models]
                       for term, _, models in workload]
        elapsed = time.perf_counter() - started
        interpreted_time = min(elapsed, interpreted_time or elapsed)

        started = time.perf_counter()
        compiled = [[program.run(model) for model in models]
                    for _, program, models in workload]
        elapsed = time.perf_counter() - started
        compiled_time = min(elapsed, compiled_time or elapsed)

        assert interpreted == compiled, \
            "compiled evaluation diverged from the interpreter"
        if reference is None:
            reference = interpreted
        assert interpreted == reference

    # Cold-compile cost over the same distinct terms (per-term, amortized
    # against the per-eval saving of the compiled engine), bypassing the
    # per-node memo the workload has already filled.
    started = time.perf_counter()
    for term, _, _ in workload:
        _compile(term)
    compile_time = time.perf_counter() - started

    per_interpreted = interpreted_time / evals
    per_compiled = compiled_time / evals
    per_compile = compile_time / len(workload)
    saving = max(per_interpreted - per_compiled, 1e-12)
    amortization = per_compile / saving

    payload = {
        "test": TEST,
        "agents": list(AGENTS),
        "terms": len(workload),
        "evals": evals,
        "identical_results": True,
        "eval": {
            "interpreted_evals_per_sec": evals / interpreted_time,
            "compiled_evals_per_sec": evals / compiled_time,
            "compiled_speedup": interpreted_time / compiled_time,
            "compile_amortization_evals": amortization,
            "compile_time": compile_time,
        },
    }
    write_bench("BENCH_eval.json", payload)

    print_table(
        "concrete evaluation kernel (%d terms x %d models)"
        % (len(workload), MODELS_PER_TERM),
        ("Engine", "Evals/sec", "Speedup"),
        [
            ("interpreted", "%.0f" % (evals / interpreted_time), "1.00x"),
            ("compiled", "%.0f" % (evals / compiled_time),
             "%.2fx" % (interpreted_time / compiled_time)),
        ])
    print("compile amortizes after %.1f evaluations/term" % amortization)

    assert interpreted_time / compiled_time > 1.0, \
        "compiled evaluation must beat the interpreter"
