"""Compiled evaluation engine: differential sweep + memo/pickle unit tests.

The compiled register-tape evaluator (:mod:`repro.symbex.compile`) is the
one concrete-evaluation engine of the stack; the recursive tree-walking
interpreter in ``tests/oracles.py`` is its reference, so the contract is
bit-identical results.  The heart of this file is a differential sweep:
every path-condition constraint the seed catalog produces is evaluated
compiled vs interpreted under several assignments.  The rest unit-tests the
per-node compile memo (hit/miss counters, stats merging) and the pickle /
process-pool behavior workers rely on.
"""

from __future__ import annotations

import multiprocessing
import pickle
import random

import pytest

from repro.core.explorer import explore_agent
from repro.errors import ExpressionError
from repro.symbex.compile import (
    CompiledProgram,
    compile_term,
    compiled_cache_stats,
    evaluate_compiled,
    evaluate_compiled_bool,
)
from repro.symbex.engine import Engine
from repro.symbex.expr import (
    BVBinOp,
    bool_and,
    bool_not,
    bool_or,
    bvvar,
    concat,
    extract,
    ite,
    sign_extend,
    zero_extend,
)
from tests.oracles import evaluate_bool, evaluate_bv

SWEEP_AGENTS = ("reference", "ovs", "modified")
SWEEP_TEST = "packet_out"


def _assignments_for(program: CompiledProgram, rng: random.Random):
    """Zero, all-ones and two random assignments over the program's inputs."""

    names = list(program.variables.items())
    yield {name: 0 for name, _ in names}
    yield {name: (1 << width) - 1 for name, width in names}
    for _ in range(2):
        yield {name: rng.getrandbits(width) for name, width in names}


def test_seed_catalog_path_conditions_differential():
    """Every seed-catalog path condition: compiled == interpreted, bit for bit."""

    rng = random.Random(0x50F7)
    constraints = []
    for agent in SWEEP_AGENTS:
        report = explore_agent(agent, SWEEP_TEST)
        for outcome in report.outcomes:
            constraints.extend(outcome.constraints)
    assert constraints, "seed catalog produced no path conditions to sweep"

    checked = 0
    for constraint in constraints:
        program = compile_term(constraint)
        for assignment in _assignments_for(program, rng):
            interpreted = int(evaluate_bool(constraint, assignment))
            assert program.run(assignment) == interpreted
            checked += 1
    assert checked >= 4 * len(constraints)


def test_bv_terms_match_interpreter():
    rng = random.Random(7)
    x, y, s = bvvar("x", 16), bvvar("y", 16), bvvar("s", 4)
    terms = [
        x + y,
        x - y,
        x * y,
        BVBinOp("udiv", x, y | 1),
        BVBinOp("urem", x, y | 1),
        (x & y) ^ (x | y),
        x << zero_extend(s, 16),
        x >> zero_extend(s, 16),
        concat(extract(x, 15, 8), extract(y, 7, 0)),
        sign_extend(extract(x, 7, 0), 16),
        ite(x == y, x, y + 1),
    ]
    for term in terms:
        program = compile_term(term)
        for _ in range(8):
            assignment = {name: rng.getrandbits(width)
                          for name, width in program.variables.items()}
            assert program.run(assignment) == evaluate_bv(term, assignment)


def test_missing_binding_raises_unless_defaulted():
    x = bvvar("x_missing", 8)
    program = compile_term(x + 1)
    with pytest.raises(ExpressionError):
        program.run({})
    assert program.run({}, default=0) == 1
    # Defaults are masked to the variable width, like the interpreter.
    assert program.run({}, default=0x1FF) == evaluate_bv(x + 1, {}, default=0x1FF)


# ---------------------------------------------------------------------------
# Width-boundary semantics (zero-extension aliasing, shift edges)
# ---------------------------------------------------------------------------


def test_zero_extend_width_boundaries():
    x = bvvar("zx", 8)
    widened = zero_extend(x, 32)
    for value in (0, 1, 0x7F, 0x80, 0xFF):
        assert evaluate_compiled(widened, {"zx": value}) == value
        assert evaluate_compiled(widened, {"zx": value}) == \
            evaluate_bv(widened, {"zx": value})
    # Out-of-width inputs mask identically on both engines.
    assert evaluate_compiled(widened, {"zx": 0x1FF}) == \
        evaluate_bv(widened, {"zx": 0x1FF}) == 0xFF


def test_shift_edge_masking():
    x, s = bvvar("shx", 8), bvvar("shs", 8)
    shl, lshr = x << s, x >> s
    for shift in (0, 1, 7, 8, 9, 255):
        for value in (0x01, 0x80, 0xAB, 0xFF):
            assignment = {"shx": value, "shs": shift}
            for term in (shl, lshr):
                assert evaluate_compiled(term, assignment) == \
                    evaluate_bv(term, assignment)
            if shift >= 8:
                assert evaluate_compiled(shl, assignment) == 0
                assert evaluate_compiled(lshr, assignment) == 0
            else:
                assert evaluate_compiled(shl, assignment) == (value << shift) & 0xFF
                assert evaluate_compiled(lshr, assignment) == value >> shift


def test_division_by_zero_matches_interpreter():
    x, y = bvvar("dvx", 8), bvvar("dvy", 8)
    assignment = {"dvx": 0xAB, "dvy": 0}
    quotient, remainder = BVBinOp("udiv", x, y), BVBinOp("urem", x, y)
    assert evaluate_compiled(quotient, assignment) == \
        evaluate_bv(quotient, assignment) == 0xFF
    assert evaluate_compiled(remainder, assignment) == \
        evaluate_bv(remainder, assignment) == 0xAB


def test_boolean_connectives_match_interpreter():
    a, b = bvvar("ba", 8), bvvar("bb", 8)
    term = bool_or(bool_and(a == 1, bool_not(b == 2)), b > 250)
    for assignment in ({"ba": 1, "bb": 0}, {"ba": 1, "bb": 2},
                       {"ba": 0, "bb": 255}, {"ba": 0, "bb": 0}):
        assert evaluate_compiled_bool(term, assignment) == \
            evaluate_bool(term, assignment)


# ---------------------------------------------------------------------------
# Per-node compile memo: hits, misses, stats
# ---------------------------------------------------------------------------


def test_compile_memo_counts_hits_and_misses():
    x = bvvar("memo_probe", 32)
    before = compiled_cache_stats()
    programs = [compile_term(x + index) for index in range(32)]
    after = compiled_cache_stats()
    assert after["misses"] == before["misses"] + 32  # one compile per term
    assert after["hits"] == before["hits"]
    assert compile_term(x + 5) is programs[5]
    assert compile_term(programs[5].expr) is programs[5]  # hash-consing
    stats = compiled_cache_stats()
    assert stats["hits"] == after["hits"] + 2
    assert 0.0 < stats["hit_rate"] <= 1.0


def test_engine_surfaces_compiled_cache_stats():
    def program(state):
        value = state.new_symbol("cachestat", 8)
        if value == 3:
            state.record_event("hit")

    before = compiled_cache_stats()
    Engine().explore(program)
    after = compiled_cache_stats()
    # The memo is process-wide: an exploration shows up in its counters.
    assert (after["hits"] + after["misses"]
            > before["hits"] + before["misses"])


# ---------------------------------------------------------------------------
# Pickle / process-pool behavior
# ---------------------------------------------------------------------------


def test_compiled_program_pickles_by_recompiling():
    x = bvvar("pik", 16)
    term = (x + 5) * 3
    program = compile_term(term)
    clone = pickle.loads(pickle.dumps(program))
    # Recompiled from the structurally pickled expression: same-process
    # round-trips re-intern to the identical term and hit the cache.
    assert clone.expr is program.expr
    assert clone.run({"pik": 41}) == program.run({"pik": 41}) == (46 * 3) & 0xFFFF


def _eval_in_child(program, assignment):
    return program.run(assignment)


def test_compiled_program_crosses_process_boundary():
    ctx = multiprocessing.get_context("fork")
    x = bvvar("proc", 16)
    program = compile_term(x * x + 1)
    with ctx.Pool(1) as pool:
        child_value = pool.apply(_eval_in_child, (program, {"proc": 12}))
    assert child_value == program.run({"proc": 12}) == 145
