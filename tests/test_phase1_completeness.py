"""Phase-1 completeness and disjointness of the explored paths.

For each small-scale catalog unit, one :func:`tests.oracles.solve` asks
whether some input satisfies the harness's input assumptions but no explored
path condition (:func:`tests.oracles.uncovered_inputs`).  A branch side the
oracle wrongly called infeasible leaves such an input behind, so this
checks the prefix oracle's UNSAT answers without running a second engine.

The same exploration is then spot-checked for disjointness: a model of a
sampled path's condition must satisfy no other explored path condition.
Two overlapping paths would mean a branch was recorded on both sides, and
Phase 2b would report one input under two outputs.
"""

import pytest

from repro.core.tests_catalog import TABLE1_TESTS
from repro.symbex.compile import evaluate_compiled_bool
from repro.symbex.expr import bool_and
from tests.oracles import explore_with_driver, solve, uncovered_inputs

#: Paths per unit whose models are checked against every path condition;
#: sampled evenly, since checking all of them costs n² evaluations.
DISJOINT_SAMPLE = 12


@pytest.mark.parametrize("test", TABLE1_TESTS)
@pytest.mark.parametrize("agent", ["reference", "ovs", "modified"])
def test_explored_paths_cover_every_admissible_input(agent, test):
    _, driver, result = explore_with_driver(agent, test)
    assert result.exhausted and not result.stats.truncated
    gap = uncovered_inputs(driver, result)
    assert gap.is_unsat, "inputs no explored path covers: %r" % (gap.model,)

    conditions = [bool_and(*path.condition.constraints()) for path in result.paths]
    step = max(1, len(conditions) // DISJOINT_SAMPLE)
    for index in range(0, len(conditions), step)[:DISJOINT_SAMPLE]:
        answer = solve(result.paths[index].condition.constraints())
        assert answer.is_sat, "explored path %d is infeasible" % index
        model = answer.model
        covering = [other for other, condition in enumerate(conditions)
                    if evaluate_compiled_bool(condition, model, default=0)]
        assert covering == [index], "model of path %d satisfies paths %r" % (
            index, covering)
