"""Phase-1 completeness: the explored paths cover every admissible input.

For each small-scale catalog unit, one ``Solver`` query asks whether some
input satisfies the harness's input assumptions but no explored path
condition (:func:`tests.oracles.uncovered_inputs`).  A branch side the
oracle wrongly called infeasible leaves such an input behind, so this
checks the prefix oracle's UNSAT answers without running a second engine.
"""

import pytest

from repro.core.tests_catalog import TABLE1_TESTS
from tests.oracles import explore_with_driver, uncovered_inputs


@pytest.mark.parametrize("test", TABLE1_TESTS)
@pytest.mark.parametrize("agent", ["reference", "ovs", "modified"])
def test_explored_paths_cover_every_admissible_input(agent, test):
    _, driver, result = explore_with_driver(agent, test)
    assert result.exhausted and not result.stats.truncated
    gap = uncovered_inputs(driver, result)
    assert gap.is_unsat, "inputs no explored path covers: %r" % (gap.model,)
