"""Tests of Phase-1 artifact serialization and the vendor save/load workflow."""

import json

import pytest

from repro.cli.main import main as cli_main
from repro.core.artifacts import load_exploration_artifact, save_exploration_artifact
from repro.core.campaign import Campaign
from repro.core.crosscheck import find_inconsistencies
from repro.core.explorer import AgentExplorationReport, explore_agent
from repro.core.grouping import group_paths
from repro.core.trace import OutputTrace
from repro.errors import ArtifactError, ExpressionError
from repro.symbex.expr import (
    FALSE,
    TRUE,
    BoolAnd,
    BoolNot,
    bool_and,
    bool_not,
    bool_or,
    bvvar,
    concat,
    ite,
    structurally_equal,
)
from repro.symbex.serialize import (
    TermTableWriter,
    bool_expr_from_obj,
    expr_from_obj,
    expr_to_obj,
    terms_from_table,
)


# ---------------------------------------------------------------------------
# Expression serialization
# ---------------------------------------------------------------------------

def test_expr_round_trip_covers_all_node_kinds():
    x = bvvar("x", 16)
    y = bvvar("y", 16)
    samples = [
        (x + 3) * y,
        ~(x ^ y) - (x << 2),
        -x,
        concat(x, y).extract(23, 8),
        x.zext(32) + 1,
        x.sext(32),
        ite(x == y, x & 0xFF, y | 1),
        bool_and(x < y, bool_not(x == 3), bool_or(y >= 5, x.sle(0))),
        BoolNot(bool_or(x == 1, y == 2)),
        TRUE,
        FALSE,
    ]
    writer = TermTableWriter()
    roots = [writer.add(expr) for expr in samples]
    rows = json.loads(json.dumps(writer.rows))
    terms = terms_from_table(rows)
    for expr, root in zip(samples, roots):
        # Interned constructors hand back the very same objects.
        assert terms[root] is expr, expr.pretty()
        assert expr_from_obj(json.loads(json.dumps(expr_to_obj(expr)))) is expr
    assert len({id(term) for term in terms}) == len(rows)  # each node written once
    assert {row[0] for row in rows} == {"const", "var", "binop", "unop", "extract", "concat",
                                        "zext", "sext", "ite", "bool", "not", "and", "or",
                                        "cmp"}


def test_expr_deserialize_rejects_garbage():
    with pytest.raises(ExpressionError):
        expr_from_obj(["warp", 1, 2])
    with pytest.raises(ExpressionError):
        expr_from_obj([])
    with pytest.raises(ExpressionError):
        expr_from_obj("not-a-node")
    with pytest.raises(ExpressionError):
        bool_expr_from_obj(["const", 8, 1])  # bit-vector where a bool is needed


def test_bool_nary_round_trip_preserves_operands():
    x = bvvar("x", 8)
    expr = BoolAnd([x == 1, x != 2, x < 9])
    rebuilt = bool_expr_from_obj(expr_to_obj(expr))
    assert structurally_equal(expr, rebuilt)


# ---------------------------------------------------------------------------
# Exploration artifact round trip
# ---------------------------------------------------------------------------

def test_exploration_report_dict_round_trip_identical_crosscheck():
    original = explore_agent("reference", "stats_request")
    rebuilt = AgentExplorationReport.from_dict(
        json.loads(json.dumps(original.to_dict())))

    assert rebuilt.agent_name == original.agent_name
    assert rebuilt.test_key == original.test_key
    assert rebuilt.path_count == original.path_count
    assert [o.trace for o in rebuilt.outcomes] == [o.trace for o in original.outcomes]

    against = group_paths(explore_agent("ovs", "stats_request"))
    fresh = find_inconsistencies(group_paths(original), against)
    loaded = find_inconsistencies(group_paths(rebuilt), against)
    assert loaded.inconsistency_count == fresh.inconsistency_count
    assert loaded.queries == fresh.queries
    assert (sorted((i.trace_a.items, i.trace_b.items) for i in loaded.inconsistencies)
            == sorted((i.trace_a.items, i.trace_b.items) for i in fresh.inconsistencies))


#: Where a term row's child indices start, per tag (leaves have none).
_FIRST_CHILD = {"binop": 2, "unop": 2, "extract": 3, "concat": 1, "zext": 2, "sext": 2,
                "ite": 1, "not": 1, "and": 1, "or": 1, "cmp": 2}


def test_exploration_artifact_writes_each_term_and_trace_once():
    report = explore_agent("reference", "flow_mod")
    data = json.loads(json.dumps(report.to_dict()))
    assert data["format"] == AgentExplorationReport.ARTIFACT_FORMAT

    distinct = set()
    stack = [c for outcome in report.outcomes for c in outcome.constraints]
    while stack:
        node = stack.pop()
        if id(node) not in distinct:
            distinct.add(id(node))
            stack.extend(node.children())
    assert len(data["terms"]) == len(distinct)
    assert len(data["traces"]) == len(report.distinct_traces())
    for position, row in enumerate(data["terms"]):
        children = row[_FIRST_CHILD.get(row[0], len(row)):]
        assert all(0 <= child < position for child in children), row

    rebuilt = AgentExplorationReport.from_dict(data)
    for old, new in zip(report.outcomes, rebuilt.outcomes):
        assert len(old.constraints) == len(new.constraints)
        assert all(a is b for a, b in zip(old.constraints, new.constraints))
        assert new.trace == old.trace
    # Outcomes with the same trace share one rebuilt trace object.
    assert len({id(o.trace) for o in rebuilt.outcomes}) == len(data["traces"])


_VAR, _CONST, _CMP = ["var", 8, "x"], ["const", 8, 1], ["cmp", "eq", 0, 1]


def _tiny_artifact(terms=(_VAR, _CONST, _CMP), constraints=(2,), trace=0, **extra):
    data = {"format": AgentExplorationReport.ARTIFACT_FORMAT,
            "agent": "reference", "test": "concrete",
            "terms": [list(row) for row in terms],
            "traces": [[["ctrl_msg", 0, ["ECHO_REPLY"]]]],
            "outcomes": [{"path_id": 0, "constraints": list(constraints),
                          "trace": trace}]}
    data.update(extra)
    return data


def test_tiny_artifact_fixture_is_valid():
    report = AgentExplorationReport.from_dict(_tiny_artifact())
    assert report.outcomes[0].constraints == [bvvar("x", 8) == 1]
    assert report.outcomes[0].trace.items == (("ctrl_msg", 0, ("ECHO_REPLY",)),)


@pytest.mark.parametrize("data", [
    pytest.param(_tiny_artifact(terms=[_VAR, ["not", 1]], constraints=[1]),
                 id="row-refers-to-itself"),
    pytest.param(_tiny_artifact(terms=[_VAR, ["cmp", "eq", 0, 2], _CONST], constraints=[1]),
                 id="row-refers-to-later-row"),
    pytest.param(_tiny_artifact(terms=[_VAR, _CONST, ["cmp", "eq", 0, 99]]),
                 id="row-refers-out-of-range"),
    pytest.param(_tiny_artifact(terms=[_VAR, _CONST, ["cmp", "eq", -1, 1]]),
                 id="row-refers-to-negative-row"),
    pytest.param(_tiny_artifact(terms=[_VAR, _CONST, ["cmp", "eq", True, 1]]),
                 id="row-refers-by-bool"),
    pytest.param(_tiny_artifact(terms=[["warp", 1, 2]], constraints=[0]),
                 id="unknown-tag"),
    pytest.param(_tiny_artifact(terms=[_VAR, _CONST, _CMP, ["binop", "add", 2, 0],
                                       ["cmp", "eq", 3, 0]], constraints=[4]),
                 id="bool-row-where-bv-required"),
    pytest.param(_tiny_artifact(constraints=[0]), id="constraint-is-bv-row"),
    pytest.param(_tiny_artifact(constraints=[3]), id="constraint-out-of-range"),
    pytest.param(_tiny_artifact(constraints=[-1]), id="constraint-negative"),
    pytest.param(_tiny_artifact(trace=1), id="trace-out-of-range"),
    pytest.param(_tiny_artifact(trace=-1), id="trace-negative"),
    pytest.param(_tiny_artifact(terms={"0": _VAR}), id="terms-not-a-list"),
    pytest.param(_tiny_artifact(terms=[_VAR, "cmp"]), id="row-not-a-list"),
    pytest.param({k: v for k, v in _tiny_artifact().items() if k != "terms"},
                 id="no-terms"),
    pytest.param({k: v for k, v in _tiny_artifact().items() if k != "format"},
                 id="no-format"),
])
def test_malformed_exploration_artifact_raises_artifact_error(data):
    with pytest.raises(ArtifactError):
        AgentExplorationReport.from_dict(json.loads(json.dumps(data)))


def test_nested_v1_artifact_is_refused_naming_both_formats(tmp_path):
    path = tmp_path / "old.json"
    path.write_text(json.dumps(_tiny_artifact(format="soft/exploration-artifact/v1")))
    with pytest.raises(ArtifactError) as info:
        load_exploration_artifact(path)
    assert "soft/exploration-artifact/v1" in str(info.value)
    assert AgentExplorationReport.ARTIFACT_FORMAT in str(info.value)


def test_output_trace_obj_round_trip_hash_equal():
    trace = OutputTrace(items=(("ctrl_msg", 0, ("ERROR", "1", "2")), ("crash", 1)))
    rebuilt = OutputTrace.from_obj(json.loads(json.dumps(trace.to_obj())))
    assert rebuilt == trace
    assert hash(rebuilt) == hash(trace)


def test_artifact_file_save_load_and_errors(tmp_path):
    report = explore_agent("reference", "concrete")
    path = tmp_path / "reference_concrete.json"
    save_exploration_artifact(report, path)
    loaded = load_exploration_artifact(path)
    assert loaded.agent_name == "reference" and loaded.test_key == "concrete"

    with pytest.raises(ArtifactError):
        load_exploration_artifact(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ArtifactError):
        load_exploration_artifact(bad)
    wrong_format = tmp_path / "wrong.json"
    wrong_format.write_text(json.dumps({"format": "soft/other/v9", "agent": "a", "test": "t"}))
    with pytest.raises(ArtifactError):
        load_exploration_artifact(wrong_format)


def test_coverage_survives_artifact_round_trip():
    report = explore_agent("reference", "concrete", with_coverage=True)
    rebuilt = AgentExplorationReport.from_dict(json.loads(json.dumps(report.to_dict())))
    assert rebuilt.coverage is not None
    assert rebuilt.coverage.instruction_coverage == report.coverage.instruction_coverage


# ---------------------------------------------------------------------------
# Vendor workflow: explore in-house, ship JSON, crosscheck without re-exploring
# ---------------------------------------------------------------------------

def test_campaign_seeded_from_artifact_skips_exploration(tmp_path, monkeypatch):
    import repro.core.campaign as campaign_module

    vendor_report = explore_agent("ovs", "stats_request")
    path = tmp_path / "vendor_ovs.json"
    save_exploration_artifact(vendor_report, path)

    calls = []
    original = campaign_module.explore_agent

    def recorder(agent, spec, **kwargs):
        calls.append((agent, spec.key))
        return original(agent, spec, **kwargs)

    monkeypatch.setattr(campaign_module, "explore_agent", recorder)

    report = (Campaign()
              .with_tests("stats_request")
              .with_agents("reference")
              .load_artifact(str(path))
              .run())
    # Only the local agent was explored; the vendor's artifact was used as-is.
    assert calls == [("reference", "stats_request")]
    assert report.explorations_loaded == 1
    assert report.agents == ["reference", "ovs"]
    pair = report.report_for("stats_request", "reference", "ovs")
    fresh = find_inconsistencies(group_paths(explore_agent("reference", "stats_request")),
                                 group_paths(vendor_report))
    assert pair.inconsistency_count == fresh.inconsistency_count


def test_artifact_scale_round_trips_and_seeds_campaign():
    from repro.core.tests_catalog import get_test
    from repro.errors import CampaignError

    ref = explore_agent("reference", get_test("set_config", scale="paper"))
    ovs = explore_agent("ovs", get_test("set_config", scale="paper"))
    assert ref.scale == "paper"
    rebuilt = AgentExplorationReport.from_dict(json.loads(json.dumps(ref.to_dict())))
    assert rebuilt.scale == "paper"

    # Paper-scale artifacts cover Phase 1 completely — nothing re-explored.
    report = Campaign().add_artifact(rebuilt).add_artifact(ovs).run()
    assert report.explorations_run == 0
    assert report.explorations_loaded == 2

    # The CLI flow adds the test as a bare key first; the artifact's concrete
    # spec must win so the campaign crosschecks at the artifact's scale.
    report = (Campaign().with_tests("set_config")
              .add_artifact(ref).add_artifact(ovs).run())
    assert report.explorations_run == 0

    # But a test pinned to a concrete spec at another scale is refused rather
    # than silently re-explored at the wrong scale.
    with pytest.raises(CampaignError):
        (Campaign().with_tests(get_test("set_config", scale="small"))
         .add_artifact(ref).with_agents("ovs").run())


def test_campaign_pair_times_amortize_shared_explorations():
    report = Campaign(tests=["set_config"], agents=["reference", "ovs", "modified"]).run()
    # Each exploration is shared by two pairs; summing per-pair times must
    # not double-count Phase 1, so the sum stays within the campaign wall.
    assert sum(r.total_time for r in report.reports) <= report.total_time + 0.05


def test_cli_explore_save_load_round_trip(tmp_path, capsys):
    path = tmp_path / "artifact.json"
    assert cli_main(["explore", "--agent", "reference", "--test", "concrete",
                     "--save", str(path)]) == 0
    capsys.readouterr()
    assert cli_main(["explore", "--load", str(path)]) == 0
    out = capsys.readouterr().out
    assert "agent=reference test=concrete" in out
    assert cli_main(["explore"]) == 2  # neither --load nor --agent/--test
    assert "--agent and --test are required" in capsys.readouterr().err


def test_cli_campaign_with_artifact(tmp_path, capsys):
    path = tmp_path / "ovs.json"
    save_exploration_artifact(explore_agent("ovs", "set_config"), path)
    code = cli_main(["campaign", "--tests", "set_config", "--agents", "reference",
                     "--artifact", str(path), "--json", "-", "--quiet"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["explorations_loaded"] == 1
    assert data["pair_reports"][0]["agent_b"] == "ovs"


def test_cli_surfaces_artifact_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("42")
    assert cli_main(["explore", "--load", str(bad)]) == 2
    assert "artifact" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Registry metadata regression (list-agents used to crash on empty docstrings)
# ---------------------------------------------------------------------------

def test_first_doc_line_handles_missing_and_empty_docstrings():
    from repro.agents.registry import first_doc_line

    class NoDoc:
        pass

    class EmptyDoc:
        """"""

    class WhitespaceDoc:
        """   """

    assert first_doc_line(NoDoc) == ""
    assert first_doc_line(EmptyDoc) == ""
    assert first_doc_line(WhitespaceDoc) == ""
    assert first_doc_line(OutputTrace).startswith("A normalized")


def test_list_agents_survives_agent_with_empty_docstring(capsys):
    from repro.agents import registry
    from repro.errors import AgentRegistrationError

    class DoclessStub:
        pass

    # Registry validation (PR 7) rejects metadata-free agents by default...
    with pytest.raises(AgentRegistrationError):
        registry.register_agent("docless_stub")(DoclessStub)

    # ...but validate=False keeps the old permissive path, and the CLI
    # must still render the missing description without crashing.
    registry.register_agent("docless_stub", validate=False)(DoclessStub)
    try:
        assert cli_main(["list-agents"]) == 0
        out = capsys.readouterr().out
        assert "docless_stub" in out
        assert "(no description)" in out
    finally:
        registry.AGENT_REGISTRY.pop("docless_stub", None)
        registry._INFO.pop("docless_stub", None)
