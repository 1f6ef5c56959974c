"""Tests of the benchmark's own logic (no SOFT run, no child processes).

    python3 -m pytest perfbench -q
"""

import json
import os
import random
import threading

import pytest

import run
from results import END_TO_END, PER_LAYER, expected_mismatches, failed_share, output_digest
from spans import Tracer, intersection_length, union_length
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("witness.minimize"):
        clock.advance(1.0)
        with tracer.span("testcase.build"):
            clock.advance(2.0)
        with tracer.span("testcase.replay"):
            clock.advance(3.0)
            with tracer.span("inner"):
                clock.advance(0.5)
        clock.advance(4.0)

    own = tracer.self_times()
    assert own["witness.minimize"] == pytest.approx(5.0)
    assert own["testcase.build"] == pytest.approx(2.0)
    assert own["testcase.replay"] == pytest.approx(3.0)
    assert own["inner"] == pytest.approx(0.5)
    assert [span.parent for span in tracer.spans] == [None, 0, 0, 2]


def test_parent_stacks_are_per_thread_and_overlap_counts_once():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    seen = {}
    with tracer.span("campaign") as campaign:
        creator = tracer.current()

        def cell(name: str) -> None:
            assert tracer.current() is None  # a fresh thread starts empty
            with tracer.span("jobs.cell", cell=name, parent=creator):
                with tracer.span("crosscheck") as span:
                    seen[name] = span.cell

        for name in ("pair/a", "pair/b"):
            worker = threading.Thread(target=cell, args=(name,))
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
        clock.advance(2.0)

    # Both cells spanned [0, 2] on other threads while campaign waited.
    for span in tracer.spans[1:]:
        span.start, span.end = 0.0, 2.0
    assert seen == {"pair/a": "pair/a", "pair/b": "pair/b"}
    assert tracer.spans[1].parent == campaign.index
    assert tracer.self_times()["campaign"] == pytest.approx(0.0)
    assert tracer.layer_covered() == pytest.approx(2.0)
    assert tracer.unattributed() == pytest.approx(0.0)


def test_interval_helpers():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert intersection_length([(0, 4)], [(1, 2), (3, 6)]) == pytest.approx(2.0)


def test_digest_ignores_arrival_order_but_not_content():
    entries = [("flow_mod", "reference", "ovs", [["PACKET_IN"]], [["DROP"]]),
               ("packet_out", "ovs", "modified", [], [["FLOOD", 3]])]
    shuffled = list(reversed(entries))
    assert output_digest(entries) == output_digest(shuffled)
    changed = [entries[0], ("packet_out", "ovs", "modified", [], [["FLOOD", 4]])]
    assert output_digest(changed) != output_digest(entries)


def _child(summary, cells=18, failed_cells=0, returncode=0):
    result = {"setup_s": 0.2, "summary": summary, "cells": cells,
              "failed_cells": failed_cells, "errors": [], "confirmed_share": 0.5}
    return run.Child(returncode=returncode, wall=5.0, cpu=5.0, rss_mb=60.0,
                     result=result if returncode == 0 else {})


SUMMARY = {"digest": "abc", "inconsistencies": 3, "confirmed": 2, "clusters": 1, "paths": 9}
EXPECTED = {"digest": "abc", "inconsistencies": 3, "paths": 9}


def test_clean_run_is_correct():
    outcome = run.verdict(WORKLOADS["flowmods"], [_child(SUMMARY), _child(SUMMARY)], [],
                          EXPECTED)
    assert outcome["correct"], outcome["errors"]
    assert (outcome["attempted"], outcome["failed"]) == (36, 0)


def test_failed_cell_counts_in_failed_share():
    outcome = run.verdict(WORKLOADS["flowmods"], [_child(SUMMARY, failed_cells=1)], [],
                          EXPECTED)
    assert not outcome["correct"]
    assert failed_share(outcome["attempted"], outcome["failed"]) == pytest.approx(1 / 18)


def test_crashed_child_fails_all_its_cells():
    workload = WORKLOADS["catalog"]
    outcome = run.verdict(workload, [_child(SUMMARY), _child(None, returncode=1)], [],
                          EXPECTED)
    assert not outcome["correct"]
    assert outcome["failed"] == workload.cells_per_run == 48


def test_changed_output_digest_fails_the_run():
    drifted = dict(SUMMARY, digest="abd")
    within = run.verdict(WORKLOADS["flowmods"], [_child(SUMMARY), _child(drifted)], [],
                         EXPECTED)
    assert not within["correct"]
    assert any("digest" in problem for problem in within["errors"])
    against = run.verdict(WORKLOADS["flowmods"], [_child(drifted)], [], EXPECTED)
    assert not against["correct"]
    assert expected_mismatches(drifted, EXPECTED) == ["digest is 'abd', expected 'abc'"]


@pytest.mark.parametrize("times, expected", [
    ([5.5], 4), ([4.0], 6), ([26.0], 1), ([12.0], 2),
    ([4.9, 4.9, 4.9, 4.9, 5.5, 5.0], 6),  # a started pair is finished
])
def test_iterations_fill_the_window_in_reversed_pairs(times, expected):
    clock = FakeClock()
    orders = []

    def launch_one(order):
        clock.advance(times[min(len(orders), len(times) - 1)])
        orders.append(order)
        return _child(SUMMARY)

    runs = run.measure(WORKLOADS["flowmods"], random.Random(1), 30.0,
                       lambda: 170.0 - clock(), launch_one, clock=clock)
    assert len(runs) == expected
    for first, second in zip(orders[::2], orders[1::2]):
        assert second == first[::-1]


def test_seeded_order_is_reproducible():
    for workload in WORKLOADS.values():
        first = workload.order(random.Random(7))
        assert first == workload.order(random.Random(7))
        assert sorted(map(str, first)) == sorted(map(str, workload.order(random.Random(8))))


def test_benchmark_json_matches_the_code():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as stream:
        spec = json.load(stream)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    with open(os.path.join(HERE, "expected.json")) as stream:
        assert sorted(json.load(stream)) == sorted(WORKLOADS)
