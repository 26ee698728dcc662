"""Tests of the benchmark's own code: inputs, tracer, child accounting, metrics.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import inputs  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = ("random-groups", "random-pages")
CYCLE = {"random-groups": len(inputs.GROUP_SLOTS), "random-pages": len(inputs.PAGE_SLOTS)}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    count = 2 * CYCLE[workload]
    first = inputs.canonical(inputs.make_inputs(workload, 7, count))
    assert first == inputs.canonical(inputs.make_inputs(workload, 7, count))
    assert first != inputs.canonical(inputs.make_inputs(workload, 8, count))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_an_input_does_not_depend_on_the_inputs_before_it(workload):
    make = inputs.make_group if workload == "random-groups" else inputs.make_page
    index = CYCLE[workload] + 3
    assert inputs.canonical(make(5, index)) == inputs.canonical(
        inputs.make_inputs(workload, 5, index + 1)[index])


def test_groups_have_their_slot_order_and_stay_under_the_closure_cap():
    items = inputs.make_inputs("random-groups", 3, 2 * CYCLE["random-groups"])
    for index, item in enumerate(items):
        dim, ngens, order, _, signed = inputs.GROUP_SLOTS[index % CYCLE["random-groups"]]
        rep = item["rep"]
        assert (rep["dimension"], len(rep["generators"]), item["order"]) == (dim, ngens, order)
        assert ("signs" in rep) == signed
        assert order < 10000


def test_pages_stay_in_their_enumeration_band_far_under_the_resolve_cap():
    items = inputs.make_inputs("random-pages", 3, 2 * CYCLE["random-pages"])
    for index, item in enumerate(items):
        entries, lo, hi = inputs.PAGE_SLOTS[index % CYCLE["random-pages"]]
        assert len(item["page"]["entries"]) == entries
        assert lo <= item["bound"] == inputs.enumeration_bound(item["page"]) <= hi < 10 ** 6


def test_signed_permutation_order_reference():
    swap = ((1, 0), (1, 1))
    negate = ((0, 1), (-1, -1))
    assert inputs.signed_perm_order([swap]) == 2
    assert inputs.signed_perm_order([swap, negate]) == 4
    rotate = ((1, 0), (1, -1))  # the matrix [[0, 1], [-1, 0]], of order 4
    assert inputs.signed_perm_order([rotate]) == 4
    assert inputs.signed_perm_order([rotate, swap]) == 8


def test_self_time_excludes_child_spans_and_recursion_counts_once():
    tracer = Tracer()

    def inner():
        return sum(range(2000))

    def outer(depth):
        traced_inner()
        traced_inner()
        return traced_outer(depth - 1) if depth else None

    traced_inner = tracer.wrap("m.inner", inner)
    traced_outer = tracer.wrap("m.outer", outer)
    traced_outer(2)
    calls_o, total_o, self_o = tracer.stats["m.outer"]
    calls_i, total_i, self_i = tracer.stats["m.inner"]
    assert (calls_o, calls_i) == (3, 6)
    assert total_i == pytest.approx(self_i)
    assert self_o + total_i == pytest.approx(total_o)


def test_observer_sees_exceptions():
    tracer = Tracer()
    seen = []

    def fail():
        raise ValueError("boom")

    traced = tracer.wrap("m.fail", fail, lambda t, result, exc: seen.append(exc))
    with pytest.raises(ValueError):
        traced()
    assert isinstance(seen[0], ValueError) and tracer.stats["m.fail"][0] == 1


def test_peak_rss_is_per_child():
    touch_150_mib = "x = bytearray(150 * 2 ** 20); x[::4096] = b'1' * len(x[::4096])"
    big = run.Child([sys.executable, "-c", touch_150_mib])
    small = run.Child([sys.executable, "-c", "pass"])
    assert big.code == small.code == 0
    assert big.peak_rss_mib > 150
    assert small.peak_rss_mib < big.peak_rss_mib - 100


def test_a_missing_function_makes_its_metrics_absent():
    trace = {"spans": {"fan.classify_orbits": [1, 2.0, 0.5], "linalg.rank": [4, 0.1, 0.1]},
             "counts": {}, "import_s": 0.1}
    metrics, absent = run.per_layer({"trace": trace, "overhead_s": 0.0})
    assert metrics["fan.classify_orbits_s"] == (2.0, "s")
    assert metrics["linalg.calls"] == (4, "count")
    assert "fan.equivalent_s" in absent and "fan.equivalent.match_ratio" in absent
    assert "fan.equivalent_s" not in metrics


def test_traced_rounds_alternate_and_report_the_mean_trace():
    order = []

    def untraced():
        order.append("untraced")
        return [{"t": 1.0}], None

    def traced():
        order.append("traced")
        return [{"t": 1.5}], {"spans": {"m.f": [2, 0.4, 0.2]}, "counts": {"m.n": 6},
                              "import_s": 0.1}

    result = run.alternate(untraced, traced)
    assert order == ["untraced", "traced", "traced", "untraced"]
    assert len(result["ops"]) == 4
    assert result["overhead_s"] == pytest.approx(0.5)
    assert result["trace"]["spans"]["m.f"] == pytest.approx([2, 0.4, 0.2])
    assert result["trace"]["counts"]["m.n"] == 6


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_runs_give_identical_outputs(workload):
    count = CYCLE[workload]
    _, plain = run.run_worker(workload, 11, count=count)
    _, traced = run.run_worker(workload, 11, count=count, trace=True)
    assert [op["out"] for op in plain["ops"]] == [op["out"] for op in traced["ops"]]
    assert all(op["ok"] for op in plain["ops"] + traced["ops"])
    assert traced["trace"]["spans"]


def test_traced_cli_prints_what_the_cli_prints():
    plain = run.python_child("-m", "avor3.cli", *run.BETTI_ARGS)
    traced = run.python_child(run.WORKER, "cli", *run.BETTI_ARGS)
    assert run.check_betti(plain) == run.check_betti(traced) == ""
    assert plain.stdout == traced.stdout
    assert run.trace_of(traced)["spans"]["strata.compactification_betti"][0] == 1


def test_benchmark_json_lists_exactly_the_printed_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    layer = [(n, u) for n, u, _ in run.LAYER_METRICS]
    layer += [("setup.import_s", "s"), ("trace.overhead_s", "s")]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == layer
    fake = {"ops": [{"t": 0.5}, {"t": 0.7}], "peak_rss_mib": 40.0}
    printed = run.end_to_end(fake, [0.2, 0.3])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        name: unit for name, (_, unit) in printed.items()}
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
