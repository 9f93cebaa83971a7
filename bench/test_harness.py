"""Tests for the benchmark harness's own arithmetic: the tail-percentile rule,
self time over spans, seed determinism and the verdict rules.

    python -m pytest bench
"""

import math
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import harness  # noqa: E402
import ramanujan_integrals as lib  # noqa: E402
import workloads  # noqa: E402


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert harness.percentile(values, 50) == 50
    assert harness.percentile(values, 98) == 98
    assert harness.percentile(values, 100) == 100
    assert harness.percentile([3.0], 99) == 3.0
    assert harness.percentile(list(reversed(values)), 90) == 90


@pytest.mark.parametrize("name", ["index-sweep", "scale-sweep"])
def test_sweep_tail_percentile_leaves_ten_calls_in_the_shortest_run(name):
    import run

    w = workloads.Workload(lib, name, 1)
    calls = sum(len(point) for j in range(w.rounds_per_pass) for point in w.round_calls(j))
    q = workloads.TAIL_PERCENTILE[name]
    assert harness.beyond(run.MIN_PASSES * calls, q) >= 10
    # the next percentile up a whole point would leave fewer
    assert harness.beyond(run.MIN_PASSES * calls, q + 1.0) < 10


def test_paper_tail_percentile_leaves_ten_calls_in_fifty_passes():
    # a paper pass is ten calls, well under half a second
    assert harness.beyond(50 * 10, workloads.TAIL_PERCENTILE["paper"]) >= 10


def _span(name, start, end, parent):
    s = harness.Span(name, start, parent)
    s.end = end
    return s


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("child", 1.0, 4.0, 0),
        _span("grandchild", 2.0, 3.0, 1),
        _span("child", 5.0, 9.0, 0),
        _span("other_root", 11.0, 12.0, -1),
    ]
    assert harness.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    # self times of a tree add up to its root's duration
    assert sum(harness.self_times(spans)[:4]) == 10.0
    assert harness.root_of(spans) == [0, 0, 0, 0, 4]
    totals = harness.layer_totals(spans)
    assert totals["child"]["calls"] == 2
    assert totals["child"]["self_s"] == 6.0
    assert totals["child"]["total_s"] == 7.0


def test_recorder_nests_layers_and_restores_names():
    original = lib.t_even
    recorder = harness.Recorder(lib)
    try:
        value = lib.t_even(2, 1.0)
        lib.approximants.bound_even(1, 1.0)
    finally:
        recorder.close()
    assert lib.t_even is original and lib.approximants.u_scaled is lib.quadrature.u_scaled
    assert value == original(2, 1.0)
    names = [(s.name, s.parent) for s in recorder.spans]
    assert names[0] == ("approximants.t", -1)
    assert ("specfun.gamma_half_ratio", 0) in names and ("specfun.gauss_f", 0) in names
    bound = next(i for i, s in enumerate(recorder.spans) if s.name == "approximants.bound")
    assert any(s.name == "quadrature.u_scaled" and s.parent == bound for s in recorder.spans)
    assert recorder.counts["specfun.lambda_factor"] == 1  # a = 1 needs one energy term


def test_eval_counter_includes_nested_quadratures():
    direct = lib.j_integral(lib.IntegralParams(0, 1.0)).evaluations
    driver = lib.quadrature._integrate_expsinh
    counter = harness.EvalCounter(lib)
    try:
        lib.ramanujan_i(math.pi)
        via_i = counter.evaluations
        lib.bound_even(1, 0.5)  # u_scaled quadratures; no QuadResult returned
        via_bound = counter.evaluations - via_i
        with pytest.raises(lib.AccuracyError) as raised:
            lib.j_integral(lib.IntegralParams(1, 1.0, 1e-300))
        via_raised = counter.evaluations - via_i - via_bound
    finally:
        counter.close()
    assert via_i == direct
    assert via_bound > 0
    assert via_raised == raised.value.result.evaluations > 0
    assert lib.quadrature._integrate_expsinh is driver


def test_recorder_gives_quadrature_evaluations_to_the_innermost_span():
    recorder = harness.Recorder(lib)
    try:
        j = lib.j_integral(lib.IntegralParams(3, 1.0))
        lib.bound_even(1, 0.5)
    finally:
        recorder.close()
    totals = harness.layer_totals(recorder.spans)
    assert totals["quadrature.j"]["evals"] == j.evaluations
    assert totals["quadrature.u_scaled"]["calls"] == 2 and totals["quadrature.u_scaled"]["evals"] > 0
    assert totals["approximants.bound"]["evals"] == 0


def _keys(workload, index):
    return [[c.key for c in point] for point in workload.round_calls(index)]


@pytest.mark.parametrize("name", ["index-sweep", "scale-sweep"])
def test_sweep_rounds_depend_only_on_seed_and_index(name):
    a, b = workloads.Workload(lib, name, 7), workloads.Workload(lib, name, 7)
    c = a.rounds_per_pass
    assert _keys(a, 0) == _keys(b, 0)
    assert _keys(a, c + 1) == _keys(b, c + 1)
    assert _keys(a, 0) != _keys(a, c)
    assert _keys(a, 0) != _keys(workloads.Workload(lib, name, 8), 0)
    # one point per stratum in every round, and every pool point once a pass
    strata = workloads.load_pool(name)
    assert all(len(a.round_calls(j)) == len(strata) for j in range(c))
    first_calls = {tuple(point[0].key) for j in range(c) for point in a.round_calls(j)}
    assert len(first_calls) == sum(len(s) for s in strata)


def test_paper_seed_only_shuffles():
    a, b = workloads.Workload(lib, "paper", 1), workloads.Workload(lib, "paper", 2)
    assert a.rounds_per_pass == 1
    assert sorted(map(str, _keys(a, 0))) == sorted(map(str, _keys(b, 0)))


def test_quad_verdicts():
    check = workloads._quad(lib, 1.0)
    verdict, ratio = check(lib.QuadResult(1.0 + 1e-14, 2e-14, 10))[0]
    assert verdict == "ok" and ratio == pytest.approx(0.5, rel=1e-2)
    verdict, ratio = check(lib.QuadResult(1.0 + 4e-14, 2e-14, 10))[0]
    assert verdict == "wrong" and ratio == pytest.approx(2.0, rel=1e-2)
    raised = lib.AccuracyError("x", lib.QuadResult(0.0, 1.0, 5))
    assert check(raised) == [("flagged", None)]
    assert check(ValueError("x")) == [("error", None)]


def test_closed_form_verdicts():
    check = workloads._closed_form(lib, 2.0)
    assert check(2.0 * (1 + 1e-13))[0][0] == "ok"
    assert check(2.0 * (1 + 1e-11))[0][0] == "wrong"
    assert check(math.nan)[0][0] == "wrong"


def test_published_table_cell_stays_counted():
    published = workloads.load_published()
    call = workloads._table_call(lib, published, 3)
    verdicts = call.check(lib.reproduce_table(3))
    assert len(verdicts) == 16
    assert [v for v, _ in verdicts].count("wrong") == 1


def test_end_to_end_metrics_match_benchmark_json():
    import json

    import run

    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert f"tail p{workloads.TAIL_PERCENTILE[w['name']]:g}" in w["why"]
