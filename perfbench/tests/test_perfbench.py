"""Tests of the benchmark itself: declared names, self-time arithmetic, smoke runs.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import machine, run, tracing, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_declared_names_are_valid_and_match_the_code():
    groups = {key: [m["name"] for m in SPEC[key]] for key in ("workloads", "end_to_end", "per_layer")}
    names = [n for group in groups.values() for n in group]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    assert all(UNIT.fullmatch(m["unit"]) for key in ("end_to_end", "per_layer") for m in SPEC[key])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert set(groups["workloads"]) == set(workloads.WORKLOADS)
    traced_extras = {"trace.overhead_ratio", "cli.pool_efficiency", "field_solver.energy_drift",
                     "testfn.identity_residual", "cli.import_s", "cli.import_scipy_s"}
    computed = set(tracing.layer_metrics(tracing.Tracer(), tracing.Counters())) | traced_extras
    assert computed == set(groups["per_layer"])


def test_self_time_on_synthetic_span_tree():
    now = [0.0]

    def advance(dt):
        now[0] += dt

    tracer = tracing.Tracer(clock=lambda: now[0])
    leaf = tracer.wrap(lambda: advance(1.0), "b.leaf", "b")

    def mid_body():
        advance(2.0)
        leaf()
        advance(0.5)
        leaf()

    mid = tracer.wrap(mid_body, "a.mid", "a")

    def top_body():
        advance(1.0)
        mid()
        advance(3.0)

    top = tracer.wrap(top_body, "a.top", "a")
    tracer.run_item(top)

    totals = tracer.totals()
    assert totals["b.leaf"] == (2, 2.0, 2.0)
    assert totals["a.mid"] == (1, 2.5, 4.5)
    assert totals["a.top"] == (1, 4.0, 8.5)
    assert totals[tracing.ITEM] == (1, 0.0, 8.5)
    assert tracer.layer_sum("a", "self_s") == 6.5
    assert sum(tracer.self_s) == 8.5  # self times partition the item's wall time
    assert tracer.calls_under("b.leaf", "a.mid") == 2
    # kept spans: the item and its direct child; both carry the item's id
    by_name = {tracer.names[s[1]]: s for s in tracer.spans}
    assert set(by_name) == {tracing.ITEM, "a.top"}
    item = by_name[tracing.ITEM]
    assert by_name["a.top"][2] == item[0] and by_name["a.top"][3] == item[0] == item[3]


def test_install_wraps_every_namespace_and_uninstall_restores():
    from kgflrw import cosmology, thresholds

    original = cosmology.scale_factor
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cosmology.scale_factor is not original
        assert cosmology.scale_factor.__wrapped__ is original
        thresholds.nonlinearity_weight(cosmology.CosmologyParams(n=1), 1.0, 1.0, 2.0, 0.5)
    finally:
        tracer.uninstall()
    assert cosmology.scale_factor is original
    totals = tracer.totals()
    # nonlinearity_weight imports scale_factor at call time, which finds the wrapper
    assert totals["cosmology.scale_factor"][0] == 1
    assert tracer.calls_under("cosmology.cone_radius", "thresholds.nonlinearity_weight") == 1
    assert totals["thresholds.nonlinearity_weight"][0] == 1


def test_parse_importtime_counts_nested_scipy_once():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |        400 |   scipy.integrate",
        "import time:       300 |        300 |   numpy",
        "import time:        10 |       1010 | kgflrw",
    ])
    assert machine.parse_importtime(stderr) == (1010e-6, 700e-6)


def test_tail_percentile_leaves_ten_items_beyond():
    assert run.tail_percentile(80) == 87
    assert run.tail_percentile(32) == 68
    assert run.tail_percentile(9) == 50


def _run_json(capsys, *args):
    assert run.main(["--smoke", "--seed", "3", "--seconds", "0", *args]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_declared_metric(capsys, workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        out = _run_json(capsys, "--workload", workload, "--trace", str(trace))
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
        assert set(out["metrics"]) == {m["name"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(tmp_path, workload):
    wl = workloads.WORKLOADS[workload]
    inputs = wl.setup(5, True, tmp_path)
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    seen = []
    for k in range(2):
        _, result, tracer, counters = run.traced_pass(wl, inputs, tmp_path / f"pass{k}")
        assert result.failed == 0, result.errors
        layer = tracing.layer_metrics(tracer, counters)
        seen.append({n: layer[n] for n in counts if n in layer})
    assert seen[0] == seen[1]
    assert any(seen[0].values())


def test_traced_run_makes_two_traced_passes_when_time_is_up(tmp_path):
    wl = workloads.WORKLOADS["pde_physics"]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    _, results = run.traced_run("pde_physics", wl, 5, 0.0, tmp_path / "out", True, 1, counts)
    assert len(results) == 3  # the untraced pass and two traced passes
    assert all(r.failed == 0 for r in results)


def test_inputs_follow_the_seed(tmp_path):
    first = workloads.setup_ode(7, True, tmp_path)
    assert first == workloads.setup_ode(7, True, tmp_path)
    assert first != workloads.setup_ode(8, True, tmp_path)


def test_lattice_draws_cover_each_coordinate_evenly():
    for seed in range(1, 21):
        points = workloads.lattice_points(seed, 100)
        assert points.shape == (100, workloads.DRAW_DIMS)
        assert ((0.0 <= points) & (points < 1.0)).all()
        # every tenth of every coordinate holds 10 +- 5 of the first 100 points;
        # 100 independent uniform draws usually miss that by 6 to 11
        counts = np.array([np.histogram(points[:, j], bins=10, range=(0.0, 1.0))[0]
                           for j in range(workloads.DRAW_DIMS)])
        assert np.abs(counts - 10).max() <= 5, seed
    draws = workloads.PointDraws([0.0, 0.999999, 0.5])
    assert (draws.integers(1, 4), draws.integers(1, 4), draws.uniform(2.0, 4.0)) == (1, 3, 3.0)
