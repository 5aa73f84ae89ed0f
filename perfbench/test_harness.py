"""Self-tests of the benchmark harness, on configs small enough to run in seconds.

    python3 -m pytest -q perfbench/test_harness.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import run as bench  # noqa: E402

SMALL = {"population_size": 400, "num_days": 12}
_, MODS = harness.import_pctsim()


def iterate(workload, tmp_path, traced, seed=0, overrides=SMALL, **kwargs):
    return harness.run_iteration(MODS, workload, seed, traced=traced,
                                 work_dir=tmp_path / f"work-{traced}-{seed}",
                                 overrides=overrides, **kwargs)


def originals():
    return [(owner, attr, getattr(owner, attr))
            for owner, attr, _, _ in harness.traced_targets(MODS)]


@pytest.mark.parametrize("workload", ["heuristic_3k", "export_pct_3k"])
def test_traced_run_restores_every_module_attribute(workload, tmp_path):
    before = originals()
    result = iterate(workload, tmp_path, traced=True)
    assert not result["problems"]
    assert result["spans"] > 0
    for owner, attr, original in before:
        assert getattr(owner, attr) is original, attr


def test_wrappers_restored_when_iteration_raises():
    before = originals()
    tracer = harness.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.installed(harness.traced_targets(MODS)):
            assert MODS["core"].run is not before[1][2]
            1 / 0
    for owner, attr, original in before:
        assert getattr(owner, attr) is original, attr


def test_self_time_subtracts_direct_children_only():
    tracer = harness.Tracer()
    tracer.names = ["a", "b", "c"]
    # a [0, 100] holds b [10, 50], which holds c [20, 30]; a also holds c [60, 70]
    tracer.rows = [(0, 0, 100, -1, 0), (1, 10, 50, 0, 0), (2, 20, 30, 1, 0),
                   (2, 60, 70, 0, 0)]
    assert tracer.table()["self_ns"].tolist() == [50, 30, 10, 10]


@pytest.mark.parametrize("workload", ["pct_3k", "heuristic_3k", "export_pct_3k"])
def test_no_negative_self_time_and_self_times_sum_to_wall(workload, tmp_path):
    plain = iterate(workload, tmp_path, traced=False)
    traced = iterate(workload, tmp_path, traced=True)
    overhead = traced["wall_s"] - plain["wall_s"]
    assert traced["min_self_ns"] >= 0
    assert traced["wall_s"] - traced["self_sum_s"] >= 0
    assert traced["wall_s"] - traced["self_sum_s"] <= max(overhead, 0.0) + 1e-3


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_untraced_run_wraps_only_init_world_once_per_run(workload, tmp_path):
    result = iterate(workload, tmp_path, traced=False)
    assert result["wrapped"] == ["core.init_world"]
    assert result["init_world_calls"] == 1
    assert not result["problems"]
    assert "layers" not in result


def test_no_tracing_never_reaches_the_app_layer(tmp_path):
    result = iterate("no_tracing_30k", tmp_path, traced=True,
                     overrides={"population_size": 2000, "num_days": 12})
    layers = result["layers"]
    for name in ("messaging.diff_and_emit", "tracing.policy_heuristic",
                 "core.observables_for"):
        assert layers[name]["calls"] == 0, name
    assert layers["mobility.generate_encounters"]["calls"] == 12
    assert result["counters"]["mobility.pairs"] == result["counts"]["encounters"]


def test_traced_counts_match_the_trace(tmp_path):
    plain = iterate("pct_3k", tmp_path, traced=False)
    traced = iterate("pct_3k", tmp_path, traced=True)
    assert traced["digests"] == plain["digests"]
    for key in ("encounters", "new_cases", "tests_ordered", "positives",
                "messages_routed"):
        assert traced["counters"][f"core.{key}"] == plain["counts"][key]
    assert traced["counters"]["messaging.emitted"] >= plain["counts"]["messages_routed"] > 0
    assert traced["layers"]["cli.main"]["calls"] == 1


def test_same_seed_repeats_and_another_seed_differs(tmp_path):
    first = iterate("pct_3k", tmp_path, traced=False, seed=3)
    again = iterate("pct_3k", tmp_path, traced=False, seed=3)
    other = iterate("pct_3k", tmp_path, traced=False, seed=4)
    assert (first["digests"], first["counts"]) == (again["digests"], again["counts"])
    assert first["digests"] != other["digests"]


def test_setup_process_times_the_iteration_config(tmp_path):
    result = iterate("export_pct_3k", tmp_path, traced=False)
    assert result["config"]["population_size"] == SMALL["population_size"]
    assert harness.time_setup(MODS, result["config"]) > 0


def test_disagreeing_iterations_fail_the_run():
    ok = {"problems": [], "digests": {"trace.jsonl": "a"}, "counts": {"encounters": 1}}
    iterations = [dict(ok), dict(ok), dict(ok, digests={"trace.jsonl": "b"}),
                  dict(ok, counts={"encounters": 2}), {"error": "boom"}]
    bench.check_iterations("pct_3k", -1, iterations)
    assert ["failed" in it for it in iterations[:2]] == [False, False]
    assert "not byte-identical" in iterations[2]["failed"]
    assert "not byte-identical" in iterations[3]["failed"]
    assert iterations[4]["failed"] == "boom"


def test_reference_digests_mismatch_fails(monkeypatch):
    refs = {"pct_3k": {"5": {"digests": {"trace.jsonl": "a"}, "counts": {"x": 1}}}}
    monkeypatch.setattr(bench, "references", lambda: refs)
    iterations = [{"problems": [], "digests": {"trace.jsonl": "z"}, "counts": {"x": 1}}]
    bench.check_iterations("pct_3k", 5, iterations)
    assert "differ from references.json" in iterations[0]["failed"]


def test_references_hold_the_seed_zero_anchors():
    refs = json.loads(bench.REFERENCES.read_text())
    for workload in harness.WORKLOADS:
        assert set(refs[workload]) == {str(s) for s in bench.REFERENCE_SEEDS}
    pct, heur, nt = (refs[w]["0"]["counts"] for w in harness.WORKLOADS[:3])
    assert (pct["encounters"], pct["messages_routed"]) == (466396, 2431202)
    assert (heur["encounters"], heur["messages_routed"], heur["cum_cases"]) == (
        654599, 403735, 1190)
    assert (nt["encounters"], nt["cum_cases"]) == (4266326, 2404)
    export = refs["export_pct_3k"]["0"]["counts"]
    assert (export["records"], export["encounters"]) == (90000, 466396)


def test_metric_names_match_benchmark_json():
    spec = bench.load_spec()
    assert [m["name"] for m in spec["end_to_end"]] == list(
        bench.end_to_end_metrics([{"wall_s": 2.0, "setup_s": 1.0, "agent_days": 5,
                                   "peak_rss_mb": 1.0}], [1.0]))
    assert set(bench.LAYER_MAP) <= {m["name"] for m in spec["per_layer"]}


def test_without_program_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(bench.BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(Path(harness.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pct_3k",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
