"""pctsim benchmark: end-to-end metrics, per-layer spans and an output check.

Each workload is a closed loop of one client: it runs one iteration at a
time, each in a fresh child process, until ``--seconds`` have passed (at
least one iteration). Metrics are medians over the iterations of the run.

    python3 perfbench/run.py                          # every workload, seed 0
    python3 perfbench/run.py --workload pct_3k --seed 3 --seconds 10
    python3 perfbench/run.py --workload pct_3k --traced   # per-layer numbers
    python3 perfbench/run.py --regenerate-references  # only for PRs that
                                                      # mean to change outputs

Every metric is printed by name with its unit and direction. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; with ``--trace 0`` the metrics are
the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its per-layer
metrics. A traced run pairs every traced iteration with an untraced one of
the same seed and reports the difference as the tracing overhead.

An iteration fails if it raises, its process exits non-zero, an output
invariant breaks, or its output digests or exact counts differ from
``references.json`` (for the seeds stored there) or from another iteration
of the same seed. The result file under ``perfbench/results/`` carries the
run manifest, every iteration's measurements and the exact-count block.

The harness tests itself with ``python3 -m pytest -q perfbench/test_harness.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import RESULTS_DIR, ROOT, WORK_DIR, WORKLOADS, program_files_missing

BENCHMARK = ROOT / "BENCHMARK.json"
REFERENCES = Path(__file__).resolve().parent / "references.json"
HARNESS = Path(__file__).resolve().parent / "harness.py"
# The default seed and one seed held out from tuning the benchmark.
REFERENCE_SEEDS = (0, 9001)
RUN_BUDGET_S = 165.0  # a run must end within 180 s
# Set-up-only processes per untraced run, so setup_s is a median of cold
# init_world calls even when the run has time for one iteration only.
SETUP_REPEATS = 4

# Which end-to-end metric each per-layer metric should move, and where.
LAYER_MAP = {
    "core.step_day.self_s": "wall_s, agent_days_per_s on pct_3k, heuristic_3k "
                            "(routing, inbox apply, contact registration)",
    "core.step_day.calls": "wall_s, agent_days_per_s on pct_3k, heuristic_3k",
    "core.init_world.s": "setup_s on no_tracing_30k",
    "core.observables_for.s": "wall_s on heuristic_3k",
    "core.observables_for.calls": "wall_s on heuristic_3k",
    "core.agent_profile.calls": "wall_s on heuristic_3k",
    "mobility.generate_encounters.s": "agent_days_per_s on no_tracing_30k",
    "mobility.generate_encounters.calls": "agent_days_per_s on no_tracing_30k",
    "mobility.pairs": "agent_days_per_s on no_tracing_30k",
    "virology.s": "guards no_tracing_30k",
    "virology.courses_sampled": "guards no_tracing_30k",
    "messaging.diff_and_emit.s": "wall_s on pct_3k, heuristic_3k, export_pct_3k",
    "messaging.diff_and_emit.calls": "wall_s on pct_3k, heuristic_3k, export_pct_3k",
    "messaging.emitted": "wall_s on pct_3k, heuristic_3k, export_pct_3k",
    "messaging.routed_ratio": "wall_s on pct_3k, heuristic_3k, export_pct_3k",
    "messaging.idle_call_ratio": "wall_s on pct_3k, heuristic_3k, export_pct_3k",
    "tracing.policy_heuristic.s": "wall_s on heuristic_3k",
    "tracing.policy_heuristic.calls": "wall_s on heuristic_3k",
    "metrics.metrics_row.s": "guards wall_s on every workload",
    "datagen.export_training_records.s": "wall_s on export_pct_3k",
    "datagen.records": "wall_s on export_pct_3k",
    "datagen.records_per_s": "wall_s on export_pct_3k",
    "datagen.bytes_written": "peak_rss_mb, wall_s on export_pct_3k",
    "datagen.bytes_per_record": "peak_rss_mb, wall_s on export_pct_3k",
    "cli.main.self_s": "wall_s on pct_3k, heuristic_3k, no_tracing_30k "
                       "(config load, trace and CSV writing of pctsim run)",
}


def load_spec():
    spec = json.loads(BENCHMARK.read_text())
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def run_manifest(seed, versions):
    """Package, toolchain and machine facts that every result file carries."""
    commit, dirty = None, None
    if (ROOT / ".git").exists() and shutil.which("git"):
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, check=True,
                                    timeout=30).stdout.strip()
            status = subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, check=True, timeout=30).stdout
            dirty = bool(status.strip())
        except (subprocess.SubprocessError, OSError):
            commit, dirty = None, None
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return dict(versions or {}, git_commit=commit, git_dirty=dirty,
                nproc=os.cpu_count(), cpu_model=cpu, seed=seed)


def spawn_iteration(request, deadline):
    """Run one iteration in a child process; return (result, peak RSS MB).

    The child's own rusage gives a peak RSS that belongs to this iteration
    alone. A child still running at ``deadline`` is killed and counted as
    failed.
    """
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    tag = f"{request['workload']}-{os.getpid()}-{time.monotonic_ns()}"
    work = WORK_DIR / tag
    req_path, res_path = WORK_DIR / f"{tag}.request.json", WORK_DIR / f"{tag}.result.json"
    request = dict(request, work_dir=str(work))
    req_path.write_text(json.dumps(request))
    # the child's stdout carries progress lines only; keep ours for the result
    proc = subprocess.Popen([sys.executable, str(HARNESS), str(req_path), str(res_path)],
                            stdout=sys.stderr.fileno(), cwd=ROOT)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = -signal.SIGKILL
                return {"error": "timed out"}, None
            time.sleep(0.02)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0 or not res_path.exists():
            return {"error": f"iteration exited with code {proc.returncode}"}, None
        return json.loads(res_path.read_text()), usage.ru_maxrss / 1024.0
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        for path in (req_path, res_path):
            path.unlink(missing_ok=True)
        shutil.rmtree(work, ignore_errors=True)


def references():
    return json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}


def check_iterations(workload, seed, iterations):
    """Mark each iteration that failed, disagrees with the references, or
    disagrees with the first iteration: runs of one seed are byte-identical."""
    ref = references().get(workload, {}).get(str(seed))
    first = None
    for it in iterations:
        if "error" in it:
            it["failed"] = it["error"]
            continue
        problems = list(it["problems"])
        if ref is not None and not problems:
            if it["digests"] != ref["digests"]:
                problems.append("output digests differ from references.json")
            if it["counts"] != ref["counts"]:
                problems.append(f"exact counts {it['counts']} differ from "
                                f"references.json {ref['counts']}")
        first = first or it
        if (it.get("digests"), it.get("counts")) != (first.get("digests"),
                                                     first.get("counts")):
            problems.append("iterations of one seed disagree: runs are not "
                            "byte-identical")
        if problems:
            it["failed"] = "; ".join(problems)


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(ok, setup_samples):
    return {
        "wall_s": _median([it["wall_s"] for it in ok]),
        "setup_s": _median([it["setup_s"] for it in ok] + setup_samples),
        "agent_days_per_s": _median([it["agent_days"] / (it["wall_s"] - it["setup_s"])
                                     for it in ok]),
        "peak_rss_mb": _median([it["peak_rss_mb"] for it in ok]),
    }


def per_layer_metrics(pairs):
    """Per-layer metrics from (untraced, traced) iteration pairs."""

    def med(fn):
        return _median([fn(traced) for _, traced in pairs])

    def span(name, key="s"):
        return med(lambda t: t["layers"].get(name, {}).get(key, 0))

    def counter(name):
        return med(lambda t: t["counters"].get(name, 0))

    def ratio(num, den):
        return med(lambda t: num(t) / den(t) if den(t) else 0.0)

    emitted = lambda t: t["counters"].get("messaging.emitted", 0)  # noqa: E731
    emit_calls = lambda t: t["layers"]["messaging.diff_and_emit"]["calls"]  # noqa: E731
    records = lambda t: t["counters"].get("datagen.records", 0)  # noqa: E731
    export_s = lambda t: t["layers"]["datagen.export_training_records"]["s"]  # noqa: E731
    virology = ("virology.sample_disease_courses", "virology.evl_tent",
                "virology.transmission_probability")
    out = {
        "core.step_day.self_s": span("core.step_day", "self_s"),
        "core.step_day.calls": span("core.step_day", "calls"),
        "core.init_world.s": span("core.init_world"),
        "core.observables_for.s": span("core.observables_for"),
        "core.observables_for.calls": span("core.observables_for", "calls"),
        "core.agent_profile.calls": span("core.agent_profile", "calls"),
    }
    for key in ("encounters", "new_cases", "tests_ordered", "positives",
                "messages_routed"):
        out[f"core.{key}"] = counter(f"core.{key}")
    out.update({
        "mobility.generate_encounters.s": span("mobility.generate_encounters"),
        "mobility.generate_encounters.calls": span("mobility.generate_encounters", "calls"),
        "mobility.pairs": counter("mobility.pairs"),
        "virology.s": med(lambda t: sum(t["layers"][n]["s"] for n in virology)),
        "virology.courses_sampled": counter("virology.courses_sampled"),
        "messaging.diff_and_emit.s": span("messaging.diff_and_emit"),
        "messaging.diff_and_emit.calls": span("messaging.diff_and_emit", "calls"),
        "messaging.emitted": counter("messaging.emitted"),
        "messaging.routed_ratio": ratio(
            lambda t: t["counters"].get("core.messages_routed", 0), emitted),
        "messaging.idle_call_ratio": ratio(
            lambda t: t["counters"].get("messaging.idle_calls", 0), emit_calls),
        "tracing.policy_heuristic.s": span("tracing.policy_heuristic"),
        "tracing.policy_heuristic.calls": span("tracing.policy_heuristic", "calls"),
        "metrics.metrics_row.s": span("metrics.metrics_row"),
        "datagen.export_training_records.s": span("datagen.export_training_records"),
        "datagen.records": counter("datagen.records"),
        "datagen.records_per_s": ratio(records, export_s),
        "datagen.bytes_written": counter("datagen.bytes_written"),
        "datagen.bytes_per_record": ratio(
            lambda t: t["counters"].get("datagen.bytes_written", 0), records),
        "cli.main.self_s": span("cli.main", "self_s"),
        "bench.traced_wall_s": med(lambda t: t["wall_s"]),
        "bench.trace_overhead_s": _median([t["wall_s"] - u["wall_s"] for u, t in pairs]),
    })
    return out


def run_workload(workload, seed, seconds, traced):
    """Closed loop of iterations for ``seconds``; returns the result dict.

    Each step runs one untraced iteration and, when ``traced``, a traced
    iteration of the same seed right after it.
    """
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    batches, setup_samples, longest = [], [], 0.0
    while True:
        began = time.monotonic()
        request = {"workload": workload, "seed": seed, "iteration": len(batches)}
        batch = []
        for traced_now in (False, True) if traced else (False,):
            spans = RESULTS_DIR / f"spans-{workload}-s{seed}-i{len(batches)}.npz"
            it, rss = spawn_iteration(
                dict(request, traced=traced_now,
                     spans_path=str(spans) if traced_now else None), deadline)
            it.update(peak_rss_mb=rss, traced=traced_now)
            batch.append(it)
        if not traced and not setup_samples and batch[0].get("config"):
            for _ in range(SETUP_REPEATS):
                setup, _ = spawn_iteration({"workload": workload,
                                            "setup_config": batch[0]["config"]},
                                           deadline)
                if "error" in setup:
                    batch[0]["error"] = f"set-up process: {setup['error']}"
                    break
                setup_samples.append(setup["setup_s"])
        batches.append(batch)
        now = time.monotonic()
        longest = max(longest, now - began)
        if now - start >= seconds or now + longest > deadline:
            break

    iterations = [it for batch in batches for it in batch]
    check_iterations(workload, seed, iterations)
    failed = [it for it in iterations if "failed" in it]
    ok = [it for it in iterations if "failed" not in it and not it["traced"]]
    pairs = [batch for batch in batches
             if len(batch) == 2 and not any("failed" in it for it in batch)]
    versions = next((it["versions"] for it in iterations if "versions" in it), None)
    return {
        "workload": workload,
        "correct": not failed and bool(ok) and (not traced or bool(pairs)),
        "attempted": len(iterations),
        "failed": len(failed),
        "failures": [it["failed"] for it in failed],
        "end_to_end": end_to_end_metrics(ok, setup_samples) if ok else {},
        "per_layer": per_layer_metrics(pairs) if pairs else {},
        "setup_samples": setup_samples,
        "counts": ok[0]["counts"] if ok else None,  # the exact-count block
        "manifest": run_manifest(seed, versions),
        "iterations": iterations,
    }


def write_result(result, seed, traced):
    path = RESULTS_DIR / f"{result['workload']}-s{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True))
    return path


def print_report(result, spec, traced, out):
    """Every metric by name, with unit and direction."""
    name = result["workload"]
    print(f"== {name}: {result['attempted']} iterations, {result['failed']} failed, "
          f"correct={result['correct']}", file=out)
    for why in result["failures"]:
        print(f"   FAILED: {why}", file=out)
    rows = [(m, result["end_to_end"]) for m in spec["end_to_end"]]
    if traced:
        rows += [(m, result["per_layer"]) for m in spec["per_layer"]]
    for m, values in rows:
        value = values.get(m["name"])
        shown = "n/a" if value is None else f"{value:.6g}"
        moves = LAYER_MAP.get(m["name"], "")
        print(f"   {m['name']:<36} {shown:>14} {m['unit']:<6} "
              f"{m['better']} is better" + (f"  -> {moves}" if moves else ""), file=out)
    if result["counts"] is not None:
        print(f"   exact counts: {json.dumps(result['counts'], sort_keys=True)}", file=out)


def regenerate(workloads):
    """Rewrite references.json from the current code, for the reference seeds."""
    refs = references()
    for workload in workloads:
        for seed in REFERENCE_SEEDS:
            it, _ = spawn_iteration({"workload": workload, "seed": seed,
                                     "traced": False}, time.monotonic() + RUN_BUDGET_S)
            if "error" in it or it["problems"]:
                print(f"{workload} seed {seed}: {it.get('error') or it['problems']}",
                      file=sys.stderr)
                return 2
            refs.setdefault(workload, {})[str(seed)] = {
                "digests": it["digests"], "counts": it["counts"]}
            print(f"{workload} seed {seed}: {json.dumps(it['counts'])}")
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCES}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long each workload keeps starting iterations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--regenerate-references", action="store_true",
                        help="rewrite references.json from the current outputs")
    args = parser.parse_args(argv)
    traced = bool(args.trace or args.traced)

    missing = program_files_missing()
    if missing:
        print(f"error: pctsim sources not found: {', '.join(missing)}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.regenerate_references:
        return regenerate(workloads)

    spec = load_spec()
    kind = "per_layer" if traced else "end_to_end"
    results = []
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, traced)
        path = write_result(result, args.seed, traced)
        print_report(result, spec, traced, sys.stdout)
        print(f"   result file: {path.relative_to(ROOT)}")
        results.append(result)

    def entries(result, prefix):
        return {prefix + m["name"]: {"value": result[kind].get(m["name"], 0.0),
                                     "unit": m["unit"]} for m in spec[kind]}

    prefixed = len(results) > 1
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: v for r in results
                    for k, v in entries(r, r["workload"] + "/" if prefixed else "").items()},
    }
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
