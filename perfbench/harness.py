"""Workloads, span tracer and the one-iteration runner of the pctsim benchmark.

One iteration is one closed-loop request: build the workload's config from
its seed, run it to its outputs, then digest the outputs and count what the
run did. ``run.py`` starts each iteration in a fresh process, so that the
peak RSS it reads back belongs to that iteration alone:

    python3 perfbench/harness.py REQUEST.json RESULT.json

The tracer records spans from outside the program: it swaps module
attributes such as ``pctsim.messaging.diff_and_emit`` for timing wrappers.
The engine looks these names up on the module at call time, so no source
file changes, and every original is put back when the iteration ends.
Functions a module imports by name (``from .virology import ...``) cannot
be intercepted this way; their cost shows up in the caller's self time.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_CONFIG = ROOT / "configs" / "default.yaml"
WORK_DIR = ROOT / "perfbench" / ".work"
RESULTS_DIR = ROOT / "perfbench" / "results"

# A domain-randomized ``pctsim datagen`` campaign is not a workload: the
# mobility and adoption it draws per run make its cost vary by a fifth or
# more from one master seed to the next. export_pct_3k is one campaign run
# at fixed parameters, so its cost depends on the code, not the draw.
WORKLOADS = ("pct_3k", "heuristic_3k", "no_tracing_30k", "export_pct_3k")


class MissingProgram(RuntimeError):
    """The checkout does not hold the pctsim sources the benchmark measures."""


def program_files_missing() -> list[str]:
    need = [SRC / "pctsim" / "__init__.py", DEFAULT_CONFIG]
    return [str(p.relative_to(ROOT)) for p in need if not p.is_file()]


def import_pctsim():
    """Import pctsim from this checkout's ``src``, never from site-packages."""
    missing = program_files_missing()
    if missing:
        raise MissingProgram(f"pctsim sources not found: {', '.join(missing)}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pctsim
    from pctsim import cli, core, datagen, messaging, metrics, mobility, tracing, virology

    if Path(pctsim.__file__).resolve().parent != (SRC / "pctsim").resolve():
        raise MissingProgram(f"imported pctsim from {pctsim.__file__}, not {SRC}")
    return pctsim, {"core": core, "mobility": mobility, "virology": virology,
                    "messaging": messaging, "tracing": tracing, "metrics": metrics,
                    "datagen": datagen, "cli": cli}


# ----------------------------------------------------------------------
# tracing


class Tracer:
    """In-memory spans around module functions, written out when a run ends.

    A span row is (name id, start ns, end ns, parent row, iteration id).
    Counters are added by per-target hooks that look at a call's result.
    """

    def __init__(self):
        self.names: list[str] = []
        self.rows: list = []
        self.counters: dict[str, float] = {}
        self.iteration = 0
        self._stack = [-1]
        self._saved: list = []

    def count(self, name, value=1):
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, name, fn, hook=None):
        name_id = len(self.names)
        self.names.append(name)
        rows, stack, clock = self.rows, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(rows)
            rows.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rows[idx] = (name_id, start, end, parent, self.iteration)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, targets):
        """Swap each (owner, attribute, span name, hook) for a wrapper."""
        try:
            for owner, attr, name, hook in targets:
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, hook))
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    def table(self):
        """Spans as int64 columns plus each span's self time in ns."""
        import numpy as np

        rows = np.array(self.rows, dtype=np.int64).reshape(-1, 5)
        name_id, start, end, parent, iteration = rows.T
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(rows)).astype(np.int64)
        return {"name_id": name_id, "start_ns": start, "end_ns": end,
                "parent": parent, "iteration": iteration, "self_ns": dur - child}

    def layer_totals(self):
        """{span name: {calls, s, self_s}} summed over all recorded spans."""
        import numpy as np

        t = self.table()
        dur = t["end_ns"] - t["start_ns"]
        out = {}
        for name_id, name in enumerate(self.names):
            sel = t["name_id"] == name_id
            out[name] = {"calls": int(sel.sum()), "s": int(dur[sel].sum()) / 1e9,
                         "self_s": int(t["self_ns"][sel].sum()) / 1e9}
        return out

    def write(self, path):
        import numpy as np

        t = self.table()
        np.savez_compressed(path, names=np.array(self.names), **t)


def _count_run(tracer, args, kwargs, result):
    for key, value in day_report_counts(result).items():
        tracer.count(f"core.{key}", value)


def _count_pairs(tracer, args, kwargs, result):
    tracer.count("mobility.pairs", int(result[0].size))


def _count_courses(tracer, args, kwargs, result):
    tracer.count("virology.courses_sampled", int(args[0] if args else kwargs["n"]))


def _count_emitted(tracer, args, kwargs, result):
    tracer.count("messaging.emitted", len(result))
    tracer.count("messaging.idle_calls", int(not result))


def _count_records(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.count("datagen.records", int(result))
    tracer.count("datagen.bytes_written", os.path.getsize(path))


def untraced_targets(mods):
    """The only wrapper an end-to-end run installs: setup_s needs it."""
    return [(mods["core"], "init_world", "core.init_world", None)]


def traced_targets(mods):
    """Every layer boundary the per-layer metrics are read from."""
    core, virology = mods["core"], mods["virology"]
    return untraced_targets(mods) + [
        (core, "run", "core.run", _count_run),
        (core, "step_day", "core.step_day", None),
        (core, "agent_profile", "core.agent_profile", None),
        (core.WorldState, "observables_for", "core.observables_for", None),
        (mods["mobility"], "generate_encounters", "mobility.generate_encounters",
         _count_pairs),
        (virology, "sample_disease_courses", "virology.sample_disease_courses",
         _count_courses),
        (virology, "evl_tent", "virology.evl_tent", None),
        (virology, "transmission_probability", "virology.transmission_probability",
         None),
        (mods["messaging"], "diff_and_emit", "messaging.diff_and_emit", _count_emitted),
        (mods["tracing"], "policy_heuristic", "tracing.policy_heuristic", None),
        (mods["metrics"], "metrics_row", "metrics.metrics_row", None),
        (mods["datagen"], "export_training_records", "datagen.export_training_records",
         _count_records),
        (mods["cli"], "main", "cli.main", None),
    ]


# ----------------------------------------------------------------------
# workloads


COUNT_FIELDS = {"encounters": "encounters", "new_cases": "new_cases",
                "tests_ordered": "tests_ordered", "positives": "positives",
                "messages_routed": "messages"}


def day_report_counts(trace) -> dict:
    return {name: sum(getattr(r, field) for r in trace.day_reports)
            for name, field in COUNT_FIELDS.items()}


def workload_config(mods, workload, seed, overrides=None):
    """The workload's config at ``seed``, built from configs/default.yaml."""
    core, cli = mods["core"], mods["cli"]
    cfg = core.load_config(DEFAULT_CONFIG).replace(rng_seed=int(seed))
    if workload == "pct_3k":
        cfg = cli._fast(cfg)
    elif workload == "heuristic_3k":
        cfg = cli._fast(cfg.replace(policy="heuristic", risk_thresholds=None))
    elif workload == "no_tracing_30k":
        cfg = cli._fast(cfg.replace(policy="no_tracing", population_size=30000))
    elif workload != "export_pct_3k":  # recording stays on, as datagen runs it
        raise ValueError(f"unknown workload: {workload}")
    return cfg.replace(**(overrides or {})).validate()


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _export(mods, cfg, out):
    """One dataset-campaign run at fixed parameters: simulate, then export."""
    trace = mods["core"].run(cfg)
    path = out / f"{trace.run_id}.records.jsonl"
    n_records = mods["datagen"].export_training_records(trace, path)
    mods["metrics"].metrics_row(trace, cfg.rng_seed)
    return trace, path, n_records


def _read_run_outputs(out):
    """Exact counts and invariant problems from ``pctsim run`` output files."""
    with open(out / "trace.jsonl") as fh:
        header, *days = [json.loads(line) for line in fh]
    with open(out / "events.jsonl") as fh:
        n_events = sum(1 for _ in fh)
    counts = {name: sum(d[field] for d in days) for name, field in COUNT_FIELDS.items()}
    counts["cum_cases"] = days[-1]["cum_cases"] if days else 0
    problems = []
    if len(days) != header["num_days"]:
        problems.append(f"trace.jsonl has {len(days)} day records")
    if n_events != counts["cum_cases"]:
        problems.append(f"events.jsonl has {n_events} lines, cum_cases {counts['cum_cases']}")
    if any(d["s"] + d["e"] + d["i"] + d["r"] != header["population"] for d in days):
        problems.append("compartments do not sum to the population")
    return counts, problems, header["population"] * header["num_days"]


def run_iteration(mods, workload, seed, *, traced, work_dir, overrides=None,
                  iteration=0, spans_path=None):
    """Run one iteration and return its measurements as a JSON-able dict.

    ``traced`` selects the full wrapper set; otherwise only init_world is
    wrapped, for ``setup_s``. Outputs go to
    ``work_dir``, which is emptied afterwards.
    """
    work_dir = Path(work_dir)
    out = work_dir / "out"
    out.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    tracer.iteration = iteration
    targets = traced_targets(mods) if traced else untraced_targets(mods)
    result = {"workload": workload, "seed": int(seed), "traced": bool(traced)}
    try:
        cfg = workload_config(mods, workload, seed, overrides)
        if workload == "export_pct_3k":
            call = lambda: _export(mods, cfg, out)  # noqa: E731
        else:
            cfg_path = work_dir / "config.json"
            cfg_path.write_text(json.dumps(cfg.to_dict(), sort_keys=True))
            argv = ["run", "--config", str(cfg_path), "--seed", str(cfg.rng_seed),
                    "--out", str(out)]
            call = lambda: mods["cli"].main(argv)  # noqa: E731
        gc.collect()
        with tracer.installed(targets):
            root = tracer.wrap("bench.iteration", call) if traced else call
            start = time.perf_counter_ns()
            value = root()
            wall_ns = time.perf_counter_ns() - start
        result["wall_s"] = wall_ns / 1e9
        init_spans = [r for r in tracer.rows if tracer.names[r[0]] == "core.init_world"]
        result["init_world_calls"] = len(init_spans)
        result["setup_s"] = sum(r[2] - r[1] for r in init_spans) / 1e9
        result["wrapped"] = sorted(set(tracer.names) - {"bench.iteration"})

        if workload == "export_pct_3k":
            trace, path, n_records = value
            files = [path]
            problems = []
            result["counts"] = dict(day_report_counts(trace), records=n_records,
                                    bytes_written=path.stat().st_size)
            result["agent_days"] = trace.population * trace.num_days
            del trace, value
        else:
            files = [out / "trace.jsonl", out / "events.jsonl"]
            problems = [] if value == 0 else [f"pctsim run exited with code {value}"]
            if not problems:
                counts, more, agent_days = _read_run_outputs(out)
                problems += more
                result.update(counts=counts, agent_days=agent_days)
        if result["init_world_calls"] != 1:
            problems.append(f"init_world called {result['init_world_calls']} times")
        result["problems"] = problems
        if not problems:
            result["digests"] = {p.name: sha256_file(p) for p in files}

        if traced:
            result["layers"] = tracer.layer_totals()
            result["counters"] = dict(tracer.counters)
            table = tracer.table()
            result["min_self_ns"] = int(table["self_ns"].min())
            result["self_sum_s"] = int(table["self_ns"].sum()) / 1e9
            result["spans"] = len(table["self_ns"])
            if spans_path is not None:
                tracer.write(spans_path)

        result["config"] = cfg.to_dict()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return result


def time_setup(mods, config_dict) -> float:
    """Seconds inside init_world for the config an iteration ran."""
    cfg = mods["core"].SimConfig.from_mapping(config_dict)
    gc.collect()
    start = time.perf_counter_ns()
    mods["core"].init_world(cfg)
    return (time.perf_counter_ns() - start) / 1e9


def versions(pctsim_module) -> dict:
    import numpy
    import scipy

    return {"pctsim": pctsim_module.__version__, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def main(argv) -> int:
    request_path, result_path = argv
    request = json.loads(Path(request_path).read_text())
    pctsim_module, mods = import_pctsim()
    if "setup_config" in request:
        result = {"setup_s": time_setup(mods, request["setup_config"])}
    else:
        result = run_iteration(
            mods, request["workload"], request["seed"], traced=request["traced"],
            work_dir=request["work_dir"],
            iteration=request.get("iteration", 0), spans_path=request.get("spans_path"))
    result["versions"] = versions(pctsim_module)
    Path(result_path).write_text(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
