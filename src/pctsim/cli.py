"""Experiment runner: single runs, sweeps, dataset campaigns, calibration.

Each command takes only the flags it reads; any other flag, or an
abbreviated one, is a usage error, as is an unknown --policies name.
Exit codes are a stable contract: 0 success, 1 usage or config error,
2 runtime failure. The TRACE_SIM_SEED environment variable overrides the
config file's rng_seed (an explicit --seed flag still wins).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import core, datagen, messaging, metrics

EXIT_OK, EXIT_USAGE, EXIT_RUNTIME = 0, 1, 2

DEFAULT_TARGET_CONTACTS = 5.61
DEFAULT_CONTACT_TOLERANCE = 0.5
MAX_BISECTION_STEPS = 40
MAX_SCALE = 512.0
# the fields calibrate() sets on its runs, so its result does not read them
_SET_BY_CALIBRATION = ("policy", "predictor", "external_predictions", "global_mobility_scale",
                       "record_observables", "record_estimates", "record_encounter_log")


class _Parser(argparse.ArgumentParser):
    """Argparse with usage errors mapped onto exit code 1, and no abbreviated flags."""

    def __init__(self, **kwargs):  # else a sweep would read --policy as --policies
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_float_list(text):
    """Accept '0.5,1,2'; an empty list is an error."""
    values = [float(x) for x in text.split(",") if x.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"{text!r} names no value")
    return values


def _parse_seed_list(text):
    """Accept '0,1,5' or a range '0..11' (inclusive); an empty list is an error."""
    if ".." in text:
        lo, hi = text.split("..")
        seeds = list(range(int(lo), int(hi) + 1))
    else:
        seeds = [int(x) for x in text.split(",") if x.strip()]
    if not seeds:
        raise argparse.ArgumentTypeError(f"{text!r} names no seed")
    return seeds


def _parse_policy_list(text):
    """Accept 'pct,NT', each name read as SimConfig reads it; an unknown name is an error."""
    try:
        return [core.SimConfig(policy=name).validate().policy for name in text.split(",")]
    except core.ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text):
    """An integer of at least 1, such as a count of jobs or runs."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _positive_float(text):
    """A finite number above 0, such as a target or a tolerance."""
    value = float(text)
    if not 0.0 < value < math.inf:  # NaN fails too
        raise argparse.ArgumentTypeError(f"must be finite and above 0, got {text}")
    return value


def _load_config(args) -> core.SimConfig:
    cfg = core.load_config(args.config)
    env_seed = os.environ.get("TRACE_SIM_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise core.ConfigError(
                f"TRACE_SIM_SEED: must be an integer, got {env_seed!r}") from None
        cfg = cfg.replace(rng_seed=seed)
    if getattr(args, "seed", None) is not None:
        cfg = cfg.replace(rng_seed=args.seed)
    if getattr(args, "policy", None):
        cfg = cfg.replace(policy=args.policy)
    if getattr(args, "predictor", None):
        cfg = cfg.replace(predictor=args.predictor)
    return cfg.validate()


def _sweep_worker(cfg: core.SimConfig) -> dict:
    """Run one sweep point and return its metrics row; never raises."""
    try:
        trace = core.run(cfg)
        return metrics.metrics_row(trace, cfg.rng_seed)
    except Exception as exc:  # flagged row; the sweep continues
        return {
            "config_hash": metrics.config_hash(cfg.to_dict()),
            "seed": cfg.rng_seed,
            "policy": cfg.policy,
            "adoption": cfg.adoption_rate,
            "mobility_scale": cfg.global_mobility_scale,
            "contacts": "nan", "r": "nan", "cumulative_cases": 0,
            "false_quarantine": "nan",
            "status": f"error: {type(exc).__name__}: {exc}",
        }


def _datagen_worker(cfg: core.SimConfig, out: Path) -> tuple[dict, dict | None]:
    """Run and export one campaign run: (manifest fields, metrics row or None); never raises."""
    try:
        trace = core.run(cfg)
        records_file = f"{trace.run_id}.records.jsonl"
        n_records = datagen.export_training_records(trace, out / records_file)
        return ({"run_id": trace.run_id, "records_file": records_file,
                 "n_records": n_records, "status": "ok"},
                metrics.metrics_row(trace, cfg.rng_seed))
    except Exception as exc:  # flagged entry; the campaign continues
        return {"status": f"error: {type(exc).__name__}: {exc}"}, None


def _pareto_worker(cfg: core.SimConfig) -> tuple[float, float]:
    """(contacts, R) of one run."""
    return metrics.pareto_point(core.run(cfg))


@contextlib.contextmanager
def _pool(jobs: int, n_runs: int):
    """A pool of up to ``jobs`` processes for ``n_runs`` runs at once, or None for one.

    Workers are spawned, not forked, so no thread state of the caller is copied.
    """
    if min(jobs, n_runs) <= 1:
        yield None
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, n_runs),
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            yield pool


def _map_runs(worker, cfg_points, pool):
    """Iterate ``worker`` of each config, in order, in ``pool`` or in-process."""
    return (map if pool is None else pool.map)(worker, cfg_points)


def _fast(cfg: core.SimConfig) -> core.SimConfig:
    """Metrics-only variant: skip the heavy per-agent recording."""
    return cfg.replace(record_observables=False, record_estimates=False,
                       record_encounter_log=False)


def cmd_run(args) -> int:
    cfg = _load_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace = core.run(cfg)
    trace.write(out / "trace.jsonl", out / "events.jsonl")
    row = metrics.metrics_row(trace, cfg.rng_seed)
    metrics.write_metrics_csv(out / "metrics.csv", [row])
    print(f"run {trace.run_id}: {len(trace.events)} cases, "
          f"contacts {row['contacts']}, R {row['r']}, "
          f"false quarantine {row['false_quarantine']}")
    print(f"wrote {out / 'trace.jsonl'}, {out / 'events.jsonl'}, {out / 'metrics.csv'}")
    return EXIT_OK


def _sweep(args, field, values) -> int:
    """Run every (``field`` value, seed, policy) point; write one metrics row per point.

    A value repeated on any axis is dropped with a warning, so no two
    points are the same run, and every point is validated before any runs.
    """
    cfg = _fast(_load_config(args))
    axes = []
    for name, given in ((field, values), ("seed", args.seeds), ("policy", args.policies)):
        axis = []
        for value in given:
            if value in axis:
                print(f"warning: duplicate {name} {value} ignored", file=sys.stderr)
            else:
                axis.append(value)
        axes.append(axis)
    points = [cfg.replace(**{field: v}, rng_seed=sd, policy=pol).validate()
              for v in axes[0] for sd in axes[1] for pol in axes[2]]
    with _pool(args.jobs, len(points)) as pool:
        rows = list(_map_runs(_sweep_worker, points, pool))
    metrics.write_metrics_csv(args.out, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_pareto(args) -> int:
    return _sweep(args, "global_mobility_scale", args.scales)


def cmd_adoption(args) -> int:
    return _sweep(args, "adoption_rate", args.adoptions)


def cmd_datagen(args) -> int:
    base = _load_config(args)
    if base.policy == "no_tracing":
        base = base.replace(policy="pct", predictor="noisy_oracle")
    base = base.replace(record_observables=True)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(base.rng_seed)
    cfgs = []
    for _ in range(args.n_runs):
        cfg = datagen.sample_dr_config(base, rng)
        cfgs.append(cfg.replace(rng_seed=int(rng.integers(0, 2**31))))
    runs, rows = [], []
    with _pool(args.jobs, len(cfgs)) as pool:
        results = _map_runs(functools.partial(_datagen_worker, out=out), cfgs, pool)
        for i, (cfg, (fields, row)) in enumerate(zip(cfgs, results)):
            entry = {"index": i, "seed": cfg.rng_seed,
                     "config_hash": metrics.config_hash(cfg.to_dict()),
                     "config": cfg.to_dict(), **fields}
            if row is None:
                print(f"run {i + 1}/{args.n_runs} failed: {entry['status']}",
                      file=sys.stderr)
            else:
                rows.append(row)
                print(f"run {i + 1}/{args.n_runs}: {entry['run_id']} "
                      f"({entry['n_records']} records)")
            runs.append(entry)
    ok_ids = [e["run_id"] for e in runs if e["status"] == "ok"]
    if len(ok_ids) >= 2:
        train, valid = datagen.make_split(ok_ids, seed=base.rng_seed)
    else:  # too few runs to split; keep the manifest useful anyway
        train, valid = ok_ids, []
    split = {"train": train, "valid": valid}
    (out / "split.json").write_text(json.dumps(split, indent=2, sort_keys=True))
    manifest = {
        "schema_version": datagen.RECORD_SCHEMA_VERSION,
        "master_seed": base.rng_seed,
        "base_config_hash": metrics.config_hash(base.to_dict()),
        "runs": runs,
        "split": split,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    metrics.write_metrics_csv(out / "metrics.csv", rows)
    print(f"wrote manifest for {len(ok_ids)}/{args.n_runs} runs to {out}")
    return EXIT_OK if ok_ids else EXIT_RUNTIME


def _nt_point(cfg: core.SimConfig, scale: float, seeds, pool) -> tuple[float, float]:
    """Mean (contacts, R) for the no-tracing baseline at one scale."""
    points = [cfg.replace(global_mobility_scale=scale, rng_seed=seed) for seed in seeds]
    contacts, rs = zip(*_map_runs(_pareto_worker, points, pool))
    finite = [r for r in rs if not math.isnan(r)]
    return float(np.mean(contacts)), float(np.mean(finite)) if finite else math.nan


def _fit_scale(nt_point, target_contacts, tolerance, log) -> tuple[float, float, float]:
    """Bracket, then bisect, the scale whose ``nt_point`` contacts hit the target."""
    lo, c_lo = 0.0, 0.0
    hi = 1.0
    c_hi, r_hi = nt_point(hi)
    log(f"scale {hi:.4f}: contacts {c_hi:.3f}")
    while c_hi < target_contacts and hi < MAX_SCALE:
        lo, c_lo = hi, c_hi
        hi *= 2.0
        c_hi, r_hi = nt_point(hi)
        log(f"scale {hi:.4f}: contacts {c_hi:.3f}")
    if c_hi < target_contacts:
        raise RuntimeError(
            f"calibration failed to bracket target {target_contacts}: achieved "
            f"contacts range [{c_lo:.3f}, {c_hi:.3f}] over scales [{lo}, {hi}]")
    best_scale, best_contacts, best_r = hi, c_hi, r_hi
    for _ in range(MAX_BISECTION_STEPS):
        # refine well inside the tolerance so downstream comparisons run
        # near the target, not at its edge
        if abs(best_contacts - target_contacts) <= 0.2 * tolerance:
            break
        mid = 0.5 * (lo + hi)
        c_mid, r_mid = nt_point(mid)
        log(f"scale {mid:.4f}: contacts {c_mid:.3f}")
        if abs(c_mid - target_contacts) < abs(best_contacts - target_contacts):
            best_scale, best_contacts, best_r = mid, c_mid, r_mid
        if c_mid < target_contacts:
            lo = mid
        else:
            hi = mid
    if abs(best_contacts - target_contacts) > tolerance:
        raise RuntimeError(
            f"calibration did not converge: best contacts {best_contacts:.3f} at "
            f"scale {best_scale:.4f}, target {target_contacts} +- {tolerance}")
    return best_scale, best_contacts, best_r


def calibrate(cfg: core.SimConfig, target_contacts: float, seeds,
              tolerance: float = DEFAULT_CONTACT_TOLERANCE, log=print,
              jobs: int = 1) -> dict:
    """Find the mobility scale hitting the target contacts, then thresholds.

    Bisection over global_mobility_scale drives the no-tracing mean
    effective contacts to within the tolerance of the target; risk
    thresholds are then calibrated on the positive predictions emitted by
    a noisy-oracle run at the found scale.

    The per-seed runs of each scale go to one pool of up to ``jobs``
    processes; the result does not depend on ``jobs``.

    Raises RuntimeError when the search cannot bracket the target, with
    the achieved contact range in the message.
    """
    nt = _fast(cfg).replace(policy="no_tracing")
    with _pool(jobs, len(seeds)) as pool:
        best_scale, best_contacts, best_r = _fit_scale(
            lambda scale: _nt_point(nt, scale, seeds, pool), target_contacts, tolerance, log)

    traffic_cfg = cfg.replace(policy="pct", predictor="noisy_oracle",
                              global_mobility_scale=best_scale,
                              rng_seed=seeds[0], record_observables=False,
                              record_estimates=True, record_encounter_log=False)
    trace = core.run(traffic_cfg)
    samples = trace.yhat_hist.ravel()
    samples = samples[samples > 0.0]
    thresholds = messaging.calibrate_thresholds(samples.astype(np.float64))
    return {
        "mobility_scale": best_scale,
        "achieved_contacts": best_contacts,
        "mean_r": best_r,
        "target_contacts": target_contacts,
        "tolerance": tolerance,
        "seeds": list(seeds),
        "config_hash": metrics.config_hash({k: v for k, v in cfg.to_dict().items()
                                            if k not in _SET_BY_CALIBRATION}),
        "thresholds": [float(t) for t in thresholds],
    }


def cmd_calibrate(args) -> int:
    cfg = _load_config(args)
    seeds = args.seeds if args.seeds is not None else [cfg.rng_seed + i for i in range(8)]
    result = calibrate(cfg, args.target_contacts, seeds, args.tolerance, jobs=args.jobs)
    Path(args.out).write_text(json.dumps(result, indent=2, sort_keys=True))
    print(f"calibrated mobility scale {result['mobility_scale']:.4f}: "
          f"contacts {result['achieved_contacts']:.3f} "
          f"(target {args.target_contacts} +- {args.tolerance}), mean R {result['mean_r']:.3f}")
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="pctsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # one parent parser per shared flag; each command lists the flags it reads
    config, jobs, policy, predictor, seeds = (argparse.ArgumentParser(add_help=False)
                                              for _ in range(5))
    config.add_argument("--config", required=True, help="config file (YAML or JSON)")
    jobs.add_argument("--jobs", type=_positive_int, default=os.cpu_count() or 1,
                      help="max concurrent runs (default: available parallelism)")
    policy.add_argument("--policy", help="override the config policy")
    predictor.add_argument("--predictor", help="override the config predictor")
    seeds.add_argument("--seeds", type=_parse_seed_list, default=list(range(12)),
                       help="seed list '0,1,2' or range '0..11'")

    p = sub.add_parser("run", parents=[config, policy, predictor],
                       help="single run: trace, events, metrics")
    p.add_argument("--seed", type=int, default=None, help="override rng_seed")
    p.add_argument("--out", default="out", help="output directory")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("pareto", parents=[config, jobs, predictor, seeds],
                       help="mobility-scale sweep to CSV")
    p.add_argument("--scales", type=_parse_float_list, required=True,
                   help="comma-separated mobility scales")
    p.add_argument("--policies", type=_parse_policy_list, default=list(core.POLICIES),
                   help="comma-separated policies (default: all)")
    p.add_argument("--out", default="pareto.csv", help="output CSV path")
    p.set_defaults(func=cmd_pareto)

    p = sub.add_parser("adoption", parents=[config, jobs, predictor, seeds],
                       help="adoption-rate sweep to CSV")
    p.add_argument("--adoptions", type=_parse_float_list, required=True,
                   help="comma-separated adoption rates")
    p.add_argument("--policies", type=_parse_policy_list, default=["bct", "heuristic", "pct"],
                   help="comma-separated policies (default: bct,heuristic,pct)")
    p.add_argument("--out", default="adoption.csv", help="output CSV path")
    p.set_defaults(func=cmd_adoption)

    p = sub.add_parser("datagen", parents=[config, jobs, policy, predictor],
                       help="domain-randomized dataset campaign")
    p.add_argument("--n-runs", type=_positive_int, default=6, help="number of runs")
    p.add_argument("--out", default="dataset", help="output directory")
    p.set_defaults(func=cmd_datagen)

    p = sub.add_parser("calibrate", parents=[config, jobs],
                       help="fit mobility scale and risk thresholds")
    p.add_argument("--seeds", type=_parse_seed_list, default=None,
                   help="seed list (default: 8 seeds from the config seed)")
    p.add_argument("--target-contacts", type=_positive_float, default=DEFAULT_TARGET_CONTACTS,
                   help="target mean effective contacts per agent-day")
    p.add_argument("--tolerance", type=_positive_float, default=DEFAULT_CONTACT_TOLERANCE,
                   help="acceptable contacts deviation")
    p.add_argument("--out", default="calibration.json", help="output JSON path")
    p.set_defaults(func=cmd_calibrate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (core.ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
