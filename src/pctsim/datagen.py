"""Domain-randomized config sampling and training-record export.

A dataset campaign samples simulator parameters from documented ranges,
runs each sampled config, and streams one JSONL record per app agent per
day: the demographic profile, the rolling health and clustered-encounter
windows an app actually sees, and the ground-truth infectiousness targets
for the same window. Records never contain partner identities, only
(risk level, repeat count) pairs, mirroring the wire privacy constraint.
"""

from __future__ import annotations

import json

import numpy as np

from .core import SimConfig
from .virology import TEST_CODE_NAMES, symptom_names_from_mask

RECORD_SCHEMA_VERSION = 1

# Uniform sampling ranges; unlisted fields are copied from the base config.
DR_RANGES = {
    "adoption_rate": (0.30, 0.60),
    "carefulness": (0.5, 0.8),
    "initial_exposed_fraction": (0.002, 0.006),
    "predictor_add_sigma": (0.05, 0.15),
    "predictor_mul_sigma": (0.2, 0.8),
    "global_mobility_scale": (0.3, 0.9),
    "symptom_dropout": (0.1, 0.6),
    "symptom_dropin": (0.0001, 0.001),
    "quarantine_dropout_test": (0.01, 0.03),
    "quarantine_dropout_household": (0.02, 0.05),
    "all_levels_dropout": (0.01, 0.05),
}

DEFAULT_TRAIN_FRACTION = 200 / 240


def sample_dr_config(base: SimConfig, rng: np.random.Generator) -> SimConfig:
    """Draw one domain-randomized config from the documented ranges."""
    base.validate()
    draws = {name: float(rng.uniform(lo, hi)) for name, (lo, hi) in DR_RANGES.items()}
    return base.replace(**draws)


def adoption_to_uptake(adoption: float, smartphone_rate: float) -> float:
    """App uptake among smartphone owners for a population adoption rate."""
    if not 0.0 <= adoption <= smartphone_rate:
        raise ValueError(
            f"adoption {adoption} must lie in [0, smartphone_rate={smartphone_rate}]")
    return adoption / smartphone_rate


def iter_training_records(trace):
    """Yield one training record per (app agent, day) from a trace.

    Requires a trace recorded with observables enabled. Window slots are
    newest-first; days before the simulation start are null in the
    health/encounter windows and zero in the targets. Each day's records
    are cut from slices of that day's sorted table and of the histories.
    """
    if trace.enc_windows is None:
        raise ValueError("trace was recorded without observables; re-run with "
                         "record_observables and a tracing policy")
    if len(trace.enc_windows) != trace.num_days:
        raise ValueError(f"trace is truncated: observables for "
                         f"{len(trace.enc_windows)} of {trace.num_days} days")
    window = int(trace.config["d_max"]) + 1
    app = trace.app_ids
    for day, (starts, rows) in enumerate(trace.enc_windows):
        span = min(day + 1, window)
        first, pad = day + 1 - span, [None] * (window - span)
        targets = trace.y_hist[app, first:day + 1][:, ::-1].tolist()
        symptoms = trace.symptom_hist[app, first:day + 1][:, ::-1].tolist()
        tests = trace.test_hist[app, first:day + 1][:, ::-1].tolist()
        # row offsets of slot (i, k): each agent's rows are sorted by k
        owner = np.repeat(np.arange(app.size), np.diff(starts))
        slots = np.searchsorted(owner * window + rows[:, 0],
                                np.arange(app.size * window + 1)).tolist()
        for i, agent in enumerate(app.tolist()):
            cut = slots[i * window:i * window + span + 1]
            own = rows[cut[0]:cut[-1], 1:].tolist()
            yield {
                "schema_version": RECORD_SCHEMA_VERSION,
                "run_id": trace.run_id,
                "agent_id": agent,
                "day": day,
                "profile": trace.profiles[agent],
                "health": [{"symptoms": symptom_names_from_mask(mask),
                            "test": TEST_CODE_NAMES[code]}
                           for mask, code in zip(symptoms[i], tests[i])] + pad,
                "encounters": [own[lo - cut[0]:hi - cut[0]]
                               for lo, hi in zip(cut, cut[1:])] + pad,
                "targets": targets[i] + [0.0] * len(pad),
            }


def export_training_records(trace, path) -> int:
    """Stream training records for one run to a JSONL file.

    Returns the record count, which always equals app agents x days.
    """
    n = 0
    with open(path, "w") as fh:
        for rec in iter_training_records(trace):
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
            n += 1
    expected = trace.app_ids.size * trace.num_days
    if n != expected:
        raise RuntimeError(f"exported {n} records, expected {expected}")
    return n


def read_records(path):
    """Load a JSONL record or prediction file into a list of dicts."""
    out = []
    with open(path) as fh:
        for line in fh:
            if line.strip():
                out.append(json.loads(line))
    return out


def make_split(run_ids, train_fraction: float = DEFAULT_TRAIN_FRACTION, seed: int = 0):
    """Deterministic run-disjoint train/validation split by whole runs."""
    run_ids = list(run_ids)
    if len(run_ids) < 2:
        raise ValueError("need at least 2 runs to split")
    order = np.random.default_rng(seed).permutation(len(run_ids))
    n_train = int(round(train_fraction * len(run_ids)))
    n_train = min(max(n_train, 1), len(run_ids) - 1)
    train = sorted(run_ids[i] for i in order[:n_train])
    valid = sorted(run_ids[i] for i in order[n_train:])
    return train, valid
