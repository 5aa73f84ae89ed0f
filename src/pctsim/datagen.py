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
import os
from pathlib import Path

import numpy as np

from .core import SimConfig
from .virology import SYMPTOM_NAMES, TEST_CODE_NAMES, symptom_names_from_mask

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


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# Every health slot, indexed by symptom mask * len(TEST_CODE_NAMES) + test code.
_HEALTH_SLOTS = np.array(
    [_canonical({"symptoms": symptom_names_from_mask(mask), "test": test})
     for mask in range(1 << len(SYMPTOM_NAMES)) for test in TEST_CODE_NAMES],
    dtype=object)


def _render_floats(values: np.ndarray) -> np.ndarray:
    """JSON text of each value, rendered once per distinct bit pattern."""
    if not np.isfinite(values).all():
        raise ValueError("ground-truth targets hold a non-finite value, "
                         "which JSON cannot carry")
    bits, inverse = np.unique(values.view(f"u{values.itemsize}"), return_inverse=True)
    text = np.array([repr(v) for v in bits.view(values.dtype).tolist()], dtype=object)
    return text[inverse].reshape(values.shape)


def _render_days(trace):
    """Yield each day's record lines, one canonical-JSON line per app agent.

    Every piece is rendered once: each agent's record head and tail per
    run, each (agent, day) health slot and target per run, each
    ``[level,count]`` cell per day. A line joins the newest-first slices
    of these pieces.
    """
    if trace.enc_windows is None:
        raise ValueError("trace was recorded without observables; re-run with "
                         "record_observables and a tracing policy")
    if len(trace.enc_windows) != trace.num_days:
        raise ValueError(f"trace is truncated: observables for "
                         f"{len(trace.enc_windows)} of {trace.num_days} days")
    window = int(trace.config["d_max"]) + 1
    app = trace.app_ids
    targets = _render_floats(trace.y_hist[app])
    health = _HEALTH_SLOTS[trace.symptom_hist[app].astype(np.intp) * len(TEST_CODE_NAMES)
                           + trace.test_hist[app]]
    agents = app.tolist()
    heads = ['{"agent_id":%d,"day":' % agent for agent in agents]
    tail = (f',"run_id":{_canonical(trace.run_id)},'
            f'"schema_version":{RECORD_SCHEMA_VERSION},"targets":[')
    tails = ['"profile":' + _canonical(trace.profiles[agent]) + tail for agent in agents]
    for day in range(trace.num_days):
        span = min(day + 1, window)
        first = day + 1 - span
        nulls, zeros = ",null" * (window - span), ",0.0" * (window - span)
        day_health = health[:, first:day + 1][:, ::-1].tolist()
        day_targets = targets[:, first:day + 1][:, ::-1].tolist()
        slots, levels, counts = trace.enc_windows.cells(day)
        top = int(counts.max(initial=0)) + 1
        cell_tab = np.array([f"[{level},{count}]"
                             for level in range(int(levels.max(initial=0)) + 1)
                             for count in range(top)], dtype=object)
        cells = cell_tab[levels * top + counts].tolist()
        slots = slots.tolist()
        lines = []
        for i in range(app.size):
            cut = slots[i * window:i * window + span + 1]
            encounters = ",".join(["[" + ",".join(cells[lo:hi]) + "]"
                                   for lo, hi in zip(cut, cut[1:])])
            lines.append(f'{heads[i]}{day},"encounters":[{encounters}{nulls}],'
                         f'"health":[{",".join(day_health[i])}{nulls}],'
                         f'{tails[i]}{",".join(day_targets[i])}{zeros}]}}\n')
        yield lines


def iter_training_records(trace):
    """Yield one training record per (app agent, day) from a trace.

    Requires a trace recorded with observables enabled. Window slots are
    newest-first; days before the simulation start are null in the
    health/encounter windows and zero in the targets. The records are
    the parsed lines of the export.
    """
    for lines in _render_days(trace):
        yield from map(json.loads, lines)


def export_training_records(trace, path) -> int:
    """Stream training records for one run to a JSONL file.

    Each line is the record as canonical JSON (sorted keys, no spaces),
    rendered by one pass over the days, and is the same as
    ``json.dumps(record, sort_keys=True, separators=(",", ":"))``. The
    lines go to a ``.partial`` sibling that replaces ``path`` only once
    every record is written; on any error it is removed and ``path`` is
    left as it was. Raises ValueError for a trace without a full
    observation record or with a non-finite target. Returns the record
    count, which always equals app agents x days.
    """
    path = Path(path)
    partial = path.with_name(path.name + ".partial")
    n = 0
    try:
        with open(partial, "w") as fh:
            for lines in _render_days(trace):
                fh.writelines(lines)
                n += len(lines)
        expected = trace.app_ids.size * trace.num_days
        if n != expected:
            raise RuntimeError(f"exported {n} records, expected {expected}")
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    os.replace(partial, path)
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
