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

from . import core
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

# App agents whose records are joined into one string and written at once.
_AGENT_BLOCK = 256


def _render_floats(values: np.ndarray):
    """JSON text of each distinct bit pattern, and each value's code into it."""
    if not np.isfinite(values).all():
        raise ValueError("ground-truth targets hold a non-finite value, "
                         "which JSON cannot carry")
    bits, inverse = np.unique(values.view(f"u{values.itemsize}"), return_inverse=True)
    text = np.array([repr(v) for v in bits.view(values.dtype).tolist()], dtype=object)
    return text, inverse.reshape(values.shape).astype(np.min_scalar_type(text.size))


def _with_commas(pieces: np.ndarray) -> np.ndarray:
    """``pieces`` followed by each piece with a leading comma."""
    return np.concatenate((pieces, np.array(["," + p for p in pieces.tolist()],
                                            dtype=object)))


def _put_list(ids, slots, codes, base, size):
    """Put each row of ``codes`` at ``slots`` as pieces ``base + code``,
    all but the first of a row in their leading-comma form (``+ size``)."""
    ids[slots] = codes.astype(np.intp) + (base + size)
    ids[slots[:, 0]] -= size


def _render_days(trace):
    """Yield ``(records, text)`` blocks: canonical-JSON lines, one per app agent and day.

    Every piece is rendered once into a pool: each agent's record head,
    each distinct profile's record tail, each health slot and distinct
    target (plain and with a leading comma) per run, each
    ``[level,count]`` cell and the punctuation per day. A block of
    ``_AGENT_BLOCK`` agents' records is an array of piece ids, laid out
    by numpy from the per-(agent, day) health and target codes and the
    observation log's cell offsets, and its text is one join of the
    pooled pieces. The only Python loops are over days, blocks and the
    per-run pieces.
    """
    if trace.enc_windows is None:
        raise ValueError("trace was recorded without observables; re-run with "
                         "record_observables and a tracing policy")
    if len(trace.enc_windows) != trace.num_days:
        raise ValueError(f"trace is truncated: observables for "
                         f"{len(trace.enc_windows)} of {trace.num_days} days")
    window = int(trace.config["d_max"]) + 1
    app = trace.app_ids
    n_app = app.size
    target_text, target_codes = _render_floats(trace.y_hist[app])
    health_codes = (trace.symptom_hist[app].astype(np.uint8) * len(TEST_CODE_NAMES)
                    + trace.test_hist[app].astype(np.uint8))
    # one tail per distinct (age band, sex, conditions), from its first agent's profile
    profile_key = ((trace.age_band[app].astype(np.intp) << 16)
                   | (trace.sex[app].astype(np.intp) << 8) | trace.conditions[app])
    _, first, profile_codes = np.unique(profile_key, return_index=True, return_inverse=True)
    profiles = core.agent_profile(trace, app[first])
    tail = (f',"run_id":{_canonical(trace.run_id)},'
            f'"schema_version":{RECORD_SCHEMA_VERSION},"targets":[')
    run_pool = np.concatenate((
        np.array(['{"agent_id":%d,"day":' % agent for agent in app.tolist()]
                 + ['"profile":' + _canonical(profile) + tail
                    for profile in profiles.values()], dtype=object),
        _with_commas(_HEALTH_SLOTS), _with_commas(target_text)))
    # piece ids: heads, profile tails, health slots, targets, then the day's pieces
    tails = n_app
    health = n_app + first.size
    targets = health + 2 * _HEALTH_SLOTS.size
    day_base = targets + 2 * target_text.size
    open_, comma_open, close, a, b, c, e = range(day_base, day_base + 7)
    cell_base = day_base + 7
    for day in range(trace.num_days):
        span = min(day + 1, window)
        first = day + 1 - span
        nulls, zeros = ",null" * (window - span), ",0.0" * (window - span)
        offsets, levels, counts = trace.enc_windows.cells(day)
        top = int(counts.max(initial=0)) + 1
        cell_text = np.array([f"[{level},{count}]"
                              for level in range(int(levels.max(initial=0)) + 1)
                              for count in range(top)], dtype=object)
        commas = cell_text.size  # a cell's comma form is its id + commas
        pool = np.concatenate((run_pool, np.array(
            ["[", ",[", "]", f'{day},"encounters":[', f'{nulls}],"health":[',
             f"{nulls}],", f"{zeros}]}}\n"], dtype=object), _with_commas(cell_text)))
        ks = np.arange(span)
        day_health = health_codes[:, first:day + 1][:, ::-1]
        day_targets = target_codes[:, first:day + 1][:, ::-1]
        for lo in range(0, n_app, _AGENT_BLOCK):
            hi = min(lo + _AGENT_BLOCK, n_app)
            # rows of each (agent, slot) cell, and the record lengths in pieces
            slot_rows = np.diff(offsets[lo * window:hi * window + 1])
            slot_rows = slot_rows.reshape(hi - lo, window)[:, :span]
            before = np.cumsum(slot_rows, axis=1) - slot_rows
            rows = slot_rows.sum(axis=1)
            lengths = 6 + 4 * span + rows
            ends = np.cumsum(lengths)
            starts = ends - lengths
            ids = np.empty(int(ends[-1]), dtype=np.intp)
            block = np.arange(lo, hi)
            ids[starts] = block
            ids[starts + 1] = a
            # each slot is "[" or ",[", its cells, then "]"
            opens = starts[:, None] + 2 + 2 * ks + before
            ids[opens] = comma_open
            ids[opens[:, 0]] = open_
            ids[opens + 1 + slot_rows] = close
            block_rows = slot_rows.ravel()
            row_lo, row_hi = offsets[lo * window], offsets[hi * window]
            slot_first = np.cumsum(block_rows) - block_rows
            cell_ids = (levels[row_lo:row_hi].astype(np.intp) * top
                        + counts[row_lo:row_hi] + (cell_base + commas))
            cell_ids[slot_first[block_rows > 0]] -= commas
            ids[np.repeat((opens + 1).ravel() - slot_first, block_rows)
                + np.arange(row_hi - row_lo)] = cell_ids
            # then the health window, the tail and the target window
            mid = starts + 2 + 2 * span + rows
            ids[mid] = b
            slots = mid[:, None] + 1 + ks
            _put_list(ids, slots, day_health[lo:hi], health, _HEALTH_SLOTS.size)
            ids[mid + span + 1] = c
            ids[mid + span + 2] = tails + profile_codes[lo:hi]
            _put_list(ids, slots + span + 2, day_targets[lo:hi], targets, target_text.size)
            ids[ends - 1] = e
            yield hi - lo, "".join(pool[ids].tolist())


def iter_training_records(trace):
    """Yield one training record per (app agent, day) from a trace.

    Requires a trace recorded with observables enabled. Window slots are
    newest-first; days before the simulation start are null in the
    health/encounter windows and zero in the targets. The records are
    the parsed lines of the export.
    """
    for _records, text in _render_days(trace):
        yield from map(json.loads, text.splitlines())


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
            for records, text in _render_days(trace):
                fh.write(text)
                n += records
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
