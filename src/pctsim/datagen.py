"""Domain-randomized config sampling and training-record export.

A dataset campaign samples simulator parameters from documented ranges,
runs each sampled config, and streams one JSONL record per app agent per
day: the demographic profile, the rolling health and clustered-encounter
windows an app actually sees, and the ground-truth infectiousness targets
for the same window. Records never contain partner identities, only
(risk level, repeat count) pairs, mirroring the wire privacy constraint.
"""

from __future__ import annotations

import gc
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
    bits = values.view(f"u{values.itemsize}")
    ordered = np.sort(bits, axis=None)
    first = np.ones(ordered.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    distinct = ordered[first]
    text = np.array([repr(v) for v in distinct.view(values.dtype).tolist()], dtype=object)
    # codes by searchsorted: np.unique's inverse takes twice the memory, the export's peak
    return text, np.searchsorted(distinct, bits).astype(np.min_scalar_type(text.size))


def _render_windows(codes, text, before="", after=""):
    """Each distinct row of ``codes`` once, as ``before + ",".join(text[row]) + after``,
    and each row's index into those strings."""
    codes = np.ascontiguousarray(codes)
    rows = codes.view(np.dtype((np.void, codes.itemsize * codes.shape[1]))).ravel()
    distinct, inverse = np.unique(rows, return_inverse=True)
    distinct = distinct.view(codes.dtype).reshape(-1, codes.shape[1])
    return np.array([before + ",".join(row) + after for row in text[distinct].tolist()],
                    dtype=object), inverse


def _render_days(trace):
    """Yield ``(records, text)`` blocks: canonical-JSON lines, one per app agent and day.

    A record is ``4 + sum(max(rows_k, 1))`` pooled pieces over its
    window slots k: the agent's head, one piece per encounter cell or
    empty slot, the day's rendering of its health window, its profile's
    tail, and the day's rendering of its target window. Each day renders
    every distinct health and target window once (a few dozen at 3000
    agents), with the punctuation around them fused in, and each
    ``[level,count]`` cell in three forms: after ``","``, opening slot 0
    and opening a later slot. A block of ``_AGENT_BLOCK`` agents' records
    is an array of piece ids, laid out by numpy from the window codes and
    the observation log's cell offsets, and its text is one join of the
    pooled pieces. The only Python loops are over days, blocks and the
    rendering of pooled pieces.
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
    # piece ids: each agent's head, then each profile's tail, then the day's pieces
    run_pool = np.array(['{"agent_id":%d,"day":' % agent for agent in app.tolist()]
                        + ['"profile":' + _canonical(profile) + tail
                           for profile in profiles.values()], dtype=object)
    tails, health = n_app, run_pool.size
    for day in range(trace.num_days):
        span = min(day + 1, window)
        first = day + 1 - span
        nulls, zeros = ",null" * (window - span), ",0.0" * (window - span)
        health_text, health_rows = _render_windows(
            health_codes[:, first:day + 1][:, ::-1], _HEALTH_SLOTS,
            f']{nulls}],"health":[', f"{nulls}],")
        day_targets, target_rows = _render_windows(
            target_codes[:, first:day + 1][:, ::-1], target_text, after=f"{zeros}]}}\n")
        offsets, levels, counts = trace.enc_windows[day]
        top = int(counts.max(initial=0)) + 1
        # every cell, then "" for an empty slot, in each of its three forms
        cells = [f"[{level},{count}]" for level in range(int(levels.max(initial=0)) + 1)
                 for count in range(top)] + [""]
        opened = f'{day},"encounters":[['
        pool = np.concatenate((run_pool, health_text, day_targets, np.array(
            ["," + cell for cell in cells] + [opened + cell for cell in cells]
            + ["],[" + cell for cell in cells], dtype=object)))
        targets = health + health_text.size
        cell_base = targets + day_targets.size
        empty = cell_base + len(cells) - 1
        open_form = np.full(span, 2 * len(cells))
        open_form[0] = len(cells)
        for lo in range(0, n_app, _AGENT_BLOCK):
            hi = min(lo + _AGENT_BLOCK, n_app)
            # rows of each (agent, slot) cell, and the record lengths in pieces
            slot_rows = np.diff(offsets[lo * window:hi * window + 1])
            slot_rows = slot_rows.reshape(hi - lo, window)[:, :span]
            slot_pieces = np.maximum(slot_rows, 1)
            lengths = 4 + slot_pieces.sum(axis=1)
            ends = np.cumsum(lengths)
            starts = ends - lengths
            ids = np.empty(int(ends[-1]), dtype=np.intp)
            ids[starts] = np.arange(lo, hi)
            # each slot is its cells, or an empty cell, the first in an opening form
            slot_at = (starts + 1)[:, None] + np.cumsum(slot_pieces, axis=1) - slot_pieces
            ids[slot_at] = empty
            block_rows = slot_rows.ravel()
            row_lo, row_hi = offsets[lo * window], offsets[hi * window]
            slot_first = np.cumsum(block_rows) - block_rows
            ids[np.repeat(slot_at.ravel() - slot_first, block_rows)
                + np.arange(row_hi - row_lo)] = (levels[row_lo:row_hi].astype(np.intp) * top
                                                 + counts[row_lo:row_hi] + cell_base)
            ids[slot_at] += open_form
            # then the health window, the tail and the target window
            ids[ends - 3] = health + health_rows[lo:hi]
            ids[ends - 2] = tails + profile_codes[lo:hi]
            ids[ends - 1] = targets + target_rows[lo:hi]
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
    """Load a JSONL record or prediction file into a list of dicts.

    The garbage collector is off during the parse: parsed JSON has no
    cycles, and rescanning the growing list of dicts took most of the time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path) as fh:
            return [json.loads(line) for line in fh if line.strip()]
    finally:
        if enabled:
            gc.enable()


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
