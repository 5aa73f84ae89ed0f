"""Epidemic and cost metrics computed post hoc over immutable traces.

The reproduction number R is read off the infection tree: the ratio of
children (infections caused) to parents, where a parent is any recovered,
non-seeded infected agent whose own exposure falls inside the analysis
window. Seed infections have no parent and are excluded on both sides.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math

import numpy as np

EXTERNAL_SEED = -1

# Epi-state codes shared with the engine.
STATE_S, STATE_E, STATE_I, STATE_R = 0, 1, 2, 3

CSV_FIELDS = (
    "config_hash",
    "seed",
    "policy",
    "adoption",
    "mobility_scale",
    "contacts",
    "r",
    "cumulative_cases",
    "false_quarantine",
    "status",
)


def estimate_r(events, recovered, window=None) -> float:
    """Children-per-recovered-parent ratio over the infection tree.

    Args:
        events: iterable of (day, infector, infectee, *rest); infector is
            EXTERNAL_SEED (-1) for seeded cases.
        recovered: set/array of agent ids recovered by the end of the run.
        window: optional (start, end) half-open range; a parent counts
            only if its own exposure day lies in the window. Children of
            counted parents count regardless of their day.

    Returns:
        R, or NaN when no parent qualifies.

    Raises:
        ValueError: if any agent is infected more than once, infects
            itself, or has an infector that never appears as an infectee
            (a broken tree).
    """
    recovered = set(int(a) for a in np.asarray(list(recovered)).ravel()) if not isinstance(recovered, set) else recovered
    exposure_day: dict[int, int] = {}
    parent_of: dict[int, int] = {}
    rows = []
    for ev in events:
        if hasattr(ev, "infectee"):
            day, infector, infectee = int(ev.day), int(ev.infector), int(ev.infectee)
        else:
            day, infector, infectee = int(ev[0]), int(ev[1]), int(ev[2])
        if infectee in parent_of:
            raise ValueError(f"agent {infectee} has multiple infection events")
        if infector == infectee:
            raise ValueError(f"agent {infectee} infects itself")
        parent_of[infectee] = infector
        exposure_day[infectee] = day
        rows.append((day, infector, infectee))
    for day, infector, infectee in rows:
        if infector == EXTERNAL_SEED:
            continue
        if infector not in exposure_day:
            raise ValueError(f"infector {infector} was never infected")
        if exposure_day[infector] > day:
            raise ValueError(f"event at day {day} precedes infector {infector}'s exposure")

    def in_window(d):
        return window is None or (window[0] <= d < window[1])

    parents = {
        a
        for a, p in parent_of.items()
        if p != EXTERNAL_SEED and a in recovered and in_window(exposure_day[a])
    }
    if not parents:
        return math.nan
    children = sum(1 for _, infector, _i in rows if infector in parents)
    return children / len(parents)


def default_r_window(num_days: int) -> tuple[int, int]:
    """Full run minus the trailing 14 days (parents need time to recover)."""
    return (0, max(num_days - 14, 1))


def false_quarantine_fraction(trace, day_range=None) -> float:
    """Fraction of agent-days spent quarantined while not infectious.

    Counts agent-days at recommendation level 4 whose end-of-day epi state
    is Susceptible or Recovered, divided by all agent-days in range. Each
    day's count is its ``DayReport.quarantined_healthy``.
    """
    lo, hi = day_range if day_range is not None else (0, trace.num_days)
    if hi <= lo:
        return 0.0
    false_q = sum(r.quarantined_healthy for r in trace.day_reports[lo:hi])
    return false_q / (trace.population * (hi - lo))


def effective_contacts_per_agent_day(trace) -> float:
    """Mean daily contacts per agent: each encounter involves two agents."""
    if trace.num_days == 0:
        return 0.0
    total = sum(r.encounters for r in trace.day_reports)
    return 2.0 * total / (trace.population * trace.num_days)


def cumulative_cases(trace) -> int:
    """Total infections including external seeds (equals len(events))."""
    return len(trace.events)


def pareto_point(trace, window=None):
    """(effective contacts, R) pair for mobility/spread sweep plots."""
    window = window if window is not None else default_r_window(trace.num_days)
    r = estimate_r(trace.events, trace.recovered_ids(), window)
    return effective_contacts_per_agent_day(trace), r


def config_hash(config_dict: dict) -> str:
    """Stable short hash of a config, excluding the RNG seed.

    The seed is reported in its own column so sweep rows over seeds share
    one hash and any row is re-derivable from (hash, seed).
    """
    payload = {k: v for k, v in config_dict.items() if k != "rng_seed"}
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=list)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def metrics_row(trace, seed: int) -> dict:
    """One CSV row of run-level metrics."""
    contacts, r = pareto_point(trace)
    cfg = trace.config
    return {
        "config_hash": config_hash(cfg),
        "seed": seed,
        "policy": cfg["policy"],
        "adoption": cfg["adoption_rate"],
        "mobility_scale": cfg["global_mobility_scale"],
        "contacts": f"{contacts:.6f}",
        "r": f"{r:.6f}" if not math.isnan(r) else "nan",
        "cumulative_cases": cumulative_cases(trace),
        "false_quarantine": f"{false_quarantine_fraction(trace):.6f}",
        "status": "ok",
    }


def write_metrics_csv(path, rows):
    """Write rows (dicts with CSV_FIELDS keys) to ``path``."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
