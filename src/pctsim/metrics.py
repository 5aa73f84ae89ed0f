"""Epidemic and cost metrics computed post hoc over finished runs.

The reproduction number R is read off the infection tree: the ratio of
children (infections caused) to parents, where a parent is any recovered,
non-seeded infected agent whose own exposure falls inside the analysis
window. Seed infections have no parent and are excluded on both sides.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
from pathlib import Path

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

# Canonical JSON: sorted keys, no spaces. Config hashes, trace lines and training records use it.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def estimate_r(events, recovered, window=None) -> float:
    """Children-per-recovered-parent ratio over the infection tree.

    Args:
        events: ``(m, k >= 3)`` integer array of (day, infector, infectee, *rest)
            rows, as ``WorldState.events``; infector is EXTERNAL_SEED (-1)
            for seeded cases. Work is linear in the largest agent id.
        recovered: integer array of the agent ids recovered by the end of the run.
        window: optional (start, end) half-open range; a parent counts
            only if its own exposure day lies in the window. Children of
            counted parents count regardless of their day.

    Returns:
        R, or NaN when no parent qualifies.

    Raises:
        ValueError: if any agent is infected more than once, infects
            itself, has an infector that never appears as an infectee
            (a broken tree), or is infected before its infector.
    """
    day, infector, infectee = events[:, :3].T
    # per agent id: how often it is infected, and on which day
    n = int(max(infectee.max(initial=0), infector.max(initial=0))) + 1
    infections = np.bincount(infectee, minlength=n)
    if infections.max(initial=0) > 1:
        raise ValueError(f"agent {infections.argmax()} has multiple infection events")
    if np.any(infector == infectee):
        raise ValueError(f"agent {infectee[infector == infectee][0]} infects itself")
    exposed_on = np.zeros(n, dtype=np.int64)
    exposed_on[infectee] = day
    seeded = infector == EXTERNAL_SEED
    source, when = infector[~seeded], day[~seeded]
    unknown = (source < 0) | (infections.take(source, mode="clip") == 0)
    if unknown.any():
        raise ValueError(f"infector {source[unknown][0]} was never infected")
    early = exposed_on.take(source, mode="clip") > when
    if early.any():
        raise ValueError(f"event at day {when[early][0]} precedes infector "
                         f"{source[early][0]}'s exposure")

    # "table" looks ids up; the default's sort for small inputs adds ~0.85 MB RSS at 3k
    counted = ~seeded & np.isin(infectee, np.asarray(recovered, dtype=np.int64), kind="table")
    if window is not None:
        counted &= (window[0] <= day) & (day < window[1])
    parents = infectee[counted]
    if not parents.size:
        return math.nan
    return int(np.isin(infector, parents, kind="table").sum()) / parents.size


def default_r_window(num_days: int) -> tuple[int, int]:
    """Full run minus the trailing 14 days (parents need time to recover)."""
    return (0, max(num_days - 14, 1))


def false_quarantine_fraction(world) -> float:
    """Fraction of the run's agent-days spent quarantined while not infectious.

    Counts agent-days at recommendation level 4 whose end-of-day epi state
    is Susceptible or Recovered, divided by all agent-days; 0 for a run of 0
    days. Each day's count is its ``DayReport.quarantined_healthy``.
    """
    if world.num_days == 0:
        return 0.0
    false_q = sum(r.quarantined_healthy for r in world.day_reports)
    return false_q / (world.population * world.num_days)


def effective_contacts_per_agent_day(world) -> float:
    """Mean daily contacts per agent: each encounter involves two agents."""
    if world.num_days == 0:
        return 0.0
    total = sum(r.encounters for r in world.day_reports)
    return 2.0 * total / (world.population * world.num_days)


def pareto_point(world):
    """(effective contacts, R over ``default_r_window``) pair for mobility/spread sweep plots."""
    r = estimate_r(world.events, world.recovered_ids(), default_r_window(world.num_days))
    return effective_contacts_per_agent_day(world), r


def config_hash(config_dict: dict) -> str:
    """Stable short hash of a config, excluding the RNG seed.

    The seed is reported in its own column so sweep rows over seeds share
    one hash and any row is re-derivable from (hash, seed).
    """
    payload = {k: v for k, v in config_dict.items() if k != "rng_seed"}
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:12]


def metrics_row(world, seed: int) -> dict:
    """One CSV row of run-level metrics."""
    contacts, r = pareto_point(world)
    cfg = world.config
    return {
        "config_hash": config_hash(cfg),
        "seed": seed,
        "policy": cfg["policy"],
        "adoption": cfg["adoption_rate"],
        "mobility_scale": cfg["global_mobility_scale"],
        "contacts": f"{contacts:.6f}",
        "r": f"{r:.6f}" if not math.isnan(r) else "nan",
        "cumulative_cases": len(world.events),  # seeds included
        "false_quarantine": f"{false_quarantine_fraction(world):.6f}",
        "status": "ok",
    }


@contextlib.contextmanager
def replacing(*paths):
    """Yield a ``.partial`` sibling of each path to write, and move each onto its path once the
    block ends; on any error remove them, leaving the paths as they were."""
    partials = [Path(f"{path}.partial") for path in paths]
    try:
        yield partials
    except BaseException:
        for partial in partials:
            partial.unlink(missing_ok=True)
        raise
    for partial, path in zip(partials, paths):
        os.replace(partial, path)


def write_metrics_csv(path, rows):
    """Write rows (dicts with CSV_FIELDS keys) to ``path``."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
