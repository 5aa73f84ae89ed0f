"""Encounter generation per location type.

Each agent belongs to a household, at most one workplace or school, and
the shared "other" sphere (shops, transit, leisure). Expected daily
contacts per location are set by a pre-confinement mean C_l and a
confinement reduction alpha_l, modulated by the agent's recommendation
level and a global mobility scale.

Encounters are symmetric events. Each agent draws Poisson(rate/2) partner
picks per location and day; since partners pick back at the same rate,
the realized per-agent encounter count is Poisson(rate), matching the
effective-contacts table. Quarantined partners (level 4) veto any pick.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LOCATION_TYPES = ("household", "workplace", "school", "other")
LOC_HOUSEHOLD, LOC_WORKPLACE, LOC_SCHOOL, LOC_OTHER = range(4)

QUARANTINE_LEVEL = 4


@dataclass(frozen=True)
class LocationParams:
    """Mean daily contacts C_l and confinement reduction alpha_l."""

    location_type: str
    c_l: float
    alpha_l: float

    def __post_init__(self):
        if self.c_l <= 0:
            raise ValueError(f"{self.location_type}: c_l must be positive")
        if not 0.0 <= self.alpha_l <= 1.0:
            raise ValueError(f"{self.location_type}: alpha_l must be in [0, 1]")


LOCATION_PARAMS = {
    "household": LocationParams("household", 2.7, 0.30),
    "workplace": LocationParams("workplace", 10.0, 0.80),
    "school": LocationParams("school", 6.0, 0.80),
    "other": LocationParams("other", 3.1, 0.50),
}


def _level_multipliers(alpha_l: float) -> np.ndarray:
    # Behavior tiers: 0 unrestricted, 1..3 graded confinement, 4 quarantine.
    return np.array(
        [1.0, (1 - alpha_l) / 4, (1 - alpha_l) / 2, (1 - alpha_l), 0.0]
    )


def effective_contacts(loc: LocationParams, rec_level: int, mobility_scale: float) -> float:
    """Expected daily contacts at one location for one recommendation level."""
    if rec_level not in (0, 1, 2, 3, 4):
        raise ValueError(f"invalid recommendation level {rec_level}")
    return mobility_scale * loc.c_l * _level_multipliers(loc.alpha_l)[rec_level]


def level_rate_table(loc: LocationParams, mobility_scale: float) -> np.ndarray:
    """Vector of effective contacts indexed by recommendation level 0..4."""
    return mobility_scale * loc.c_l * _level_multipliers(loc.alpha_l)


class LocationIndex:
    """Flattened membership pools for one location type.

    Supports O(1) vectorized partner sampling: for a member at position
    ``pos`` in a group of size ``s``, draw r uniform on [0, s-2] and shift
    r >= pos by one to exclude self.
    """

    def __init__(self, groups, n_agents: int):
        self.n_agents = n_agents
        sizes, starts, flat = [], [], []
        gid = np.full(n_agents, -1, dtype=np.int64)
        pos = np.zeros(n_agents, dtype=np.int64)
        offset = 0
        for g, members in enumerate(groups):
            members = np.asarray(members, dtype=np.int64)
            starts.append(offset)
            sizes.append(members.size)
            flat.append(members)
            gid[members] = g
            pos[members] = np.arange(members.size)
            offset += members.size
        self.flat = np.concatenate(flat) if flat else np.zeros(0, dtype=np.int64)
        self.start = np.asarray(starts, dtype=np.int64)
        self.size = np.asarray(sizes, dtype=np.int64)
        self.gid = gid
        self.pos = pos
        # members of a group of two or more: the only agents with a partner to draw
        self._has_partner = np.isin(gid, np.flatnonzero(self.size >= 2))


def generate_encounters(indexes, rec_level, mobility_scale, rng):
    """Generate one day of encounters across all location types.

    Args:
        indexes: mapping location type name -> LocationIndex.
        rec_level: per-agent recommendation levels (0..4) in force today.
        mobility_scale: global mobility multiplier.
        rng: numpy Generator for this day's mobility stream.

    Returns:
        (a, b, loc) int64 arrays of equal length; each row is one
        symmetric encounter between distinct agents a and b at location
        code ``loc`` (index into LOCATION_TYPES). Repeat pairs may occur.
    """
    rec_level = np.asarray(rec_level)
    out_a, out_b, out_loc = [], [], []
    for code, name in enumerate(LOCATION_TYPES):
        index = indexes.get(name)
        if index is None:
            continue
        rates = level_rate_table(LOCATION_PARAMS[name], mobility_scale)[rec_level]
        # Agents without a pool partner draw nothing.
        rates = np.where(index._has_partner, rates, 0.0)
        if not rates.any():
            continue
        k = rng.poisson(rates / 2.0)
        drawers = np.repeat(np.arange(index.n_agents), k)
        if drawers.size == 0:
            continue
        g = index.gid[drawers]
        s = index.size[g]
        r = rng.integers(0, s - 1)
        r += r >= index.pos[drawers]
        partners = index.flat[index.start[g] + r]
        keep = rec_level[partners] != QUARANTINE_LEVEL
        out_a.append(drawers[keep])
        out_b.append(partners[keep])
        out_loc.append(np.full(int(keep.sum()), code, dtype=np.int64))
    if not out_a:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    return np.concatenate(out_a), np.concatenate(out_b), np.concatenate(out_loc)
