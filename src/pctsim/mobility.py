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

    ``group_of`` is an n-long int64 array giving each agent's group label,
    or -1 for an agent in no group of this type. ``flat`` lists the
    labelled agents group by group, in ascending agent id inside each
    group; group g occupies ``flat[start[g]:start[g] + size[g]]``, and an
    agent sits at ``pos`` within its group (0 for the unlabelled).

    Supports O(1) vectorized partner sampling: for a member at position
    ``pos`` in a group of size ``s``, draw r uniform on [0, s-2] and shift
    r >= pos by one to exclude self.
    """

    def __init__(self, group_of):
        gid = np.asarray(group_of, dtype=np.int64)
        self.n_agents = gid.size
        self.gid = gid
        # stable, so ids ascend inside each group; the -1s sort first
        order = np.argsort(gid, kind="stable")
        self.flat = order[np.count_nonzero(gid < 0):]
        member_gid = gid[self.flat]
        self.size = np.bincount(member_gid)
        self.start = np.cumsum(self.size) - self.size
        self.pos = np.zeros(self.n_agents, dtype=np.int64)
        self.pos[self.flat] = np.arange(self.flat.size) - self.start[member_gid]
        # members of a group of two or more: the only agents with a partner to draw
        self._has_partner = np.zeros(self.n_agents, dtype=bool)
        self._has_partner[self.flat] = self.size[member_gid] >= 2


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
