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
An agent with no partner in a pool, or with a zero rate there (level 4,
or a mobility scale of 0), draws no random bits for that pool.
"""

from __future__ import annotations

import numpy as np

LOCATION_TYPES = ("household", "workplace", "school", "other")

QUARANTINE_LEVEL = 4


# location type -> (mean daily contacts C_l, confinement reduction alpha_l)
LOCATION_PARAMS = {
    "household": (2.7, 0.30),
    "workplace": (10.0, 0.80),
    "school": (6.0, 0.80),
    "other": (3.1, 0.50),
}


def level_rate_table(name: str, mobility_scale: float) -> np.ndarray:
    """Effective daily contacts at location type ``name`` by recommendation level 0..4:
    0 unrestricted, 1..3 graded confinement, 4 quarantine, all times ``mobility_scale``."""
    c_l, alpha_l = LOCATION_PARAMS[name]
    return mobility_scale * c_l * np.array([1.0, (1 - alpha_l) / 4, (1 - alpha_l) / 2, 1 - alpha_l, 0.0])


class LocationIndex:
    """Flattened membership pools for one location type.

    ``group_of`` is an n-long int64 array giving each agent's group label,
    or -1 for an agent in no group of this type. ``flat`` lists the
    labelled agents group by group, in ascending agent id inside each
    group; group g occupies ``flat[start[g]:start[g] + size[g]]``.

    Only members of a group of two or more have a partner to draw. They
    are ``drawers``, in ascending agent id, and three int32 arrays are
    aligned with them: ``span``, the number of partners to pick from
    (group size - 1); ``offset``, where the drawer's group starts in
    ``flat``; and ``pos``, the drawer's place in its group. That makes
    partner sampling O(1): draw r uniform on [0, span - 1] and shift
    r >= pos by one to exclude self.
    """

    def __init__(self, group_of):
        gid = np.asarray(group_of, dtype=np.int64)
        # stable, so ids ascend inside each group; the -1s sort first
        order = np.argsort(gid, kind="stable")
        self.flat = order[np.count_nonzero(gid < 0):]
        member_gid = gid[self.flat]
        self.size = np.bincount(member_gid)
        self.start = np.cumsum(self.size) - self.size
        place = np.zeros(gid.size, dtype=np.int64)  # agent -> index in flat
        place[self.flat] = np.arange(self.flat.size)
        has_partner = np.zeros(gid.size, dtype=bool)
        has_partner[self.flat] = self.size[member_gid] >= 2
        drawers = np.flatnonzero(has_partner)
        g = gid[drawers]
        # int32 keeps the four arrays at half the memory; draws are the same
        self.drawers = drawers.astype(np.int32)
        self.span = (self.size[g] - 1).astype(np.int32)
        self.offset = self.start[g].astype(np.int32)
        self.pos = (place[drawers] - self.start[g]).astype(np.int32)


def generate_encounters(indexes, rec_level, mobility_scale, rng):
    """Generate one day of encounters across all location types.

    Per location type, each drawer (see ``LocationIndex``) draws its
    Poisson number of partner picks, in ascending agent id, then every
    pick draws its partner. Agents without a partner in the pool take no
    draw, and neither does a drawer whose rate is zero: ``poisson`` draws
    no bits for a zero rate.

    Args:
        indexes: mapping with one LocationIndex per name in LOCATION_TYPES;
            a type nobody belongs to is an empty ``LocationIndex(np.full(n, -1))``.
        rec_level: per-agent recommendation levels (0..4) in force today.
        mobility_scale: global mobility multiplier.
        rng: numpy Generator for this day's mobility stream.

    Returns:
        (a, b, loc) int64 arrays of equal length; each row is one
        symmetric encounter between distinct agents a and b at location
        code ``loc`` (index into LOCATION_TYPES). Repeat pairs may occur.
    """
    rec_level = np.asarray(rec_level)
    empty = np.zeros(0, dtype=np.int64)
    out_a, out_b = [empty], [empty]
    kept = np.zeros(len(LOCATION_TYPES), dtype=np.int64)
    for code, name in enumerate(LOCATION_TYPES):
        index = indexes[name]
        half_rates = level_rate_table(name, mobility_scale) / 2.0
        k = rng.poisson(half_rates[rec_level[index.drawers]])
        i = np.repeat(np.arange(index.drawers.size), k)
        r = rng.integers(0, index.span[i])
        r += r >= index.pos[i]
        partners = index.flat[index.offset[i] + r]
        keep = rec_level[partners] != QUARANTINE_LEVEL
        out_a.append(index.drawers[i[keep]])
        out_b.append(partners[keep])
        kept[code] = out_b[-1].size
    return (np.concatenate(out_a, dtype=np.int64), np.concatenate(out_b),
            np.repeat(np.arange(len(LOCATION_TYPES)), kept))
