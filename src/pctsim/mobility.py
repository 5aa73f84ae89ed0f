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
    or -1 for an agent in no group of this type.

    ``whole`` is True when one group of two or more holds every agent, as
    in the "other" pool. Such a pool keeps nothing else:
    ``generate_encounters`` draws it from the agents' count alone.

    Any other pool keeps five arrays. ``flat`` lists the labelled agents
    group by group, in ascending agent id inside each group. Only members
    of a group of two or more have a partner to draw. They are
    ``drawers``, in ascending agent id, and three int32 arrays are aligned
    with them: ``span``, the number of partners to pick from (its group's
    size - 1); ``offset``, where the drawer's group starts in ``flat``;
    and ``pos``, the drawer's place in its group. That makes partner
    sampling O(1): draw r uniform on [0, span - 1] and shift r >= pos by
    one to exclude self.

    Grouping is a stable LSD radix sort over the 16-bit digits of
    ``group_of + 1`` (numpy's stable sort of uint16 keys is a radix
    sort), so it takes time linear in n: one pass while every label is
    below 65535, and a second pass on the high digit otherwise.
    """

    def __init__(self, group_of):
        gid = np.asarray(group_of, dtype=np.int64)
        self.whole = gid.size >= 2 and gid[0] >= 0 and bool((gid == gid[0]).all())
        if self.whole:
            return
        # key = gid + 1 in unsigned arithmetic: the -1s wrap to 0 and sort first
        if gid.size == 0 or gid.max() < 0xFFFF:
            key = gid.astype(np.uint16)
            key += np.uint16(1)
            order = np.argsort(key, kind="stable")
        else:
            key = gid.astype(np.uint32)
            key += np.uint32(1)
            order = np.argsort(key.astype(np.uint16), kind="stable")
            order = order[np.argsort((key[order] >> 16).astype(np.uint16), kind="stable")]
        count = np.bincount(key, minlength=1)  # count[0]: agents in no group
        self.flat = order[count[0]:]
        size = count[1:]
        start = np.cumsum(size) - size
        count[0] = 0  # an agent in no group has no partner
        drawers = np.flatnonzero(count[key] >= 2)
        place = np.empty(gid.size, dtype=np.int32)  # agent -> index in flat
        place[self.flat] = np.arange(self.flat.size, dtype=np.int32)
        g = gid[drawers]
        # int32 keeps the four arrays at half the memory; draws are the same
        self.drawers = drawers.astype(np.int32)
        self.span = (size[g] - 1).astype(np.int32)
        self.offset = start[g].astype(np.int32)
        self.pos = place[drawers] - self.offset


def generate_encounters(indexes, rec_level, mobility_scale, rng, read=None):
    """Generate one day of encounters across all location types.

    Per location type, each drawer (see ``LocationIndex``) draws its
    Poisson number of partner picks, in ascending agent id, then every
    pick draws its partner. Agents without a partner in the pool take no
    draw, and neither does a drawer whose rate is zero: ``poisson`` draws
    no bits for a zero rate. A ``whole`` pool keeps no arrays: each of the
    n agents in ``rec_level`` is its own drawer row, and one scalar-bound
    ``integers`` call draws what the per-pick bounds of n - 1 would.

    Args:
        indexes: mapping with one LocationIndex per name in LOCATION_TYPES;
            a type nobody belongs to is an empty ``LocationIndex(np.full(n, -1))``.
        rec_level: per-agent recommendation levels (0..4) in force today.
        mobility_scale: global mobility multiplier.
        rng: numpy Generator for this day's mobility stream.
        read: per-agent int8 need, or None for every row. A row is returned
            when its two agents' needs sum to 2 or more. Every draw is made
            either way, so the stream ends in the same state.

    Returns:
        (a, b, loc, count): int64 arrays a, b and loc of equal length, and
        the int number of the day's encounters. Each row is one symmetric
        encounter between distinct agents a and b at location code ``loc``
        (index into LOCATION_TYPES); rows keep their order when ``read``
        drops some, and ``count`` counts the dropped rows too. Repeat pairs
        may occur.
    """
    rec_level = np.asarray(rec_level)
    level = rec_level.astype(np.intp)  # an intp array indexes about twice as fast as int8
    empty = np.zeros(0, dtype=np.int64)
    out_a, out_b = [empty], [empty]
    kept = np.zeros(len(LOCATION_TYPES), dtype=np.int64)
    count = 0
    for code, name in enumerate(LOCATION_TYPES):
        index = indexes[name]
        half_rates = level_rate_table(name, mobility_scale) / 2.0
        if index.whole:
            n = level.size
            a = np.repeat(np.arange(n), rng.poisson(half_rates[level]))
            b = rng.integers(0, n - 1, size=a.size)
            b += b >= a
        else:
            k = rng.poisson(half_rates[level.take(index.drawers)])
            i = np.repeat(np.arange(index.drawers.size), k)
            r = rng.integers(0, index.span[i])
            r += r >= index.pos[i]
            a = index.drawers[i]
            b = index.flat[index.offset[i] + r]
        keep = rec_level[b] != QUARANTINE_LEVEL
        count += int(np.count_nonzero(keep))
        if read is not None:
            keep &= read.take(a) + read.take(b) >= 2  # take: faster than [] for an int32 a
            # a boolean mask that keeps about half its rows mispredicts a branch per row
            keep = np.flatnonzero(keep)
        out_a.append(a[keep])
        out_b.append(b[keep])
        kept[code] = out_b[-1].size
    return (np.concatenate(out_a, dtype=np.int64), np.concatenate(out_b),
            np.repeat(np.arange(len(LOCATION_TYPES)), kept), count)
