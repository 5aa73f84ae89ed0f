"""Encounter generation and effective-contacts table tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pctsim import core, mobility
from pctsim.mobility import (
    LOCATION_PARAMS,
    LOCATION_TYPES,
    QUARANTINE_LEVEL,
    LocationIndex,
    LocationParams,
    generate_encounters,
    level_rate_table,
)


class TestEffectiveContacts:
    def test_table_values_level_zero(self):
        for name, c_l in (("household", 2.7), ("workplace", 10.0),
                          ("school", 6.0), ("other", 3.1)):
            assert level_rate_table(LOCATION_PARAMS[name], 1.0)[0] == c_l

    def test_household_level_three(self):
        assert level_rate_table(LOCATION_PARAMS["household"], 1.0)[3] == \
            pytest.approx(0.70 * 2.7)

    def test_workplace_level_one(self):
        assert level_rate_table(LOCATION_PARAMS["workplace"], 1.0)[1] == \
            pytest.approx(0.25 * 0.20 * 10.0)

    def test_quarantine_level_is_zero_everywhere(self):
        for name in LOCATION_TYPES:
            assert level_rate_table(LOCATION_PARAMS[name], 3.0)[4] == 0.0

    def test_scale_multiplies(self):
        loc = LOCATION_PARAMS["other"]
        assert level_rate_table(loc, 2.0)[2] == \
            pytest.approx(2.0 * level_rate_table(loc, 1.0)[2])

    def test_location_params_validation(self):
        with pytest.raises(ValueError):
            LocationParams("x", -1.0, 0.5)
        with pytest.raises(ValueError):
            LocationParams("x", 2.0, 1.5)


class TestLocationIndex:
    def test_hand_built_groups(self):
        # groups 0: {1, 4, 7}, 1: {3}, 2: {0, 5, 6}; agent 2 is in none
        index = LocationIndex(np.array([2, 0, -1, 1, 0, 2, 2, 0]))
        assert index.flat.tolist() == [1, 4, 7, 3, 0, 5, 6]
        assert index.start.tolist() == [0, 3, 4]
        assert index.size.tolist() == [3, 1, 3]
        assert _labels(index, 8).tolist() == [2, 0, -1, 1, 0, 2, 2, 0]
        # the members of groups of two or more, with their places in flat
        assert index.drawers.tolist() == [0, 1, 4, 5, 6, 7]
        assert index.pos.tolist() == [0, 0, 1, 1, 2, 2]
        assert index.offset.tolist() == [4, 0, 0, 4, 4, 0]
        assert index.span.tolist() == [2, 2, 2, 2, 2, 2]
        assert index.drawers.dtype == index.pos.dtype == np.int32

    def test_one_member_group_has_no_partner(self):
        rng = np.random.default_rng(9)
        idx = {"workplace": LocationIndex(np.array([0, 1, 1, -1, 1]))}
        assert 0 not in idx["workplace"].drawers.tolist()
        for _ in range(50):
            a, b, _ = generate_encounters(idx, np.zeros(5, dtype=np.int8), 5.0, rng)
            assert a.size > 0
            assert not np.isin([0, 3], np.concatenate([a, b])).any()

    @pytest.mark.parametrize("name", LOCATION_TYPES)
    def test_no_groups_draw_nothing(self, name):
        rng = np.random.default_rng(10)
        index = LocationIndex(np.full(6, -1, dtype=np.int64))
        assert index.flat.size == index.size.size == index.start.size == 0
        assert index.drawers.size == 0
        a, b, loc = generate_encounters({name: index}, np.zeros(6, dtype=np.int8), 5.0, rng)
        assert a.size == b.size == loc.size == 0


def _one_pool(name, n):
    """A world where everyone shares one pool of the given location type."""
    return {name: LocationIndex(np.zeros(n, dtype=np.int64))}


class TestGenerateEncounters:
    def test_scale_zero_is_empty(self):
        rng = np.random.default_rng(0)
        idx = _one_pool("household", 10)
        a, b, loc = generate_encounters(idx, np.zeros(10, dtype=np.int8), 0.0, rng)
        assert a.size == b.size == loc.size == 0

    def test_everyone_quarantined_is_empty(self):
        rng = np.random.default_rng(1)
        idx = _one_pool("household", 10)
        a, b, _ = generate_encounters(idx, np.full(10, 4, dtype=np.int8), 1.0, rng)
        assert a.size == 0

    def test_quarantined_partner_vetoed(self):
        rng = np.random.default_rng(2)
        levels = np.array([0, 4], dtype=np.int8)
        idx = _one_pool("household", 2)
        total = 0
        for _ in range(200):
            a, b, _ = generate_encounters(idx, levels, 1.0, rng)
            total += a.size
            assert not np.any(b == 1)  # nobody meets the quarantined agent
            assert not np.any(a == 1)  # who also has rate zero
        assert total == 0  # the only possible partner is vetoed

    def test_no_self_encounters(self):
        rng = np.random.default_rng(3)
        for name in LOCATION_TYPES:
            idx = {name: LocationIndex(np.array([0, 0, 0, 0, 0, 1, 1, 1]))}
            for _ in range(50):
                a, b, _ = generate_encounters(idx, np.zeros(8, dtype=np.int8),
                                              2.0, rng)
                assert not np.any(a == b)

    def test_pairs_stay_within_groups(self):
        rng = np.random.default_rng(4)
        gid = np.array([0, 0, 0, 1, 1, 2, 2, 2])
        idx = {"workplace": LocationIndex(gid)}
        for _ in range(100):
            a, b, _ = generate_encounters(idx, np.zeros(8, dtype=np.int8), 1.0, rng)
            assert np.all(gid[a] == gid[b])

    def test_singleton_pool_draws_nothing(self):
        rng = np.random.default_rng(5)
        idx = {"other": LocationIndex(np.array([0]))}
        a, _, _ = generate_encounters(idx, np.zeros(1, dtype=np.int8), 5.0, rng)
        assert a.size == 0

    def test_location_codes_match_types(self):
        rng = np.random.default_rng(6)
        idx = {
            "household": LocationIndex(np.zeros(6, dtype=np.int64)),
            "other": LocationIndex(np.zeros(6, dtype=np.int64)),
        }
        _, _, loc = generate_encounters(idx, np.zeros(6, dtype=np.int8), 3.0, rng)
        codes = set(loc.tolist())
        assert codes <= {LOCATION_TYPES.index("household"),
                         LOCATION_TYPES.index("other")}

    @pytest.mark.parametrize("name,level,expected", [
        ("household", 0, 2.7),
        ("workplace", 1, 0.5),
        ("other", 3, 0.5 * 3.1),
    ])
    def test_empirical_rate_matches_table(self, name, level, expected):
        rng = np.random.default_rng(7)
        n, days = 50, 400
        idx = _one_pool(name, n)
        levels = np.full(n, level, dtype=np.int8)
        involved = 0
        for _ in range(days):
            a, b, _ = generate_encounters(idx, levels, 1.0, rng)
            involved += a.size + b.size
        mean = involved / (n * days)
        assert mean == pytest.approx(expected, rel=0.05)

    def test_symmetric_involvement(self):
        # each row names both participants once; per-agent daily sets are
        # derived from both columns
        rng = np.random.default_rng(8)
        idx = _one_pool("school", 12)
        a, b, _ = generate_encounters(idx, np.zeros(12, dtype=np.int8), 2.0, rng)
        per_agent = np.bincount(a, minlength=12) + np.bincount(b, minlength=12)
        assert per_agent.sum() == 2 * a.size


def _reference_encounters(pools, rec_level, mobility_scale, rng):
    """The generator before drawing over each pool's drawers, kept as the reference.

    ``pools`` maps location type name -> label array. Every agent's rate is
    gathered, zeroed where the agent has no partner, and drawn.
    """
    rec_level = np.asarray(rec_level)
    out_a, out_b, out_loc = [], [], []
    for code, name in enumerate(LOCATION_TYPES):
        if name not in pools:
            continue
        gid = pools[name]
        flat = np.argsort(gid, kind="stable")[np.count_nonzero(gid < 0):]
        size = np.bincount(gid[flat])
        start = np.cumsum(size) - size
        pos = np.zeros(gid.size, dtype=np.int64)
        pos[flat] = np.arange(flat.size) - start[gid[flat]]
        has_partner = np.zeros(gid.size, dtype=bool)
        has_partner[flat] = size[gid[flat]] >= 2
        rates = level_rate_table(LOCATION_PARAMS[name], mobility_scale)[rec_level]
        rates = np.where(has_partner, rates, 0.0)
        if not rates.any():
            continue
        k = rng.poisson(rates / 2.0)
        drawers = np.repeat(np.arange(gid.size), k)
        if drawers.size == 0:
            continue
        g = gid[drawers]
        r = rng.integers(0, size[g] - 1)
        r += r >= pos[drawers]
        partners = flat[start[g] + r]
        keep = rec_level[partners] != QUARANTINE_LEVEL
        out_a.append(drawers[keep])
        out_b.append(partners[keep])
        out_loc.append(np.full(int(keep.sum()), code, dtype=np.int64))
    if not out_a:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    return np.concatenate(out_a), np.concatenate(out_b), np.concatenate(out_loc)


def _assert_same_days(pools, rec_level, scale, seed, days=3):
    """Both generators give the same arrays and leave the stream in the same state."""
    index = {name: LocationIndex(labels) for name, labels in pools.items()}
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(days):
        got = generate_encounters(index, rec_level, scale, got_rng)
        want = _reference_encounters(pools, rec_level, scale, want_rng)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def _labels(index, n):
    """Each agent's group label in an index, -1 for none: its groups read back from ``flat``."""
    labels = np.full(n, -1, dtype=np.int64)
    labels[index.flat] = np.repeat(np.arange(index.size.size), index.size)
    return labels


@st.composite
def _world(draw):
    n = draw(st.integers(1, 40))
    labels = st.one_of(
        st.just(np.full(n, -1)),  # in no group
        st.just(np.arange(n)),  # everyone alone
        st.lists(st.integers(-1, 5), min_size=n, max_size=n).map(np.array),  # mixed
    )
    names = draw(st.lists(st.sampled_from(LOCATION_TYPES), unique=True, max_size=4))
    pools = {name: draw(labels).astype(np.int64) for name in names}
    levels = draw(st.one_of(
        st.just(np.full(n, QUARANTINE_LEVEL)),
        st.lists(st.integers(0, 4), min_size=n, max_size=n).map(np.array),
    )).astype(np.int8)
    return pools, levels


class TestEncountersMatchReference:
    @given(_world(), st.sampled_from([0.0, 0.4, 1.0, 3.0]), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_label_arrays(self, world, scale, seed):
        pools, levels = world
        _assert_same_days(pools, levels, scale, seed)

    @pytest.mark.parametrize("seed", [0, 1, 9001])
    def test_default_world(self, seed):
        world = core.WorldState(core.SimConfig(rng_seed=seed))
        pools = {name: _labels(index, world.n) for name, index in world.loc_indexes.items()}
        levels = np.random.default_rng(seed).integers(0, 5, world.n).astype(np.int8)
        _assert_same_days(pools, levels, 1.0, seed)
