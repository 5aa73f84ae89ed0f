"""Encounter generation and effective-contacts table tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pctsim import core, mobility
from pctsim.mobility import (
    LOCATION_TYPES,
    QUARANTINE_LEVEL,
    LocationIndex,
    generate_encounters,
    level_rate_table,
)


class TestEffectiveContacts:
    def test_table_values_level_zero(self):
        for name, c_l in (("household", 2.7), ("workplace", 10.0),
                          ("school", 6.0), ("other", 3.1)):
            assert level_rate_table(name, 1.0)[0] == c_l

    def test_household_level_three(self):
        assert level_rate_table("household", 1.0)[3] == \
            pytest.approx(0.70 * 2.7)

    def test_workplace_level_one(self):
        assert level_rate_table("workplace", 1.0)[1] == \
            pytest.approx(0.25 * 0.20 * 10.0)

    def test_quarantine_level_is_zero_everywhere(self):
        for name in LOCATION_TYPES:
            assert level_rate_table(name, 3.0)[4] == 0.0

    def test_scale_multiplies(self):
        assert level_rate_table("other", 2.0)[2] == \
            pytest.approx(2.0 * level_rate_table("other", 1.0)[2])


class TestLocationIndex:
    def test_hand_built_groups(self):
        # groups 0: {1, 4, 7}, 1: {3}, 2: {0, 5, 6}; agent 2 is in none
        index = LocationIndex(np.array([2, 0, -1, 1, 0, 2, 2, 0]))
        assert index.flat.tolist() == [1, 4, 7, 3, 0, 5, 6]
        # groups 0 and 2 read back by where each starts in flat; agent 3,
        # alone in group 1, has no partner, as agent 2 has none
        assert _labels(index, 8).tolist() == [4, 0, -1, -1, 0, 4, 4, 0]
        # the members of groups of two or more, with their places in flat
        assert index.drawers.tolist() == [0, 1, 4, 5, 6, 7]
        assert index.pos.tolist() == [0, 0, 1, 1, 2, 2]
        assert index.offset.tolist() == [4, 0, 0, 4, 4, 0]
        assert index.span.tolist() == [2, 2, 2, 2, 2, 2]
        assert index.drawers.dtype == index.pos.dtype == np.int32

    def test_one_member_group_has_no_partner(self):
        rng = np.random.default_rng(9)
        idx = _pools(5, workplace=np.array([0, 1, 1, -1, 1]))
        assert 0 not in idx["workplace"].drawers.tolist()
        for _ in range(50):
            a, b, _, _ = generate_encounters(idx, np.zeros(5, dtype=np.int8), 5.0, rng)
            assert a.size > 0
            assert not np.isin([0, 3], np.concatenate([a, b])).any()

    @pytest.mark.parametrize("name", LOCATION_TYPES)
    def test_no_groups_draw_nothing(self, name):
        rng = np.random.default_rng(10)
        idx = _pools(6)
        index = idx[name]
        assert index.flat.size == 0
        assert index.drawers.size == 0
        state = rng.bit_generator.state
        a, b, loc, _ = generate_encounters(idx, np.zeros(6, dtype=np.int8), 5.0, rng)
        assert a.size == b.size == loc.size == 0
        assert rng.bit_generator.state == state  # an empty pool draws no bits

    @given(group_of=st.one_of(
        st.lists(st.integers(-1, 9), max_size=60).map(np.array),
        # labels of 65535 and above, so the high digit needs its own pass
        st.lists(st.integers(0, 2**20), min_size=1, max_size=6).flatmap(
            lambda labels: st.lists(st.sampled_from([-1] + labels), max_size=60).map(np.array)),
    ))
    @example(group_of=np.zeros(0, dtype=np.int64))
    @example(group_of=np.zeros(5, dtype=np.int64))  # a single group
    @example(group_of=np.full(4, -1))
    @example(group_of=np.array([65535, -1, 65534, 65535, 0]))  # 65535 needs two passes
    @example(group_of=np.array([65536, -1, 65534, 65535, 0, 65535, 65536, 131071, 3]))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_argsort_reference(self, group_of):
        _assert_same_index(LocationIndex(group_of.astype(np.int64)), group_of)

    def test_matches_the_argsort_reference_at_300k(self, monkeypatch):
        built = []

        class Recorded(LocationIndex):
            def __init__(self, group_of):
                built.append(np.array(group_of))
                super().__init__(group_of)

        monkeypatch.setattr(mobility, "LocationIndex", Recorded)
        world = core.init_world(core.SimConfig(population_size=300_000, num_days=1))
        assert len(built) == len(world.loc_indexes)
        for group_of, index in zip(built, world.loc_indexes.values()):
            _assert_same_index(index, group_of)
        assert world.household_id.max() >= 0xFFFF  # so households took the two-pass sort

    def test_a_pool_keeps_only_the_arrays_its_draws_read(self):
        world = core.init_world(core.SimConfig(population_size=500, num_days=1))
        for name, index in world.loc_indexes.items():
            kept = () if name == "other" else _KEPT  # "other" is one group of everyone
            assert vars(index).keys() == {"whole", *kept}, name
            assert index.whole == (name == "other"), name


_KEPT = ("flat", "drawers", "span", "offset", "pos")  # what a grouped pool's draws read


def _arrays(index):
    """The names of the arrays a LocationIndex keeps."""
    return {name for name, value in vars(index).items() if isinstance(value, np.ndarray)}


def _argsort_index(group_of):
    """A grouped ``LocationIndex``'s arrays built with an int64 stable argsort, the
    reference for its radix sort."""
    gid = np.asarray(group_of, dtype=np.int64)
    order = np.argsort(gid, kind="stable")
    flat = order[np.count_nonzero(gid < 0):]
    member_gid = gid[flat]
    size = np.bincount(member_gid)
    start = np.cumsum(size) - size
    place = np.zeros(gid.size, dtype=np.int64)
    place[flat] = np.arange(flat.size)
    has_partner = np.zeros(gid.size, dtype=bool)
    has_partner[flat] = size[member_gid] >= 2
    drawers = np.flatnonzero(has_partner)
    g = gid[drawers]
    return {"flat": flat, "drawers": drawers.astype(np.int32),
            "span": (size[g] - 1).astype(np.int32), "offset": start[g].astype(np.int32),
            "pos": (place[drawers] - start[g]).astype(np.int32)}


def _generic_index(group_of):
    """A LocationIndex holding ``_argsort_index``'s fields, drawn by the generic path."""
    index = object.__new__(LocationIndex)
    vars(index).update(_argsort_index(group_of), whole=False)
    return index


def _assert_same_index(index, group_of):
    """``index`` is whole, and holds no array, exactly where the reference makes every
    agent a drawer with n - 1 partners; otherwise it holds the reference's arrays."""
    want = _argsort_index(group_of)
    n = len(group_of)
    assert index.whole == (want["drawers"].size == n > 0 and bool((want["span"] == n - 1).all()))
    if index.whole:
        assert _arrays(index) == set()
        return
    assert _arrays(index) == set(want)
    for name, array in want.items():
        got = getattr(index, name)
        assert got.dtype == array.dtype, name
        assert np.array_equal(got, array), name


def _pools(n, **labels):
    """One LocationIndex per location type: the group labels given by name, the
    other types with nobody in a group."""
    return {name: LocationIndex(labels.get(name, np.full(n, -1, dtype=np.int64)))
            for name in LOCATION_TYPES}


def _one_pool(name, n):
    """A world where everyone shares one pool of the given location type."""
    return _pools(n, **{name: np.zeros(n, dtype=np.int64)})


class TestGenerateEncounters:
    def test_scale_zero_is_empty(self):
        rng = np.random.default_rng(0)
        idx = _one_pool("household", 10)
        a, b, loc, _ = generate_encounters(idx, np.zeros(10, dtype=np.int8), 0.0, rng)
        assert a.size == b.size == loc.size == 0

    def test_everyone_quarantined_is_empty(self):
        rng = np.random.default_rng(1)
        idx = _one_pool("household", 10)
        a, b, _, _ = generate_encounters(idx, np.full(10, 4, dtype=np.int8), 1.0, rng)
        assert a.size == 0

    def test_quarantined_partner_vetoed(self):
        rng = np.random.default_rng(2)
        levels = np.array([0, 4], dtype=np.int8)
        idx = _one_pool("household", 2)
        total = 0
        for _ in range(200):
            a, b, _, _ = generate_encounters(idx, levels, 1.0, rng)
            total += a.size
            assert not np.any(b == 1)  # nobody meets the quarantined agent
            assert not np.any(a == 1)  # who also has rate zero
        assert total == 0  # the only possible partner is vetoed

    def test_no_self_encounters(self):
        rng = np.random.default_rng(3)
        for name in LOCATION_TYPES:
            idx = _pools(8, **{name: np.array([0, 0, 0, 0, 0, 1, 1, 1])})
            for _ in range(50):
                a, b, _, _ = generate_encounters(idx, np.zeros(8, dtype=np.int8),
                                                 2.0, rng)
                assert not np.any(a == b)

    def test_pairs_stay_within_groups(self):
        rng = np.random.default_rng(4)
        gid = np.array([0, 0, 0, 1, 1, 2, 2, 2])
        idx = _pools(8, workplace=gid)
        for _ in range(100):
            a, b, _, _ = generate_encounters(idx, np.zeros(8, dtype=np.int8), 1.0, rng)
            assert np.all(gid[a] == gid[b])

    def test_singleton_pool_draws_nothing(self):
        rng = np.random.default_rng(5)
        idx = _pools(1, other=np.array([0]))
        a, _, _, _ = generate_encounters(idx, np.zeros(1, dtype=np.int8), 5.0, rng)
        assert a.size == 0

    def test_location_codes_match_types(self):
        rng = np.random.default_rng(6)
        idx = _pools(6, household=np.zeros(6, dtype=np.int64), other=np.zeros(6, dtype=np.int64))
        _, _, loc, _ = generate_encounters(idx, np.zeros(6, dtype=np.int8), 3.0, rng)
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
            a, b, _, _ = generate_encounters(idx, levels, 1.0, rng)
            involved += a.size + b.size
        mean = involved / (n * days)
        assert mean == pytest.approx(expected, rel=0.05)

    def test_symmetric_involvement(self):
        # each row names both participants once; per-agent daily sets are
        # derived from both columns
        rng = np.random.default_rng(8)
        idx = _one_pool("school", 12)
        a, b, _, _ = generate_encounters(idx, np.zeros(12, dtype=np.int8), 2.0, rng)
        per_agent = np.bincount(a, minlength=12) + np.bincount(b, minlength=12)
        assert per_agent.sum() == 2 * a.size


class TestWholePool:
    def test_only_one_group_of_everyone_is_whole(self):
        assert LocationIndex(np.zeros(2, dtype=np.int64)).whole
        assert LocationIndex(np.full(5, 3, dtype=np.int64)).whole
        for group_of in ([0], [], [-1, -1], [0, 0, -1], [0, 1, 1]):
            assert not LocationIndex(np.array(group_of, dtype=np.int64)).whole

    @given(n=st.integers(2, 500), name=st.sampled_from(LOCATION_TYPES),
           top=st.integers(0, 4), scale=st.sampled_from([0.0, 0.4, 1.0, 3.0]),
           seed=st.integers(0, 2**32 - 1))
    @example(n=2, name="other", top=1, scale=1.0, seed=0)
    @settings(max_examples=100, deadline=None)
    def test_draws_what_the_generic_pool_draws(self, n, name, top, scale, seed):
        levels = np.random.default_rng(seed).integers(0, top + 1, n).astype(np.int8)
        whole = _one_pool(name, n)
        generic = dict(whole, **{name: _generic_index(np.zeros(n, dtype=np.int64))})
        assert whole[name].whole and not generic[name].whole
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2):
            got = generate_encounters(whole, levels, scale, got_rng)
            want = generate_encounters(generic, levels, scale, want_rng)
            for g, w in zip(got[:3], want[:3]):
                assert g.dtype == w.dtype and np.array_equal(g, w)
            assert got[3] == want[3] == got[0].size
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


def _reference_encounters(pools, rec_level, mobility_scale, rng):
    """The generator before drawing over each pool's drawers, kept as the reference.

    ``pools`` maps each location type name to a label array. Every agent's
    rate is gathered, zeroed where the agent has no partner, and drawn.
    """
    rec_level = np.asarray(rec_level)
    out_a, out_b, out_loc = [], [], []
    for code, name in enumerate(LOCATION_TYPES):
        gid = pools[name]
        flat = np.argsort(gid, kind="stable")[np.count_nonzero(gid < 0):]
        size = np.bincount(gid[flat])
        start = np.cumsum(size) - size
        pos = np.zeros(gid.size, dtype=np.int64)
        pos[flat] = np.arange(flat.size) - start[gid[flat]]
        has_partner = np.zeros(gid.size, dtype=bool)
        has_partner[flat] = size[gid[flat]] >= 2
        rates = level_rate_table(name, mobility_scale)[rec_level]
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
    """Each agent's group label in an index: 0 for all in a whole pool, else a drawer's
    ``offset``, and -1 for an agent in no group or alone in one, who draws nothing
    either way."""
    if index.whole:
        return np.zeros(n, dtype=np.int64)
    labels = np.full(n, -1, dtype=np.int64)
    labels[index.drawers] = index.offset
    return labels


@st.composite
def _world(draw):
    n = draw(st.integers(1, 40))
    labels = st.one_of(
        st.just(np.full(n, -1)),  # in no group
        st.just(np.arange(n)),  # everyone alone
        st.lists(st.integers(-1, 5), min_size=n, max_size=n).map(np.array),  # mixed
    )
    pools = {name: draw(labels).astype(np.int64) for name in LOCATION_TYPES}
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
        pools = {name: _labels(index, world.population) for name, index in world.loc_indexes.items()}
        levels = np.random.default_rng(seed).integers(0, 5, world.population).astype(np.int8)
        _assert_same_days(pools, levels, 1.0, seed)


class TestRead:
    @given(_world(), st.sampled_from([None, *LOCATION_TYPES]), st.sampled_from([0.4, 1.0, 3.0]),
           st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=100, deadline=None)
    def test_rows_are_the_rows_the_need_keeps(self, world, whole, scale, seed, data):
        pools, levels = world
        if whole is not None:  # one type's pool holds everyone
            pools = dict(pools, **{whole: np.zeros(levels.size, dtype=np.int64)})
        read = np.array(data.draw(st.lists(st.integers(0, 2), min_size=levels.size,
                                           max_size=levels.size)), dtype=np.int8)
        index = {name: LocationIndex(labels) for name, labels in pools.items()}
        all_rng, read_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2):
            a, b, loc, count = generate_encounters(index, levels, scale, all_rng)
            got = generate_encounters(index, levels, scale, read_rng, read)
            keep = read[a] + read[b] >= 2
            for g, w in zip(got[:3], (a[keep], b[keep], loc[keep])):
                assert g.dtype == w.dtype and np.array_equal(g, w)
            assert got[3] == count == a.size
            assert read_rng.bit_generator.state == all_rng.bit_generator.state
