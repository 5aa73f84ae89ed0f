"""Encounter generation and effective-contacts table tests."""

import numpy as np
import pytest

from pctsim import mobility
from pctsim.mobility import (
    LOCATION_PARAMS,
    LOCATION_TYPES,
    LocationIndex,
    LocationParams,
    effective_contacts,
    generate_encounters,
    level_rate_table,
)


class TestEffectiveContacts:
    def test_table_values_level_zero(self):
        for name, c_l in (("household", 2.7), ("workplace", 10.0),
                          ("school", 6.0), ("other", 3.1)):
            assert effective_contacts(LOCATION_PARAMS[name], 0, 1.0) == c_l

    def test_household_level_three(self):
        assert effective_contacts(LOCATION_PARAMS["household"], 3, 1.0) == \
            pytest.approx(0.70 * 2.7)

    def test_workplace_level_one(self):
        assert effective_contacts(LOCATION_PARAMS["workplace"], 1, 1.0) == \
            pytest.approx(0.25 * 0.20 * 10.0)

    def test_quarantine_level_is_zero_everywhere(self):
        for name in LOCATION_TYPES:
            assert effective_contacts(LOCATION_PARAMS[name], 4, 3.0) == 0.0

    def test_scale_multiplies(self):
        loc = LOCATION_PARAMS["other"]
        assert effective_contacts(loc, 2, 2.0) == \
            pytest.approx(2.0 * effective_contacts(loc, 2, 1.0))

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError):
            effective_contacts(LOCATION_PARAMS["other"], 5, 1.0)

    def test_level_rate_table_matches_pointwise(self):
        loc = LOCATION_PARAMS["school"]
        table = level_rate_table(loc, 1.3)
        for level in range(5):
            assert table[level] == pytest.approx(effective_contacts(loc, level, 1.3))

    def test_location_params_validation(self):
        with pytest.raises(ValueError):
            LocationParams("x", -1.0, 0.5)
        with pytest.raises(ValueError):
            LocationParams("x", 2.0, 1.5)


class TestLocationIndex:
    def test_hand_built_groups(self):
        # groups 0: {1, 4, 7}, 1: {3}, 2: {0, 5, 6}; agent 2 is in none
        index = LocationIndex(np.array([2, 0, -1, 1, 0, 2, 2, 0]))
        assert index.n_agents == 8
        assert index.flat.tolist() == [1, 4, 7, 3, 0, 5, 6]
        assert index.start.tolist() == [0, 3, 4]
        assert index.size.tolist() == [3, 1, 3]
        assert index.pos.tolist() == [0, 0, 0, 0, 1, 1, 2, 2]
        assert index.gid.tolist() == [2, 0, -1, 1, 0, 2, 2, 0]
        assert index._has_partner.tolist() == [True, True, False, False,
                                               True, True, True, True]

    def test_one_member_group_has_no_partner(self):
        rng = np.random.default_rng(9)
        idx = {"workplace": LocationIndex(np.array([0, 1, 1, -1, 1]))}
        assert not idx["workplace"]._has_partner[0]
        for _ in range(50):
            a, b, _ = generate_encounters(idx, np.zeros(5, dtype=np.int8), 5.0, rng)
            assert a.size > 0
            assert not np.isin([0, 3], np.concatenate([a, b])).any()

    @pytest.mark.parametrize("name", LOCATION_TYPES)
    def test_no_groups_draw_nothing(self, name):
        rng = np.random.default_rng(10)
        index = LocationIndex(np.full(6, -1, dtype=np.int64))
        assert index.flat.size == index.size.size == index.start.size == 0
        assert not index._has_partner.any()
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
        idx = {"workplace": LocationIndex(np.array([0, 0, 0, 1, 1, 2, 2, 2]))}
        gid = idx["workplace"].gid
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
