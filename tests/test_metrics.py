"""Reproduction number, false quarantine, contacts, and CSV row tests."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import random_forest, recorded_levels, recount_r

from pctsim import metrics
from pctsim.core import EVENT_LOCATIONS, POLICIES, SimConfig, epi_states, run
from pctsim.metrics import (
    CSV_FIELDS,
    EXTERNAL_SEED,
    STATE_E,
    STATE_I,
    STATE_R,
    STATE_S,
    config_hash,
    default_r_window,
    effective_contacts_per_agent_day,
    estimate_r,
    false_quarantine_fraction,
)


def _events(*rows):
    """Infection events as ``estimate_r`` takes them: an int64 (m, 3) array."""
    return np.array(rows, dtype=np.int64).reshape(-1, 3)


def _ids(*ids):
    return np.array(ids, dtype=np.int64)


# the same rows as (m, 3) events and with trace.events' location column
_EVENT_WIDTHS = pytest.mark.parametrize(
    "as_input", [lambda events: events,
                 lambda events: np.column_stack((events, np.full(len(events), -1)))],
    ids=["array", "with_location"])


class TestEstimateR:
    def test_one_recovered_infector_two_children(self):
        # agent 1 is seeded, so only its children can be parents; agent 2
        # is the recovered parent
        events = _events((0, EXTERNAL_SEED, 1), (1, 1, 2), (3, 2, 3), (4, 2, 4))
        assert estimate_r(events, _ids(2)) == 2.0

    def test_two_recovered_infectors_three_and_zero(self):
        events = _events(
            (0, EXTERNAL_SEED, 0),
            (1, 0, 1), (1, 0, 2),
            (3, 1, 3), (3, 1, 4), (4, 1, 5),
        )
        # parents: 1 (3 children) and 2 (0 children), both recovered
        assert estimate_r(events, _ids(1, 2)) == pytest.approx(1.5)

    def test_no_recovered_infectors_is_nan(self):
        events = _events((0, EXTERNAL_SEED, 0), (1, 0, 1))
        assert math.isnan(estimate_r(events, _ids()))

    def test_seeds_excluded_from_denominator(self):
        # the seed has children but is not a countable parent
        events = _events((0, EXTERNAL_SEED, 0), (1, 0, 1), (1, 0, 2))
        assert math.isnan(estimate_r(events, _ids(0)))

    def test_children_count_even_when_not_recovered(self):
        events = _events((0, EXTERNAL_SEED, 0), (1, 0, 1), (5, 1, 2))
        # parent 1 recovered, child 2 still infectious: still counted
        assert estimate_r(events, _ids(1)) == 1.0

    def test_window_filters_parent_exposure_not_children(self):
        events = _events((0, EXTERNAL_SEED, 0), (2, 0, 1), (30, 1, 2))
        # parent 1 exposed day 2, child at day 30 counts for the parent
        assert estimate_r(events, _ids(1), window=(0, 10)) == 1.0
        # parent exposed outside the window is not counted
        assert math.isnan(estimate_r(events, _ids(1), window=(3, 10)))

    @_EVENT_WIDTHS
    def test_multi_parent_rejected(self, as_input):
        events = _events((0, EXTERNAL_SEED, 0), (1, 0, 1), (2, 0, 1))
        with pytest.raises(ValueError):
            estimate_r(as_input(events), _ids())

    @_EVENT_WIDTHS
    def test_self_infection_rejected(self, as_input):
        with pytest.raises(ValueError):
            estimate_r(as_input(_events((1, 2, 2))), _ids())

    @_EVENT_WIDTHS
    def test_unknown_infector_rejected(self, as_input):
        with pytest.raises(ValueError):
            estimate_r(as_input(_events((3, 7, 1))), _ids())

    @_EVENT_WIDTHS
    def test_day_order_violation_rejected(self, as_input):
        events = _events((5, EXTERNAL_SEED, 0), (2, 0, 1))
        with pytest.raises(ValueError):
            estimate_r(as_input(events), _ids())

    def test_accepts_event_objects_and_arrays(self):
        # rows as trace.events codes them, with the location named by EVENT_LOCATIONS
        rows = np.array([(0, EXTERNAL_SEED, 0, -1), (1, 0, 1, 0), (2, 1, 2, 3)], dtype=np.int64)
        assert [EVENT_LOCATIONS[code] for code in rows[:, 3].tolist()] == \
            ["external", "household", "other"]
        assert estimate_r(rows, _ids(1)) == 1.0

    def test_default_window(self):
        assert default_r_window(50) == (0, 36)
        assert default_r_window(10) == (0, 1)


def _quarantined_healthy(levels, states):
    """Agent-days at level 4 whose end-of-day state is S or R, from the histories."""
    healthy = (states == STATE_S) | (states == STATE_R)
    return int(((levels == 4) & healthy).sum())


def _fake_trace(levels, states, encounters=None):
    levels, states = np.asarray(levels), np.asarray(states)
    if encounters is None:
        encounters = np.zeros(levels.shape[1], int)
    return SimpleNamespace(
        day_reports=[SimpleNamespace(quarantined_healthy=_quarantined_healthy(lv, st),
                                     encounters=int(n))
                     for lv, st, n in zip(levels.T, states.T, encounters)],
        population=levels.shape[0],
        num_days=levels.shape[1],
    )


class TestFalseQuarantine:
    def test_nobody_quarantined(self):
        tr = _fake_trace([[1, 1], [1, 1]], [[STATE_S] * 2] * 2)
        assert false_quarantine_fraction(tr) == 0.0

    def test_all_healthy_all_quarantined(self):
        tr = _fake_trace([[4, 4], [4, 4]], [[STATE_S, STATE_R]] * 2)
        assert false_quarantine_fraction(tr) == 1.0

    def test_three_agent_example(self):
        # one infected quarantined, one healthy quarantined, one free
        tr = _fake_trace([[4], [4], [1]], [[STATE_I], [STATE_S], [STATE_S]])
        assert false_quarantine_fraction(tr) == pytest.approx(1 / 3)

    def test_exposed_quarantine_not_false(self):
        tr = _fake_trace([[4]], [[STATE_E]])
        assert false_quarantine_fraction(tr) == 0.0

    def test_recovered_quarantine_is_false(self):
        tr = _fake_trace([[4]], [[STATE_R]])
        assert false_quarantine_fraction(tr) == 1.0

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(0)
        # 50 random shapes, then a run of 0 days, which must not divide by zero
        for i in range(51):
            n, d = rng.integers(1, 8, 2) if i < 50 else (3, 0)
            tr = _fake_trace(rng.integers(0, 5, (n, d)),
                             rng.integers(0, 4, (n, d)))
            assert 0.0 <= false_quarantine_fraction(tr) <= 1.0

    @pytest.mark.parametrize("policy", POLICIES)
    def test_day_reports_match_the_histories(self, policy):
        # the reference recounts the (n, num_days) level and state histories
        with recorded_levels() as levels:
            tr = run(SimConfig(population_size=600, num_days=30, rng_seed=2, policy=policy,
                               predictor="noisy_oracle", initial_exposed_fraction=0.05,
                               global_mobility_scale=3.75, record_observables=False,
                               record_estimates=False))
        level_hist = levels()
        epi_hist = epi_states(tr, np.arange(tr.population), np.arange(tr.num_days))
        assert _quarantined_healthy(level_hist, epi_hist) > 0
        expected = _quarantined_healthy(level_hist, epi_hist) / (tr.population * tr.num_days)
        assert false_quarantine_fraction(tr) == expected


class TestEffectiveContacts:
    def test_zero(self):
        tr = _fake_trace([[1]], [[STATE_S]])
        assert effective_contacts_per_agent_day(tr) == 0.0

    def test_a_run_of_no_days(self):
        tr = _fake_trace(np.ones((3, 0)), np.zeros((3, 0)))
        assert effective_contacts_per_agent_day(tr) == 0.0

    def test_factor_two_convention(self):
        tr = _fake_trace([[1], [1]], [[STATE_S], [STATE_S]],
                         encounters=np.array([1]))
        assert effective_contacts_per_agent_day(tr) == 1.0

    def test_matches_brute_force_recount(self):
        rng = np.random.default_rng(1)
        counts = rng.integers(0, 50, 20)
        tr = _fake_trace(np.ones((7, 20)), np.zeros((7, 20)),
                         encounters=counts)
        assert effective_contacts_per_agent_day(tr) == \
            pytest.approx(2 * counts.sum() / (7 * 20))


class TestConfigHashAndRows:
    def test_seed_excluded_from_hash(self):
        a = {"population_size": 10, "rng_seed": 1}
        b = {"population_size": 10, "rng_seed": 999}
        assert config_hash(a) == config_hash(b)
        assert len(config_hash(a)) == 12

    def test_other_fields_change_hash(self):
        a = {"population_size": 10, "rng_seed": 1}
        b = {"population_size": 11, "rng_seed": 1}
        assert config_hash(a) != config_hash(b)

    def test_csv_fields_order(self):
        assert CSV_FIELDS == (
            "config_hash", "seed", "policy", "adoption", "mobility_scale",
            "contacts", "r", "cumulative_cases", "false_quarantine", "status")


def test_r_matches_brute_force_fuzz():
    rng = np.random.default_rng(42)
    for _ in range(200):
        events, recovered, window = random_forest(rng)
        expected = recount_r(events, recovered, window)
        got = estimate_r(events, recovered, window)
        if math.isnan(expected):
            assert math.isnan(got)
        else:
            assert got == pytest.approx(expected)
