"""Disease course, viral load curve, and transmission trial tests.

The tent curve is :func:`evl_tent`; the ground truth and the courses it
reads are checked on an engine run.
"""

import numpy as np
import pytest

from pctsim import virology
from pctsim.core import SimConfig, ground_truth, init_world, step_day
from pctsim.virology import (
    evl_tent,
    sample_disease_courses,
    transmission_probability,
)

# A course with symptom onset on day 5: peak 0.7 days earlier, at 4.3.
ONSET, PEAK, RECOVERY, PEAK_EVL = 2.5, 4.3, 19.0, 0.8


def _tent(t):
    return evl_tent(t, ONSET, PEAK, RECOVERY, PEAK_EVL)


class TestTentCurve:
    def test_zero_at_onset(self):
        assert _tent(2.5) == 0.0

    def test_peak_value(self):
        assert _tent(PEAK) == pytest.approx(0.8)

    def test_linear_interpolation_example(self):
        assert _tent(3.4) == pytest.approx(0.4)

    def test_zero_outside_support(self):
        for t in (0.0, 1.0, 2.49, 19.0, 25.0):
            assert _tent(t) == 0.0

    def test_continuous_and_single_peak(self):
        rng = np.random.default_rng(3)
        arrays = sample_disease_courses(200, rng)
        for i in range(200):
            onset = arrays["infectiousness_onset_day"][i]
            peak = arrays["peak_day"][i]
            recovery = arrays["recovery_day"][i]
            pe = arrays["peak_evl"][i]
            t = np.linspace(onset - 1, recovery + 1, 400)
            y = evl_tent(t, onset, peak, recovery, pe)
            assert np.all(y >= 0) and np.all(y <= pe + 1e-12)
            # the max sits at one of the two samples bracketing the peak
            assert abs(int(np.argmax(y)) - int(np.argmin(np.abs(t - peak)))) <= 1
            # piecewise-linear in t, so steps are bounded by the max slope
            slope = pe / min(peak - onset, recovery - peak)
            dt = t[1] - t[0]
            assert np.max(np.abs(np.diff(y))) <= slope * dt + 1e-12


@pytest.fixture(scope="module")
def world():
    """An engine run long enough for day-0 seeds to recover."""
    w = init_world(SimConfig(population_size=400, num_days=40, rng_seed=11,
                             initial_exposed_fraction=0.1, global_mobility_scale=3.75,
                             record_observables=False, record_estimates=False))
    for _ in range(40):
        step_day(w)
    return w


@pytest.fixture(scope="module")
def y_hist(world):
    """The run's ground truth, derived from the courses for every agent and day."""
    return ground_truth(world, np.arange(world.population), np.arange(world.cfg.num_days))


def _course_t(w, agent, day):
    """Days since exposure at the midpoint of ``day``."""
    return day + 0.5 - w.exposure_day[agent]


class TestGroundTruth:
    def test_susceptible_agent_is_zero(self, world, y_hist):
        never = world.exposure_day < 0
        assert never.any()
        assert np.all(y_hist[never] == 0.0)

    def test_past_recovery_is_zero(self, world, y_hist):
        checked = 0
        for agent in np.flatnonzero(world.exposure_day >= 0).tolist():
            for day in range(world.cfg.num_days):
                if _course_t(world, agent, day) >= world.recovery[agent]:
                    assert y_hist[agent, day] == 0.0
                    checked += 1
        assert checked > 0

    def test_day_midpoint_convention(self, world, y_hist):
        exposed = np.flatnonzero(world.exposure_day >= 0)
        assert exposed.size > 40
        for agent in exposed.tolist():
            days = np.arange(world.exposure_day[agent], world.cfg.num_days)
            expected = evl_tent(days + 0.5 - world.exposure_day[agent], world.onset[agent],
                                world.peak[agent], world.recovery[agent],
                                world.peak_evl[agent])
            assert y_hist[agent, days] == pytest.approx(expected, rel=1e-6, abs=1e-7)
        assert y_hist.max() > 0

    def test_before_exposure_is_zero(self, world, y_hist):
        late = np.flatnonzero(world.exposure_day > 0)
        assert late.size > 0
        for agent in late.tolist():
            assert np.all(y_hist[agent, :world.exposure_day[agent]] == 0.0)

    def test_peak_day_is_history_max(self, world, y_hist):
        seeds = np.flatnonzero(world.exposure_day == 0)
        assert seeds.size > 20
        for agent in seeds.tolist():
            assert world.recovery[agent] < world.cfg.num_days
            # the day whose midpoint is nearest the peak carries the max
            peak_day = int(np.floor(world.peak[agent] - 0.5))
            assert int(np.argmax(y_hist[agent])) in {peak_day, peak_day + 1}


class TestSampledCourses:
    def test_landmark_means(self):
        rng = np.random.default_rng(5)
        arrays = sample_disease_courses(100_000, rng)
        assert abs(arrays["symptom_onset_day"].mean() - 5.0) < 0.1
        assert abs(arrays["infectiousness_onset_day"].mean() - 2.5) < 0.1
        post = arrays["recovery_day"] - arrays["symptom_onset_day"]
        assert abs(post.mean() - 14.0) < 0.2

    def test_peak_is_exactly_before_symptoms(self):
        rng = np.random.default_rng(6)
        arrays = sample_disease_courses(10_000, rng)
        assert np.array_equal(arrays["peak_day"],
                              arrays["symptom_onset_day"] - 0.7)

    def test_ordering_and_clamps(self):
        rng = np.random.default_rng(7)
        arrays = sample_disease_courses(50_000, rng)
        assert np.all(arrays["infectiousness_onset_day"] >= 0.5)
        assert np.all(arrays["infectiousness_onset_day"] < arrays["peak_day"])
        assert np.all(arrays["peak_day"] < arrays["recovery_day"])
        assert np.all(arrays["recovery_day"] - arrays["symptom_onset_day"] >= 1.0)
        assert np.all((arrays["peak_evl"] > 0) & (arrays["peak_evl"] <= 1.0))

    def test_asymptomatic_fraction(self):
        rng = np.random.default_rng(8)
        arrays = sample_disease_courses(100_000, rng)
        assert abs(arrays["is_asymptomatic"].mean() - 0.25) < 0.01

    def test_single_sample_matches_schema(self):
        rng = np.random.default_rng(9)
        c = {key: value[0] for key, value in sample_disease_courses(1, rng).items()}
        assert set(c) == {"infectiousness_onset_day", "symptom_onset_day", "peak_day",
                          "recovery_day", "peak_evl", "is_asymptomatic", "symptom_mask"}
        assert c["infectiousness_onset_day"] < c["peak_day"] < c["recovery_day"]
        assert c["peak_day"] == pytest.approx(c["symptom_onset_day"] - 0.7)
        assert 0 < c["symptom_mask"] < 1 << len(virology.SYMPTOM_NAMES)


def _trials(p, n, rng):
    """Bernoulli draws as the engine's transmission phase makes them."""
    return rng.random(n) < p


class TestTransmission:
    def test_zero_evl_never_transmits(self):
        rng = np.random.default_rng(10)
        p = transmission_probability(np.zeros(1000), 0.9, 1.0, 0.0)
        assert not _trials(p, 1000, rng).any()

    def test_probability_one_always_transmits(self):
        rng = np.random.default_rng(11)
        assert transmission_probability(1.0, 1.0, 2.0, 0.0) == 1.0
        p = transmission_probability(np.ones(1000), 1.0, 2.0, 0.0)
        assert _trials(p, 1000, rng).all()

    def test_monte_carlo_frequency(self):
        # base 0.4 x evl 1.0 x env 1.0 x (1 - 0.5 * 1.0) = 0.2
        assert transmission_probability(1.0, 0.4, 1.0, 1.0) == pytest.approx(0.2)
        rng = np.random.default_rng(12)
        hits = _trials(transmission_probability(np.ones(100_000), 0.4, 1.0, 1.0),
                       100_000, rng)
        assert abs(hits.mean() - 0.2) < 0.01

    def test_carefulness_halves_at_most(self):
        p_full = transmission_probability(0.8, 0.1, 1.0, 0.0)
        p_careful = transmission_probability(0.8, 0.1, 1.0, 1.0)
        assert p_careful == pytest.approx(p_full * 0.5)


def test_symptom_names_from_mask():
    names = virology.SYMPTOM_NAMES
    assert virology.symptom_names_from_mask(0b00101) == [names[0], names[2]]
    assert virology.symptom_names_from_mask(0) == []
