"""Metamorphic relations between runs on small random worlds.

Every stream is spawned from the config seed and drawn in a fixed order,
so policies can be compared on identical worlds. These relations hold
whatever the trace bytes are, so they guard refactors that no golden
digest can name: a draw leaked across streams, a level moved by mistake,
or state that one run leaves for the next. The world's invariants are
checked after every day of a stepped run.
"""

import filecmp
from unittest import mock

import numpy as np
from conftest import health, recorded_days, recorded_levels
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pctsim import virology
from pctsim.core import (
    POLICIES,
    QUARANTINE_DAYS,
    SimConfig,
    epi_states,
    ground_truth,
    init_world,
    run,
    step_day,
    write_run,
)
from pctsim.metrics import STATE_E, STATE_I
from pctsim.virology import TEST_NONE, TEST_PENDING, TEST_POSITIVE

_NO_DROPOUTS = dict(symptom_dropout=0.0, symptom_dropin=0.0, quarantine_dropout_test=0.0,
                    quarantine_dropout_household=0.0, all_levels_dropout=0.0)


@st.composite
def small_worlds(draw):
    """Configs of 50-400 agents over 5-20 days, d_max 1-15, dropouts on or off."""
    cfg = SimConfig(population_size=draw(st.integers(50, 400)),
                    num_days=draw(st.integers(5, 20)), d_max=draw(st.integers(1, 15)),
                    initial_exposed_fraction=draw(st.sampled_from([0.02, 0.05, 0.1])),
                    global_mobility_scale=3.75, rng_seed=draw(st.integers(0, 2**32 - 1)),
                    record_observables=False, record_estimates=False)
    return cfg if draw(st.booleans()) else cfg.replace(**_NO_DROPOUTS)


def _daily_encounters(trace):
    return [report.encounters for report in trace.day_reports]


@settings(max_examples=15, deadline=None)
@given(cfg=small_worlds())
def test_pct_at_the_baseline_level_is_no_tracing(cfg):
    # psi maps every risk level to level 1, so pct only draws its predictions
    with recorded_levels() as base_levels:
        base = run(cfg.replace(policy="no_tracing"))
    assert len(base.events)
    for predictor in ("oracle", "noisy_oracle"):
        with recorded_levels() as pct_levels:
            pct = run(cfg.replace(policy="pct", predictor=predictor, psi_table=(1,) * 16))
        np.testing.assert_array_equal(pct.events, base.events)
        assert _daily_encounters(pct) == _daily_encounters(base)
        assert pct_levels().tolist() == base_levels().tolist()


@settings(max_examples=10, deadline=None)
@given(cfg=small_worlds())
def test_without_app_users_every_policy_gives_the_same_events(cfg):
    cfg = cfg.replace(adoption_rate=0.0)
    base = run(cfg.replace(policy="no_tracing"))
    for policy in POLICIES[1:]:
        trace = run(cfg.replace(policy=policy))
        np.testing.assert_array_equal(trace.events, base.events)
        assert _daily_encounters(trace) == _daily_encounters(base)


@settings(max_examples=15, deadline=None)
@given(cfg=small_worlds(), policy=st.sampled_from(POLICIES),
       predictor=st.sampled_from(["oracle", "noisy_oracle"]))
def test_two_runs_write_the_same_bytes(cfg, policy, predictor, tmp_path_factory):
    cfg = cfg.replace(policy=policy, predictor=predictor, record_estimates=True)
    out = tmp_path_factory.mktemp("runs")
    for name in ("a", "b"):
        write_run(cfg, out / f"{name}.trace.jsonl", out / f"{name}.events.jsonl")
    for kind in ("trace", "events"):
        assert filecmp.cmp(out / f"a.{kind}.jsonl", out / f"b.{kind}.jsonl", shallow=False)


def _check_invariants(world, report, y):
    """What holds at the end of every day, whatever the draws; ``y`` is the day's progression's."""
    day = report.day
    assert report.s + report.e + report.i + report.r == world.population
    assert np.all((world.rec_level >= 0) & (world.rec_level <= 4))
    assert np.all(np.bincount(world.infection_order[:world.n_infected]) <= 1)
    for until in (world.iso_until, world.hh_until, world.bct_until):
        assert until.max() <= day + QUARANTINE_DAYS
    for e in world.edges:
        assert np.all((e.level >= 0) & (e.level <= 15))
        assert e.degree.sum() == e.receiver.size
    symptoms, tests = health(world)
    # symptoms and tests are modeled for app agents only, so no other agent is
    # ever ordered a test; the stored health code holds each app agent's test code
    off_app = np.setdiff1d(np.arange(world.population), world.app_ids)
    assert np.all(world.test_code[off_app] == TEST_NONE)
    assert np.all(world.result_day[off_app] == -1)
    assert np.array_equal(tests[world.app_ids, day], world.test_code[world.app_ids])
    if day:
        was_positive = tests[:, day - 1] == TEST_POSITIVE
        assert np.all(tests[was_positive, day] == TEST_POSITIVE)
    # a test is ordered on the first day of a run of symptom reports
    pending = np.flatnonzero(world.test_code == TEST_PENDING)
    order = world.result_day[pending] - world.cfg.test_delay_days
    assert np.all(symptoms[pending, order] != 0)
    assert np.all((order == 0) | (symptoms[pending, order - 1] == 0))
    # the ground truth derived from the courses is the day's progression y
    derived = ground_truth(world, np.arange(world.population), [day])[:, 0]
    assert derived.tobytes() == y.astype(np.float32).tobytes()
    # and the states derived from them are the world's at the end of the day
    states = epi_states(world, np.arange(world.population), [day])[:, 0]
    assert np.array_equal(states, world.epi_state)


@settings(max_examples=20, deadline=None)
@given(cfg=small_worlds(), policy=st.sampled_from(POLICIES),
       predictor=st.sampled_from(["oracle", "noisy_oracle"]))
# about one symptom drop-in per agent in 20 days: tests are ordered on drop-ins every day
@example(cfg=SimConfig(population_size=300, num_days=12, symptom_dropin=0.05,
                       initial_exposed_fraction=0.05, global_mobility_scale=3.75, rng_seed=5,
                       record_observables=False, record_estimates=False),
         policy="bct", predictor="oracle")
def test_the_world_invariants_hold_every_day(cfg, policy, predictor):
    world = init_world(cfg.replace(policy=policy, predictor=predictor))
    with recorded_days() as record:
        for _ in range(cfg.num_days):
            _check_invariants(world, step_day(world), record.y[-1])


def test_the_seed_rule_decides_at_the_earliest_onset():
    """With every infectiousness onset at ONSET_MIN, the one value where it matters, the
    state at the end of an exposure day depends on how the agent was exposed: a seed,
    exposed before day 0's progression, is I at the end of day 0, and an agent
    infected on day d, after that day's progression, is E at the end of day d.
    No agent is infected on day 0: a seed's y is 0 until past its onset."""
    sample = virology.sample_disease_courses

    def earliest_onset(n, rng):
        courses = sample(n, rng)
        courses["infectiousness_onset_day"][:] = virology.ONSET_MIN
        return courses

    cfg = SimConfig(population_size=400, num_days=8, initial_exposed_fraction=0.05,
                    global_mobility_scale=3.75, rng_seed=3, record_observables=False,
                    record_estimates=False)
    infected = 0
    with (mock.patch.object(virology, "sample_disease_courses", earliest_onset),
          recorded_days() as record):
        world = init_world(cfg)
        seeds = np.flatnonzero(world.exposure_day == 0)
        assert seeds.size
        for day in range(cfg.num_days):
            _check_invariants(world, step_day(world), record.y[-1])
            states = epi_states(world, np.arange(world.population), [day])[:, 0]
            if day == 0:
                assert np.all(states[seeds] == STATE_I)
            exposed = np.setdiff1d(np.flatnonzero(world.exposure_day == day), seeds)
            assert np.all(states[exposed] == STATE_E)
            infected += exposed.size
    assert infected > 0
