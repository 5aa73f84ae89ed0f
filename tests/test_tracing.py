"""Policy ladder, timers, fanout, predictor, and scoring tests.

Every policy and predictor runs through the engine: the ladder through
the array :func:`policy_heuristic`, the BCT timer, the predictors and the
psi table through ``init_world``/``step_day``.
"""

import json

import numpy as np
import pytest

from pctsim.core import SimConfig, init_world, step_day
from pctsim.messaging import DEFAULT_THRESHOLDS, N_RISK_LEVELS, quantize_risk
from pctsim.tracing import (
    DEFAULT_PSI,
    ExternalPredictor,
    evaluate_predictor,
    policy_heuristic,
)
from pctsim.virology import TEST_PENDING, TEST_POSITIVE


def _ladder(pos, n_sym, top):
    """One agent through the array ladder, as plain (score, level)."""
    score, level = policy_heuristic([pos], [n_sym], [top])
    return float(score[0]), int(level[0])


def _documented_ladder(pos, n_sym, top):
    """The ladder as the README states it, rule by rule."""
    if pos:
        return 1.0, 4
    if n_sym >= 2 or top >= 12:
        return 0.75, 3
    if top >= 8:
        return 0.5, 2
    if n_sym >= 1:
        return 0.25, 2
    if top >= 4:
        return 0.25, 1
    return 0.0, 1


class TestHeuristicLadder:
    def test_no_evidence(self):
        assert _ladder(False, 0, 0) == (0.0, 1)

    def test_positive_test_dominates(self):
        assert _ladder(True, 0, 0) == (1.0, 4)
        assert _ladder(True, 3, 15) == (1.0, 4)

    def test_high_inbox_without_symptoms(self):
        assert _ladder(False, 0, 9) == (0.5, 2)

    def test_two_symptoms(self):
        assert _ladder(False, 2, 0) == (0.75, 3)

    def test_very_high_inbox(self):
        assert _ladder(False, 0, 12) == (0.75, 3)

    def test_single_symptom(self):
        assert _ladder(False, 1, 0) == (0.25, 2)

    def test_low_inbox_alone(self):
        assert _ladder(False, 0, 4) == (0.25, 1)
        assert _ladder(False, 0, 7) == (0.25, 1)

    def test_inbox_below_weak_threshold(self):
        assert _ladder(False, 0, 3) == (0.0, 1)

    def test_combined_rules_take_max(self):
        # two symptoms and a very high inbox agree on level 3
        assert _ladder(False, 2, 12) == (0.75, 3)
        # single symptom plus moderate inbox: level from inbox rule
        assert _ladder(False, 1, 8) == (0.5, 2)

    def test_monotone_in_inbox_level(self):
        score, level = policy_heuristic(np.zeros(16, dtype=bool), np.zeros(16, dtype=int),
                                        np.arange(16))
        assert level.tolist() == sorted(level.tolist())
        assert score.tolist() == sorted(score.tolist())

    def test_full_grid_in_one_call(self):
        pos, n_sym, top = (g.ravel() for g in np.meshgrid(
            [False, True], np.arange(6), np.arange(16), indexing="ij"))
        score, level = policy_heuristic(pos, n_sym, top)
        assert score.shape == level.shape == (2 * 6 * 16,)
        assert level.dtype == np.int8
        for i in range(pos.size):
            expected = _documented_ladder(bool(pos[i]), int(n_sym[i]), int(top[i]))
            assert (float(score[i]), int(level[i])) == expected, (pos[i], n_sym[i], top[i])


def _quiet_world(policy, **kw):
    """A world with no infections and no behavioral dropouts.

    Nobody ever tests positive, so every escalation a test sees comes from
    what it injects.
    """
    base = dict(population_size=120, num_days=25, rng_seed=5, policy=policy,
                initial_exposed_fraction=0.0, global_mobility_scale=3.0,
                quarantine_dropout_test=0.0, quarantine_dropout_household=0.0,
                all_levels_dropout=0.0, record_observables=False,
                record_estimates=False)
    base.update(kw)
    return init_world(SimConfig(**base))


def _levels_after(world, inject, days):
    """Step ``days`` days, calling ``inject(world, day)`` before each one."""
    for day in range(days):
        inject(world, day)
        step_day(world)
    return world.level_hist


class TestNoTracing:
    def test_always_baseline(self):
        world = init_world(SimConfig(population_size=300, num_days=15, rng_seed=2,
                                     global_mobility_scale=3.75,
                                     initial_exposed_fraction=0.05))
        for _ in range(15):
            step_day(world)
            assert np.all(world.policy_level == 1)


class TestBctPolicy:
    def test_no_input_stays_baseline(self):
        world = _quiet_world("bct")
        levels = _levels_after(world, lambda w, d: None, 25)
        assert np.all(levels == 1)
        assert not world.bct_active.any()

    def test_flag_starts_fourteen_day_quarantine(self):
        world = _quiet_world("bct", bct_quarantine_level=3)
        agent = int(world.app_ids[0])

        def inject(w, day):
            if day == 5:
                w.bct_flag[agent] = True  # as if a contact tested positive yesterday

        levels = _levels_after(world, inject, 25)
        assert levels[agent, :6].tolist() == [1] * 6
        assert levels[agent, 6:20].tolist() == [3] * 14
        assert levels[agent, 20] == 1
        others = np.setdiff1d(np.arange(world.n), [agent])
        assert np.all(levels[others] == 1)

    def test_own_positive_test_same_window(self):
        world = _quiet_world("bct", test_false_negative_rate=0.0)
        agent = int(world.app_ids[0])

        def inject(w, day):
            if day == 5:
                w.test_code[agent] = TEST_PENDING  # result due today
                w.result_day[agent] = day
                w.infected_at_order[agent] = True

        levels = _levels_after(world, inject, 25)
        assert world.test_hist[agent, 5] == TEST_POSITIVE
        assert levels[agent, :6].tolist() == [1] * 6
        assert levels[agent, 6:20].tolist() == [4] * 14
        assert levels[agent, 20] == 1

    def test_lower_levels_ignored(self):
        # only a flag quarantines: not even the top risk level held from
        # every contact does
        world = _quiet_world("bct")
        agent = int(world.app_ids[0])
        held = []

        def inject(w, day):
            for e in w.edge_days():
                mine = e.receiver == 0  # agent is app_ids[0]
                w.held[e.sender[mine], e.day % w.window] = N_RISK_LEVELS - 1
                held.append(int((w.held_levels(e)[mine] == N_RISK_LEVELS - 1).sum()))

        levels = _levels_after(world, inject, 25)
        assert sum(held) > 0
        assert np.all(levels[agent] == 1)
        assert not world.bct_active[agent]

    def test_repeat_flag_extends_timer(self):
        world = _quiet_world("bct")
        agent = int(world.app_ids[0])

        def inject(w, day):
            if day in (0, 5):
                w.bct_flag[agent] = True  # as if a contact tested positive yesterday

        levels = _levels_after(world, inject, 25)
        assert levels[agent, 1:20].tolist() == [4] * 19
        assert levels[agent, 20] == 1


def _partners(encounters, agent, has_app):
    """Distinct app partners of ``agent`` in one day's encounter arrays."""
    a, b, _loc = encounters
    return {int(p) for p in np.concatenate([b[a == agent], a[b == agent]]) if has_app[p]}


def _union(met, days):
    return set().union(*(met[d] for d in days))


def _due_positive(world, agent, day):
    """Make ``agent``'s (infected) test result come back on ``day``."""
    world.test_code[agent] = TEST_PENDING
    world.result_day[agent] = day
    world.infected_at_order[agent] = True


@pytest.fixture(scope="module")
def bct_positive():
    """One app agent tests positive on day R in a quiet bct world.

    R and the agent are the first for which some partner was met on
    R - d_max and on no later day, and another partner on R - d_max - 1
    only. Returns the world after day R, R's report, the agent, R and
    the agent's app partners per day.
    """
    kw = dict(record_encounter_log=True, test_false_negative_rate=0.0)
    probe = _quiet_world("bct", **kw)
    for _ in range(probe.cfg.num_days):
        step_day(probe)
    d_max = probe.cfg.d_max
    cases = (
        (result_day, agent, {d: _partners(probe.encounter_log[d], agent, probe.has_app)
                             for d in range(result_day - d_max - 1, result_day + 1)})
        for result_day in range(d_max + 1, probe.cfg.num_days)
        for agent in probe.app_ids.tolist())
    result_day, agent, met = next(
        (r, a, met) for r, a, met in cases
        if met[r - d_max] - _union(met, range(r - d_max + 1, r + 1))
        and met[r - d_max - 1] - _union(met, range(r - d_max, r + 1)))

    # the same world again: injecting on day R leaves days before R as they were
    world = _quiet_world("bct", **kw)
    for _ in range(result_day):
        step_day(world)
    _due_positive(world, agent, result_day)
    report = step_day(world)
    assert world.test_hist[agent, result_day] == TEST_POSITIVE
    return world, report, agent, result_day, met


class TestBctFanout:
    def test_window_is_last_d_max_days_inclusive(self, bct_positive):
        world, _report, _agent, result_day, met = bct_positive
        d_max = world.cfg.d_max
        window = _union(met, range(result_day - d_max, result_day + 1))
        assert set(np.flatnonzero(world.bct_flag).tolist()) == window
        outside = met[result_day - d_max - 1] - window
        assert outside and not world.bct_flag[list(outside)].any()

    def test_boundary_day_included(self, bct_positive):
        world, _report, _agent, result_day, met = bct_positive
        d_max = world.cfg.d_max
        edge_only = met[result_day - d_max] - _union(met, range(result_day - d_max + 1,
                                                                result_day + 1))
        assert edge_only and world.bct_flag[list(edge_only)].all()

    def test_one_flag_per_day_and_partner(self, bct_positive):
        world, report, agent, result_day, met = bct_positive
        days = range(result_day - world.cfg.d_max, result_day + 1)
        assert report.messages == sum(len(met[d]) for d in days)
        encounters = 0
        for d in days:
            a, b, _loc = world.encounter_log[d]
            encounters += int((((a == agent) & world.has_app[b])
                               | ((b == agent) & world.has_app[a])).sum())
        assert encounters > report.messages  # repeat encounters are not flagged twice

    def test_empty_book(self):
        world = _quiet_world("bct", global_mobility_scale=0.0, test_false_negative_rate=0.0)
        agent = int(world.app_ids[0])
        messages = 0
        for day in range(8):
            if day == 5:
                _due_positive(world, agent, day)
            messages += step_day(world).messages
            assert not world.bct_flag.any()
        assert world.test_hist[agent, 5] == TEST_POSITIVE
        assert messages == 0
        assert not world.bct_active.any()


def _pct_run(predictor, days=12, **kw):
    """Step a small pct world and return it (estimates recorded)."""
    base = dict(population_size=400, num_days=days, rng_seed=4, policy="pct",
                predictor=predictor, initial_exposed_fraction=0.1,
                global_mobility_scale=3.75)
    base.update(kw)
    world = init_world(SimConfig(**base))
    for _ in range(days):
        step_day(world)
    return world


def _truth_windows(world):
    """(app agents, days, window) ground truth, newest-first, 0 before day 0."""
    app, days, window = world.app_ids, world.cfg.num_days, world.window
    padded = np.concatenate([np.zeros((app.size, window - 1)), world.y_hist[app]], axis=1)
    idx = np.arange(days)[:, None] + window - 1 - np.arange(window)[None, :]
    return padded[:, idx]


class TestOraclePredictors:
    def test_oracle_returns_equal_copy(self):
        world = _pct_run("oracle")
        truth = _truth_windows(world)
        assert truth.max() > 0
        assert np.array_equal(world.yhat_hist, truth.astype(np.float32))

    def test_noisy_oracle_zero_sigma_is_identity(self):
        oracle = _pct_run("oracle")
        noisy = _pct_run("noisy_oracle", predictor_add_sigma=0.0, predictor_mul_sigma=0.0)
        assert np.array_equal(noisy.yhat_hist, oracle.yhat_hist)
        assert np.array_equal(noisy.level_hist, oracle.level_hist)

    def test_noisy_oracle_clipped_to_unit_interval(self):
        world = _pct_run("noisy_oracle", predictor_add_sigma=0.5, predictor_mul_sigma=0.5)
        est = world.yhat_hist
        assert est.min() >= 0.0 and est.max() <= 1.0
        assert est.min() == 0.0 and est.max() == 1.0

    def test_additive_noise_mean_after_clipping(self):
        # at ground truth 0 with additive sigma s, clipping a centered
        # gaussian at zero leaves mean s / sqrt(2 pi)
        world = _pct_run("noisy_oracle", days=20, population_size=600,
                         predictor_add_sigma=0.1, predictor_mul_sigma=0.0)
        est = world.yhat_hist
        at_zero = est[_truth_windows(world) == 0]
        assert at_zero.size > 50_000
        assert at_zero.mean() == pytest.approx(0.1 / np.sqrt(2 * np.pi), abs=2e-3)


def _external_world(tmp_path, y_hat_for):
    """A one-day pct world replaying ``y_hat_for(agent)`` for every agent.

    An agent for which ``y_hat_for`` returns None has no prediction.
    """
    n = 60
    path = tmp_path / "preds.jsonl"
    path.write_text("".join(
        json.dumps({"agent_id": a, "day": 0, "y_hat": list(y_hat_for(a))}) + "\n"
        for a in range(n) if y_hat_for(a) is not None))
    world = init_world(SimConfig(population_size=n, num_days=1, rng_seed=1, policy="pct",
                                 predictor="external", external_predictions=str(path)))
    step_day(world)
    return world


class TestPctPolicy:
    def test_recommendation_table_monotone(self):
        recs = [DEFAULT_PSI[q] for q in range(16)]
        assert recs == sorted(recs)
        assert recs[0] >= 1 and recs[-1] == 4

    def test_floor_and_ceiling(self, tmp_path):
        world = _external_world(tmp_path, lambda a: [float(a % 2)] * 15)
        app = world.app_ids
        assert world.policy_level[app].tolist() == [1 + 3 * (a % 2) for a in app.tolist()]

    def test_today_slot_drives_recommendation(self, tmp_path):
        def y_hat(agent):
            y = [0.99 * (agent % 2)] * 15
            y[0] = 0.99 * (1 - agent % 2)
            return y

        world = _external_world(tmp_path, y_hat)
        app = world.app_ids
        assert world.policy_level[app].tolist() == [4 - 3 * (a % 2) for a in app.tolist()]

    def test_returns_estimate_unchanged(self, tmp_path):
        world = _external_world(tmp_path, lambda a: np.linspace(0, 0.9, 15) * (a % 3) / 2)
        for i, agent in enumerate(world.app_ids.tolist()):
            expected = np.linspace(0, 0.9, 15) * (agent % 3) / 2
            assert np.array_equal(world.yhat_prev[i], expected)
            assert np.array_equal(world.yhat_hist[i, 0], expected.astype(np.float32))

    def test_non_finite_prediction_fails_like_a_missing_one(self, tmp_path):
        agent = int(_external_world(tmp_path, lambda a: [0.99] * 15).app_ids[0])
        nan = _external_world(
            tmp_path, lambda a: [0.99] * 14 + [float("nan") if a == agent else 0.99])
        missing = _external_world(tmp_path, lambda a: None if a == agent else [0.99] * 15)
        assert nan.day_reports[0].messages > 0
        assert nan.policy_level[agent] == 1
        # agent is app_ids[0]; its partners keep the initial fill, unchanged by the step
        assert np.all(nan.held[0] == nan.quantize(0.0))
        assert np.array_equal(nan.yhat_prev[0], np.zeros(15))
        assert np.array_equal(nan.policy_level, missing.policy_level)
        assert np.array_equal(nan.yhat_hist, missing.yhat_hist)
        assert nan.day_reports == missing.day_reports

    def test_level_is_psi_of_todays_quantized_estimate(self):
        psi = (1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 4, 4, 4, 4)
        world = init_world(SimConfig(population_size=400, num_days=12, rng_seed=6,
                                     policy="pct", predictor="noisy_oracle",
                                     initial_exposed_fraction=0.1, psi_table=psi,
                                     global_mobility_scale=3.75))
        app = world.app_ids
        seen = set()
        for _ in range(12):
            step_day(world)
            q = quantize_risk(world.yhat_prev[:, 0], DEFAULT_THRESHOLDS)
            expected = np.asarray(psi)[q]
            assert np.array_equal(world.policy_level[app], expected)
            seen.update(expected.tolist())
        assert seen == {1, 2, 3, 4}


def _record(run_id, agent_id, day, targets):
    return {"run_id": run_id, "agent_id": agent_id, "day": day,
            "targets": list(targets)}


def _prediction(run_id, agent_id, day, y_hat):
    return {"run_id": run_id, "agent_id": agent_id, "day": day,
            "y_hat": list(y_hat)}


class TestEvaluatePredictor:
    def test_exact_predictions_score_zero(self):
        recs = [_record("r0", 1, 3, [0.2] * 14), _record("r0", 2, 3, [0.0] * 14)]
        preds = [_prediction("r0", 1, 3, [0.2] * 14),
                 _prediction("r0", 2, 3, [0.0] * 14)]
        assert evaluate_predictor(recs, preds) == 0.0

    def test_constant_half_against_zero(self):
        recs = [_record("r0", 1, 0, [0.0] * 14)]
        preds = [_prediction("r0", 1, 0, [0.5] * 14)]
        assert evaluate_predictor(recs, preds) == pytest.approx(0.25)

    def test_missing_prediction_raises(self):
        recs = [_record("r0", 1, 0, [0.0] * 14)]
        with pytest.raises(ValueError):
            evaluate_predictor(recs, [])

    def test_shape_mismatch_raises(self):
        recs = [_record("r0", 1, 0, [0.0] * 14)]
        preds = [_prediction("r0", 1, 0, [0.0] * 13)]
        with pytest.raises(ValueError):
            evaluate_predictor(recs, preds)

    def test_zero_records_raises(self):
        with pytest.raises(ValueError):
            evaluate_predictor([], [])


class TestExternalPredictor:
    def test_load_call_and_miss(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        rows = [
            {"agent_id": 5, "day": 2, "y_hat": [0.1] * 14},
            {"agent_id": 5, "day": 3, "y_hat": [0.2] * 14},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        pred = ExternalPredictor(str(path))
        assert np.allclose(pred(5, 3), 0.2)
        assert np.allclose(pred(5, 2), 0.1)
        with pytest.raises(KeyError):
            pred(5, 4)
        with pytest.raises(KeyError):
            pred(6, 2)
