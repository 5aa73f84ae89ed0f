"""Policy ladder, timers, fanout, predictor, and scoring tests.

Every policy and predictor runs through the engine: the ladder through
the array :func:`policy_heuristic`, the BCT timer, the predictors and the
psi table through ``init_world``/``step_day``.
"""

import json

import numpy as np
import pytest

from pctsim.core import SimConfig, init_world, step_day
from pctsim.messaging import DEFAULT_THRESHOLDS, RiskMessage, quantize_risk
from pctsim.tracing import (
    BCT_FLAG_LEVEL,
    DEFAULT_PSI,
    ExternalPredictor,
    bct_fanout,
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


def _flag(day):
    return RiskMessage(sender_token=1, encounter_day=day - 1, risk_level=BCT_FLAG_LEVEL)


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
                w.inbox[agent] = [_flag(day)]

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
        world = _quiet_world("bct")
        agent = int(world.app_ids[0])

        def inject(w, day):
            if day == 5:
                w.inbox[agent] = [RiskMessage(1, day - 1, BCT_FLAG_LEVEL - 1)]

        levels = _levels_after(world, inject, 25)
        assert np.all(levels[agent] == 1)
        assert not world.bct_active[agent]

    def test_repeat_flag_extends_timer(self):
        world = _quiet_world("bct")
        agent = int(world.app_ids[0])

        def inject(w, day):
            if day in (0, 5):
                w.inbox[agent] = [_flag(day)]

        levels = _levels_after(world, inject, 25)
        assert levels[agent, 1:20].tolist() == [4] * 19
        assert levels[agent, 20] == 1


class TestBctFanout:
    BOOK = {
        0: {101: 1},
        1: {101: 2, 202: 1},
        15: {303: 1},
        16: {404: 2},
        30: {505: 1},
    }

    def test_window_is_last_d_max_days_inclusive(self):
        out = bct_fanout(self.BOOK, result_day=30, d_max=14)
        days = {d for d, _ in out}
        assert days == {16, 30}
        assert (16, 404) in out and (30, 505) in out
        # day 15 == result_day - 15 is outside a 14-day lookback
        assert all(d != 15 for d, _ in out)

    def test_boundary_day_included(self):
        out = bct_fanout(self.BOOK, result_day=29, d_max=14)
        assert (15, 303) in out
        assert (16, 404) in out

    def test_distinct_pairs_sorted(self):
        book = {5: {7: 3, 2: 1}, 6: {7: 2}}
        out = bct_fanout(book, result_day=6, d_max=14)
        assert out == [(5, 2), (5, 7), (6, 7)]

    def test_empty_book(self):
        assert bct_fanout({}, result_day=10, d_max=14) == []


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
        assert np.array_equal(world.yhat_hist[world.app_ids], truth.astype(np.float32))

    def test_noisy_oracle_zero_sigma_is_identity(self):
        oracle = _pct_run("oracle")
        noisy = _pct_run("noisy_oracle", predictor_add_sigma=0.0, predictor_mul_sigma=0.0)
        assert np.array_equal(noisy.yhat_hist, oracle.yhat_hist)
        assert np.array_equal(noisy.level_hist, oracle.level_hist)

    def test_noisy_oracle_clipped_to_unit_interval(self):
        world = _pct_run("noisy_oracle", predictor_add_sigma=0.5, predictor_mul_sigma=0.5)
        est = world.yhat_hist[world.app_ids]
        assert est.min() >= 0.0 and est.max() <= 1.0
        assert est.min() == 0.0 and est.max() == 1.0

    def test_additive_noise_mean_after_clipping(self):
        # at ground truth 0 with additive sigma s, clipping a centered
        # gaussian at zero leaves mean s / sqrt(2 pi)
        world = _pct_run("noisy_oracle", days=20, population_size=600,
                         predictor_add_sigma=0.1, predictor_mul_sigma=0.0)
        est = world.yhat_hist[world.app_ids]
        at_zero = est[_truth_windows(world) == 0]
        assert at_zero.size > 50_000
        assert at_zero.mean() == pytest.approx(0.1 / np.sqrt(2 * np.pi), abs=2e-3)


def _external_world(tmp_path, y_hat_for):
    """A one-day pct world replaying ``y_hat_for(agent)`` for every agent."""
    n = 60
    path = tmp_path / "preds.jsonl"
    path.write_text("".join(
        json.dumps({"agent_id": a, "day": 0, "y_hat": list(y_hat_for(a))}) + "\n"
        for a in range(n)))
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
        for agent in world.app_ids.tolist():
            expected = np.linspace(0, 0.9, 15) * (agent % 3) / 2
            assert np.array_equal(world.yhat_prev[agent], expected)
            assert np.array_equal(world.yhat_hist[agent, 0], expected.astype(np.float32))

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
            q = quantize_risk(world.yhat_prev[app, 0], DEFAULT_THRESHOLDS)
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
