"""Policy ladder, timers, fanout, predictor, and scoring tests.

Every policy and predictor runs through the engine: the ladder through
the array :func:`policy_heuristic`, the BCT timer, the predictors and the
psi table through ``init_world``/``step_day``.
"""

import json

import numpy as np
import pytest
from conftest import health, recorded_days, recorded_levels

from pctsim import core
from pctsim.core import SimConfig, init_world, run, step_day, write_run
from pctsim.datagen import export_training_records, read_records
from pctsim.messaging import DEFAULT_THRESHOLDS, N_RISK_LEVELS, quantize_risk
from pctsim.metrics import metrics_row
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


def _select_ladder(pos, n_sym, top):
    """The ladder as two ``np.select`` calls over the evidence arrays."""
    pos, n_sym, top = np.asarray(pos, dtype=bool), np.asarray(n_sym), np.asarray(top)
    strong = (n_sym >= 2) | (top >= 12)
    medium = top >= 8
    weak = (n_sym >= 1) | (top >= 4)
    score = np.select([pos, strong, medium, weak], [1.0, 0.75, 0.5, 0.25], 0.0)
    level = np.select([pos, strong, medium | (n_sym >= 1)], [4, 3, 2], 1).astype(np.int8)
    return score, level


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

    def test_a_relayed_score_is_weaker_evidence(self):
        # each score, sent on the uniform grid as the engine quantizes it and read back by a
        # contact as its highest received level, scores lower: evidence falls a rung a hop,
        # which bounds how far it spreads
        scores = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        levels = quantize_risk(scores, DEFAULT_THRESHOLDS)
        assert levels.tolist() == [0, 3, 7, 11, 15]
        relayed, _ = policy_heuristic(np.zeros(5, dtype=bool), np.zeros(5, dtype=np.int64),
                                      levels)
        assert relayed[0] == 0.0
        assert np.all(relayed[1:] < scores[1:])

    @pytest.mark.parametrize("dtypes", [(np.int64, np.int64), (np.uint64, np.int8)],
                             ids=["int64", "uint64-int8"])
    def test_lookup_matches_the_select_formula(self, dtypes):
        pos, n_sym, top = (g.ravel() for g in np.meshgrid(
            [False, True], np.arange(6), np.arange(16), indexing="ij"))
        n_sym, top = n_sym.astype(dtypes[0]), top.astype(dtypes[1])
        score, level = policy_heuristic(pos, n_sym, top)
        want_score, want_level = _select_ladder(pos, n_sym, top)
        assert score.dtype == want_score.dtype and level.dtype == want_level.dtype
        assert score.tobytes() == want_score.tobytes()
        assert level.tobytes() == want_level.tobytes()


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
    with recorded_levels() as levels:
        for day in range(days):
            inject(world, day)
            step_day(world)
    return levels()


class TestNoTracing:
    def test_always_baseline(self):
        world = init_world(SimConfig(population_size=300, num_days=15, rng_seed=2,
                                     global_mobility_scale=3.75,
                                     initial_exposed_fraction=0.05))
        with recorded_days() as record:
            for _ in range(15):
                step_day(world)
                assert np.all(record.levels[-1] == 1)


class TestBctPolicy:
    def test_no_input_stays_baseline(self):
        world = _quiet_world("bct")
        levels = _levels_after(world, lambda w, d: None, 25)
        assert np.all(levels == 1)
        assert np.all(world.bct_until < 0)

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
        others = np.setdiff1d(np.arange(world.population), [agent])
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
        assert health(world)[1][agent, 5] == TEST_POSITIVE
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
                w.held[e.day % w.window, e.sender[mine]] = N_RISK_LEVELS - 1
                held.append(int((w.held_levels(e)[mine] == N_RISK_LEVELS - 1).sum()))

        levels = _levels_after(world, inject, 25)
        assert sum(held) > 0
        assert np.all(levels[agent] == 1)
        assert world.bct_until[agent] < 0

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
    assert health(world)[1][agent, result_day] == TEST_POSITIVE
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
        assert health(world)[1][agent, 5] == TEST_POSITIVE
        assert messages == 0
        assert np.all(world.bct_until < 0)


def _pct_run(predictor, days=12, **kw):
    """Run a small pct world; return its trace and, collected while stepping, its app
    agents' ground truth, each day's progression y as float32, one column a day, and the
    estimates the engine published, float32 (n_app, days, window)."""
    base = dict(population_size=400, num_days=days, rng_seed=4, policy="pct",
                predictor=predictor, initial_exposed_fraction=0.1,
                global_mobility_scale=3.75)
    base.update(kw)
    with recorded_days() as record:
        trace = run(SimConfig(**base))
    truth = [y[trace.app_ids].astype(np.float32) for y in record.y]
    return trace, np.column_stack(truth), np.stack(record.estimates, axis=1).astype(np.float32)


def _truth_windows(world, truth):
    """(app agents, days, window) ground truth, newest-first, 0 before day 0."""
    app, days, window = world.app_ids, world.cfg.num_days, world.window
    padded = np.concatenate([np.zeros((app.size, window - 1)), truth], axis=1)
    idx = np.arange(days)[:, None] + window - 1 - np.arange(window)[None, :]
    return padded[:, idx]


class TestOraclePredictors:
    def test_oracle_returns_equal_copy(self):
        trace, truth, published = _pct_run("oracle")
        truth = _truth_windows(trace, truth).astype(np.float32)
        assert truth.max() > 0
        assert np.array_equal(published, truth)

    def test_noisy_oracle_zero_sigma_is_identity(self):
        with recorded_levels() as oracle_levels:
            oracle, _, oracle_published = _pct_run("oracle")
        with recorded_levels() as noisy_levels:
            noisy, _, noisy_published = _pct_run("noisy_oracle", predictor_add_sigma=0.0,
                                                 predictor_mul_sigma=0.0)
        assert np.array_equal(noisy_published, oracle_published)
        assert np.array_equal(noisy_levels(), oracle_levels())

    def test_noisy_oracle_clipped_to_unit_interval(self):
        _, _, published = _pct_run("noisy_oracle", predictor_add_sigma=0.5,
                                   predictor_mul_sigma=0.5)
        assert published.min() >= 0.0 and published.max() <= 1.0
        assert published.min() == 0.0 and published.max() == 1.0

    def test_additive_noise_mean_after_clipping(self):
        # at ground truth 0 with additive sigma s, clipping a centered
        # gaussian at zero leaves mean s / sqrt(2 pi)
        trace, truth, published = _pct_run("noisy_oracle", days=20, population_size=600,
                                           predictor_add_sigma=0.1, predictor_mul_sigma=0.0)
        at_zero = published[_truth_windows(trace, truth) == 0]
        assert at_zero.size > 50_000
        assert at_zero.mean() == pytest.approx(0.1 / np.sqrt(2 * np.pi), abs=2e-3)


def _external_world(tmp_path, y_hat_for):
    """A one-day pct world replaying ``y_hat_for(agent)`` for every agent, stepped.

    An agent for which ``y_hat_for`` returns None has no prediction. Returns the
    world, the day's policy levels and the estimates the engine published, float32.
    """
    n = 60
    path = tmp_path / "preds.jsonl"
    path.write_text("".join(
        json.dumps({"agent_id": a, "day": 0, "y_hat": list(y_hat_for(a))}) + "\n"
        for a in range(n) if y_hat_for(a) is not None))
    world = init_world(SimConfig(population_size=n, num_days=1, rng_seed=1, policy="pct",
                                 predictor="external", external_predictions=str(path)))
    with recorded_days() as record:
        core.step_day(world)
    return world, record.levels[0], [y_hat.astype(np.float32) for y_hat in record.estimates]


class TestPctPolicy:
    def test_recommendation_table_monotone(self):
        recs = [DEFAULT_PSI[q] for q in range(16)]
        assert recs == sorted(recs)
        assert recs[0] >= 1 and recs[-1] == 4

    def test_floor_and_ceiling(self, tmp_path):
        world, policy_level, _ = _external_world(tmp_path, lambda a: [float(a % 2)] * 15)
        app = world.app_ids
        assert policy_level[app].tolist() == [1 + 3 * (a % 2) for a in app.tolist()]

    def test_today_slot_drives_recommendation(self, tmp_path):
        def y_hat(agent):
            y = [0.99 * (agent % 2)] * 15
            y[0] = 0.99 * (1 - agent % 2)
            return y

        world, policy_level, _ = _external_world(tmp_path, y_hat)
        app = world.app_ids
        assert policy_level[app].tolist() == [4 - 3 * (a % 2) for a in app.tolist()]

    def test_returns_estimate_unchanged(self, tmp_path):
        world, _, published = _external_world(
            tmp_path, lambda a: np.linspace(0, 0.9, 15) * (a % 3) / 2)
        for i, agent in enumerate(world.app_ids.tolist()):
            expected = np.linspace(0, 0.9, 15) * (agent % 3) / 2
            assert np.array_equal(world.external.y_hat[0, i], expected)
            assert np.array_equal(published[0][i], expected.astype(np.float32))

    def test_non_finite_prediction_fails_like_a_missing_one(self, tmp_path):
        agent = int(_external_world(tmp_path, lambda a: [0.99] * 15)[0].app_ids[0])
        nan, nan_levels, nan_published = _external_world(
            tmp_path, lambda a: [0.99] * 14 + [float("nan") if a == agent else 0.99])
        missing, missing_levels, missing_published = _external_world(
            tmp_path, lambda a: None if a == agent else [0.99] * 15)
        assert nan.day_reports[0].messages > 0
        assert nan_levels[agent] == 1
        # agent is app_ids[0]; its partners keep the initial fill, unchanged by the step
        assert np.all(nan.held[:, 0] == quantize_risk(0.0, nan.thresholds))
        assert np.array_equal(nan.external.y_hat[0, 0], np.zeros(15))
        assert np.array_equal(nan_levels, missing_levels)
        assert np.array_equal(nan_published, missing_published)
        assert nan.day_reports == missing.day_reports

    def test_level_is_psi_of_todays_quantized_estimate(self):
        psi = (1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 4, 4, 4, 4)
        world = init_world(SimConfig(population_size=400, num_days=12, rng_seed=6,
                                     policy="pct", predictor="noisy_oracle",
                                     initial_exposed_fraction=0.1, psi_table=psi,
                                     global_mobility_scale=3.75))
        app = world.app_ids
        seen = set()
        with recorded_days() as record:
            for _ in range(12):
                core.step_day(world)
                q = quantize_risk(record.estimates[-1][:, 0], DEFAULT_THRESHOLDS)
                expected = np.asarray(psi)[q]
                assert np.array_equal(record.levels[-1][app], expected)
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

    @pytest.mark.parametrize("agent,day", [(3.7, True), ("3", "1")])
    def test_a_key_that_is_not_an_integer_is_rejected(self, agent, day):
        recs = [_record("r0", 1, 0, [0.0] * 3), _record("r0", 3, 1, [0.5] * 3)]
        preds = [_prediction("r0", 1, 0, [0.0] * 3), _prediction("r0", 3, 1, [0.5] * 3)]
        bad_recs = [recs[0], _record("r0", agent, day, [0.5] * 3)]
        bad_preds = [preds[0], _prediction("r0", agent, day, [0.5] * 3)]
        assert evaluate_predictor(recs, preds) == 0.0
        with pytest.raises(ValueError, match=r"^prediction 1: agent_id must be an integer"):
            evaluate_predictor(recs, bad_preds)
        with pytest.raises(ValueError, match=r"^record 1: agent_id must be an integer"):
            evaluate_predictor(bad_recs, preds)

    @pytest.mark.parametrize("fault", ["agent_id", "day", "values", "string", "null"])
    def test_an_entry_that_is_not_an_object_with_its_keys_names_it(self, fault):
        # the same check, and message, as ExternalPredictor's for a file line
        recs = [_record("r0", 1, 0, [0.0] * 2), _record("r0", 3, 1, [0.5, 0.0])]
        preds = [_prediction("r0", 1, 0, [0.0] * 2), _prediction("r0", 3, 1, [0.5, 0.0])]

        def broken(entry, values):
            if fault == "string":
                return "x"
            if fault == "null":
                return None
            drop = values if fault == "values" else fault
            return {k: v for k, v in entry.items() if k != drop}

        assert evaluate_predictor(recs, preds) == 0.0
        with pytest.raises(ValueError, match=r"^prediction 1: not a JSON object with agent_id, "
                                             r"day and y_hat$"):
            evaluate_predictor(recs, [preds[0], broken(preds[1], "y_hat")])
        with pytest.raises(ValueError, match=r"^record 1: not a JSON object with agent_id, "
                                             r"day and targets$"):
            evaluate_predictor([recs[0], broken(recs[1], "targets")], preds)

    def test_numpy_integer_keys_are_integers(self):
        recs = [_record("r0", 3, 1, [0.5] * 3)]
        preds = [_prediction("r0", np.int64(3), np.int32(1), [0.5] * 3)]
        assert evaluate_predictor(recs, preds) == 0.0

    @pytest.mark.parametrize("y_hat", [
        ["0.5", "0"], [True, False], [0.5, None], [None, None], [0.5, True], ["0.5", True],
        ["high", 0.0], [{"today": 0.5}, 0.0], [[0.5], [0.5, 0.5]], [float("nan"), 0.0],
        [float("inf"), 0.0], [0.5, float("-inf")], [10**400, 0.0],
    ], ids=["numeric-strings", "bools", "null", "nulls", "one-bool", "string-and-bool",
            "string", "object", "ragged", "nan", "inf", "-inf", "huge-int"])
    def test_a_y_hat_that_is_not_numbers_names_its_entry(self, y_hat):
        # targets are read by the same rule as y_hat
        recs = [_record("r0", 1, 0, [0.0] * 2), _record("r0", 3, 1, [0.5, 0.0])]
        preds = [_prediction("r0", 1, 0, [0.0] * 2), _prediction("r0", 3, 1, [0.5, 0.0])]
        assert evaluate_predictor(recs, preds) == 0.0
        with pytest.raises(ValueError, match=r"^prediction 1: y_hat must be finite numbers, got "):
            evaluate_predictor(recs, [preds[0], _prediction("r0", 3, 1, y_hat)])
        with pytest.raises(ValueError, match=r"^record 1: targets must be finite numbers, got "):
            evaluate_predictor([recs[0], _record("r0", 3, 1, y_hat)], preds)

    @pytest.mark.parametrize("run_id", [["r0"], {"id": "r0"}, 0, None, True])
    def test_a_run_id_that_is_not_a_string_names_its_entry(self, run_id):
        # a run_id is a string or absent; a list or an object must not raise a bare TypeError
        recs = [_record("r0", 1, 0, [0.0] * 2), _record("r0", 3, 1, [0.5, 0.0])]
        preds = [_prediction("r0", 1, 0, [0.0] * 2), _prediction("r0", 3, 1, [0.5, 0.0])]
        absent = [{k: v for k, v in entry.items() if k != "run_id"} for entry in (recs[1], preds[1])]
        assert evaluate_predictor([recs[0], absent[0]], [preds[0], absent[1]]) == 0.0
        with pytest.raises(ValueError, match=r"^prediction 1: run_id must be a string, got "):
            evaluate_predictor(recs, [preds[0], _prediction(run_id, 3, 1, [0.5, 0.0])])
        with pytest.raises(ValueError, match=r"^record 1: run_id must be a string, got "):
            evaluate_predictor([recs[0], _record(run_id, 3, 1, [0.5, 0.0])], preds)


def _table(tmp_path, rows, app_ids=(3, 5, 8), num_days=4, window=3):
    path = tmp_path / "preds.jsonl"
    path.write_text("".join(
        json.dumps({"agent_id": a, "day": d, "y_hat": y}) + "\n" for a, d, y in rows))
    return ExternalPredictor(str(path), np.array(app_ids), num_days, window)


class TestExternalPredictor:
    def test_the_last_line_for_an_agent_day_counts(self, tmp_path):
        table = _table(tmp_path, [(5, 2, [0.1] * 3), (5, 3, [0.2] * 3),
                                  (5, 2, [0.3] * 3), (8, 0, [0.4] * 2), (8, 0, [0.5] * 3),
                                  (3, 1, [0.6] * 3), (3, 1, [0.7] * 2)])
        assert table.y_hat.shape == (4, 3, 3) and table.y_hat.dtype == np.float64
        assert table.ok.tolist() == [[False, False, True], [False, False, False],
                                     [False, True, False], [False, True, False]]
        assert table.y_hat[2, 1].tolist() == [0.3] * 3
        assert table.y_hat[3, 1].tolist() == [0.2] * 3
        assert table.y_hat[0, 2].tolist() == [0.5] * 3

    def test_a_failed_cell_moves_the_previous_day_one_day_older(self, tmp_path):
        table = _table(tmp_path, [(5, 1, [0.3, 0.2, 0.1]), (8, 2, [0.9, 0.8, 0.7]),
                                  (8, 3, [0.6, 0.5, 0.4])])
        assert table.y_hat[:, 1].tolist() == [[0.0] * 3, [0.3, 0.2, 0.1],
                                              [0.3, 0.3, 0.2], [0.3, 0.3, 0.3]]
        assert table.y_hat[:, 2].tolist() == [[0.0] * 3, [0.0] * 3,
                                              [0.9, 0.8, 0.7], [0.6, 0.5, 0.4]]
        assert not table.y_hat[:, 0].any()

    @pytest.mark.parametrize("y_hat", [[0.1] * 2, [0.1] * 4, [[0.1] * 3], [[0.1]] * 3,
                                       [0.1, float("nan"), 0.1], [float("inf")] * 3,
                                       [0.1, float("-inf"), 0.1], None, [0.1, None, 0.1]],
                             ids=["short", "long", "nested", "column", "nan", "inf", "-inf",
                                  "null", "null-entry"])
    def test_an_invalid_row_is_not_ok(self, tmp_path, y_hat):
        table = _table(tmp_path, [(5, 1, [0.5] * 3), (5, 1, y_hat)])
        assert not table.ok.any()
        assert not table.y_hat.any()

    @pytest.mark.parametrize("y_hat", [
        ["0.5"] * 3, "0.5", "high", [0.5, "0.5", 0.5], [None, "0.5", 0.5], {"today": 0.5},
        [{"today": 0.5}] * 3, [[0.5], [0.5, 0.5], [0.5]], [True] * 3, [0.5, False, 0.5],
        [None, True, 0.5], True, [[0.5, True, 0.5]], [0.5, 10**400, 0.5],
    ], ids=["numeric-strings", "numeric-string", "string", "one-string", "null-and-string",
            "object", "objects", "ragged", "bools", "one-bool", "null-and-bool", "bool",
            "nested-bool", "huge-int"])
    @pytest.mark.parametrize("agent", [5, 99], ids=["app", "ignored"])
    def test_a_y_hat_that_is_not_numbers_names_its_line(self, tmp_path, y_hat, agent):
        with pytest.raises(ValueError, match=r"preds\.jsonl line 2: y_hat must be null or numbers"):
            _table(tmp_path, [(5, 1, [0.5] * 3), (agent, 1, y_hat)])

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        line = json.dumps({"agent_id": 5, "day": 1, "y_hat": [0.5] * 3})
        path.write_text(f"\n{line}\n  \n\n")
        table = ExternalPredictor(str(path), np.array([3, 5, 8]), 4, 3)
        assert table.ok.tolist() == [[False] * 3, [False, True, False], [False] * 3, [False] * 3]
        assert table.y_hat[1, 1].tolist() == [0.5] * 3

    def test_values_are_clipped_to_the_unit_interval(self, tmp_path):
        table = _table(tmp_path, [(3, 0, [-0.5, 0.25, 1.5]), (8, 3, [2.0, -1e-9, 1.0])])
        assert table.ok[0, 0] and table.ok[3, 2]
        assert table.y_hat[0, 0].tolist() == [0.0, 0.25, 1.0]
        assert table.y_hat[3, 2].tolist() == [1.0, 0.0, 1.0]

    @pytest.mark.parametrize("agent,day", [(-1, 0), (-3, 0), (4, 0), (99, 0), (5, -1), (5, 4)])
    def test_other_agents_and_days_are_ignored(self, tmp_path, agent, day):
        table = _table(tmp_path, [(agent, day, [0.5] * 3)])
        assert not table.ok.any()
        assert not table.y_hat.any()

    @pytest.mark.parametrize("agent,day", [(3.7, 1), (3, 1.9), ("3", 1), (3, True), (None, 1)])
    def test_a_key_that_is_not_an_integer_names_its_line(self, tmp_path, agent, day):
        with pytest.raises(ValueError, match=r"preds\.jsonl line 2: (agent_id|day) must be an integer"):
            _table(tmp_path, [(5, 1, [0.5] * 3), (agent, day, [0.5] * 3)])

    @pytest.mark.parametrize("line", [
        b"{not json", b'{"agent_id": 5, "day": 1, "y_hat": [0.5', b"\xff\xfe{}",
        b"[5, 1, [0.5, 0.5, 0.5]]", b'"5"', b"7", b"null",
        b'{"day": 1, "y_hat": [0.5, 0.5, 0.5]}', b'{"agent_id": 5, "y_hat": [0.5, 0.5, 0.5]}',
        b'{"agent_id": 5, "day": 1}',
    ], ids=["not-json", "cut", "not-utf8", "list", "string", "number", "null",
            "no-agent", "no-day", "no-y_hat"])
    def test_a_malformed_line_names_its_line(self, tmp_path, line):
        path = tmp_path / "preds.jsonl"
        good = json.dumps({"agent_id": 5, "day": 1, "y_hat": [0.5] * 3}).encode()
        path.write_bytes(good + b"\n" + line + b"\n")
        with pytest.raises(ValueError, match=r"preds\.jsonl line 2: not a JSON object with "
                                             r"agent_id, day and y_hat"):
            ExternalPredictor(str(path), np.array([3, 5, 8]), 4, 3)


class TestReplay:
    def test_replaying_the_targets_gives_the_oracle_run(self, tmp_path):
        cfg = SimConfig(population_size=600, num_days=25, initial_exposed_fraction=0.02,
                        global_mobility_scale=3.75, policy="pct", predictor="oracle",
                        rng_seed=1)
        oracle = run(cfg)
        records, preds = tmp_path / "records.jsonl", tmp_path / "preds.jsonl"
        export_training_records(oracle, records)
        with open(preds, "w") as fh:
            for rec in read_records(records):
                fh.write(json.dumps({"agent_id": rec["agent_id"], "day": rec["day"],
                                     "y_hat": rec["targets"]}) + "\n")
        replay = run(cfg.replace(predictor="external", external_predictions=str(preds)))
        assert len(oracle.events) > 50 and sum(r.messages for r in oracle.day_reports) > 500
        np.testing.assert_array_equal(replay.events, oracle.events)
        assert replay.day_reports == oracle.day_reports

    def test_the_run_id_follows_the_file_not_its_path(self, tmp_path):
        rows = "".join(json.dumps({"agent_id": a, "day": 0, "y_hat": [0.5] * 15}) + "\n"
                       for a in range(60))
        (tmp_path / "a").mkdir()
        first, second = tmp_path / "a" / "preds.jsonl", tmp_path / "preds.jsonl"
        first.write_text(rows)
        second.write_text(rows)

        def run_id(path, out=None):
            replay = SimConfig(population_size=60, num_days=2, rng_seed=1, policy="pct",
                               predictor="external", external_predictions=str(path))
            if out is None:
                trace = run(replay)
            else:
                out.mkdir()
                trace = write_run(replay, out / "trace.jsonl", out / "events.jsonl")
            # the trace header, the run id and metrics.csv name the same config
            assert metrics_row(trace, 1)["config_hash"] == trace.run_id.rsplit("-", 1)[0]
            return trace.run_id

        same = run_id(first, tmp_path / "first")
        assert run_id(second, tmp_path / "second") == same
        assert ((tmp_path / "first" / "trace.jsonl").read_bytes()
                == (tmp_path / "second" / "trace.jsonl").read_bytes())
        assert run_id(tmp_path / "a" / ".." / "preds.jsonl") == same
        second.write_text(rows.replace("0.5", "0.25", 1))
        assert run_id(second) != same
