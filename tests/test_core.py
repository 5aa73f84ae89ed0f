"""Engine tests: config validation, seeding, conservation, determinism."""

import filecmp
from pathlib import Path

import numpy as np
import pytest

from pctsim import messaging
from pctsim.core import (
    ConfigError,
    SimConfig,
    init_world,
    load_config,
    run,
    step_day,
)
from pctsim.metrics import EXTERNAL_SEED, STATE_E, STATE_I, STATE_R, STATE_S
from pctsim.tracing import policy_heuristic
from pctsim.virology import TEST_NEGATIVE, TEST_PENDING, TEST_POSITIVE

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _small(**kw):
    base = dict(population_size=300, num_days=20, rng_seed=7,
                global_mobility_scale=3.7)
    base.update(kw)
    return SimConfig(**base)


class TestConfigValidation:
    @pytest.mark.parametrize("field,value", [
        ("population_size", 1),
        ("num_days", -1),
        ("adoption_rate", 1.5),
        ("initial_exposed_fraction", -0.1),
        ("global_mobility_scale", -1.0),
        ("test_delay_days", -2),
        ("d_max", 0),
        ("d_max", 16),
        ("policy", "magic"),
        ("predictor", "psychic"),
        ("bct_quarantine_level", 9),
    ])
    def test_errors_name_the_field(self, field, value):
        with pytest.raises(ConfigError) as err:
            SimConfig(**{field: value}).validate()
        assert field in str(err.value)

    def test_app_users_subset_of_phone_owners(self):
        with pytest.raises(ConfigError) as err:
            SimConfig(adoption_rate=0.9, smartphone_rate=0.5).validate()
        assert "adoption_rate" in str(err.value)

    def test_policy_aliases_normalized(self):
        assert SimConfig(policy="No-Tracing").policy == "no_tracing"
        assert SimConfig(predictor="NoisyOracle").predictor == "noisy_oracle"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            SimConfig.from_mapping({"population_sise": 10})
        assert "population_sise" in str(err.value)

    def test_bad_thresholds_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(risk_thresholds=tuple([0.5] * 15)).validate()
        with pytest.raises(ConfigError):
            SimConfig(risk_thresholds=tuple(np.linspace(0.1, 0.9, 7))).validate()

    def test_external_predictor_needs_path(self):
        with pytest.raises(ConfigError):
            SimConfig(policy="pct", predictor="external").validate()

    def test_yaml_roundtrip(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("population_size: 123\npolicy: bct\n")
        cfg = load_config(path)
        assert cfg.population_size == 123 and cfg.policy == "bct"


class TestSeedingAndPopulation:
    def test_initial_seed_count(self):
        tr = run(SimConfig(population_size=3000, num_days=1, rng_seed=0))
        seeds = [ev for ev in tr.events if ev.day == 0
                 and ev.infector == EXTERNAL_SEED]
        assert len(seeds) == 12
        assert all(ev.location == "external" for ev in seeds)
        assert tr.initial_counts["e"] == 12
        assert tr.initial_counts["s"] == 2988

    def test_app_user_count_and_phone_subset(self):
        w = init_world(SimConfig(population_size=1000, adoption_rate=0.30,
                                 num_days=1))
        assert w.app_ids.size == 300
        assert w.has_app.sum() == 300
        assert np.all(w.has_phone[w.app_ids])

    def test_zero_initial_exposed_stays_quiet(self):
        tr = run(_small(initial_exposed_fraction=0.0))
        assert tr.events == []
        assert np.all(tr.epi_hist == STATE_S)

    def test_households_partition_population(self):
        w = init_world(SimConfig(population_size=500, num_days=1))
        members = np.concatenate(w.households)
        assert np.array_equal(np.sort(members), np.arange(500))


@pytest.fixture(scope="module")
def trace():
    return run(_small(policy="bct", record_encounter_log=True))


class TestRunInvariants:

    def test_compartments_conserve_population(self, trace):
        for rep in trace.day_reports:
            assert rep.s + rep.e + rep.i + rep.r == trace.population

    def test_cumulative_cases_monotone_and_match_events(self, trace):
        cums = [rep.cum_cases for rep in trace.day_reports]
        assert cums == sorted(cums)
        assert cums[-1] == len(trace.events)

    def test_no_resurrection(self, trace):
        diffs = np.diff(trace.epi_hist.astype(np.int16), axis=1)
        assert np.all(diffs >= 0)

    def test_each_infectee_infected_once(self, trace):
        infectees = [ev.infectee for ev in trace.events]
        assert len(infectees) == len(set(infectees))

    def test_infection_closure(self, trace):
        """Every non-seed infection has an infectious infector and a
        same-day encounter between the pair."""
        for ev in trace.events:
            if ev.infector == EXTERNAL_SEED:
                continue
            assert trace.epi_hist[ev.infector, ev.day] == STATE_I
            a, b, _loc = trace.encounter_log[ev.day]
            pairs = set(zip(a.tolist(), b.tolist()))
            assert (ev.infector, ev.infectee) in pairs \
                or (ev.infectee, ev.infector) in pairs

    def test_seed_variance(self):
        totals = {len(run(_small(rng_seed=s, num_days=15)).events)
                  for s in (1, 2, 3)}
        assert len(totals) > 1


class TestDeterminism:
    def test_identical_runs_write_identical_files(self, tmp_path):
        cfg = _small(population_size=250, num_days=12, policy="pct",
                     predictor="noisy_oracle")
        for name in ("a", "b"):
            d = tmp_path / name
            d.mkdir()
            run(cfg).write(d / "trace.jsonl", d / "events.jsonl")
        assert filecmp.cmp(tmp_path / "a" / "trace.jsonl",
                           tmp_path / "b" / "trace.jsonl", shallow=False)
        assert filecmp.cmp(tmp_path / "a" / "events.jsonl",
                           tmp_path / "b" / "events.jsonl", shallow=False)

    def test_run_ids_differ_by_seed_only_in_suffix(self):
        a = run(_small(num_days=0, rng_seed=1))
        b = run(_small(num_days=0, rng_seed=2))
        assert a.run_id.rsplit("-", 1)[0] == b.run_id.rsplit("-", 1)[0]
        assert a.run_id != b.run_id


class TestEdgesAndStepping:
    def test_zero_day_run(self):
        tr = run(_small(num_days=0))
        assert tr.day_reports == []
        assert tr.num_days == 0

    def test_step_past_end_raises(self):
        w = init_world(_small(num_days=2))
        step_day(w)
        step_day(w)
        with pytest.raises(RuntimeError):
            step_day(w)

    def test_step_day_report_matches_trace(self):
        w = init_world(_small(num_days=3))
        rep = step_day(w)
        assert rep.day == 0
        assert rep.s + rep.e + rep.i + rep.r == w.n


class TestLevelsAndEstimates:
    def test_non_app_levels_only_baseline_or_escalations(self):
        tr = run(_small(policy="pct", adoption_rate=0.4, num_days=25))
        non_app = np.setdiff1d(np.arange(tr.population), tr.app_ids)
        seen = set(np.unique(tr.level_hist[non_app]).tolist())
        assert seen <= {0, 1, 4}

    def test_positive_result_triggers_next_day_isolation(self):
        tr = run(_small(policy="no_tracing", num_days=30,
                        initial_exposed_fraction=0.10,
                        quarantine_dropout_test=0.0,
                        quarantine_dropout_household=0.0,
                        all_levels_dropout=0.0))
        got_pos = np.flatnonzero((tr.test_hist == TEST_POSITIVE).any(axis=1))
        assert got_pos.size > 0
        for agent in got_pos.tolist():
            day = int(np.argmax(tr.test_hist[agent] == TEST_POSITIVE))
            if day + 1 < tr.num_days:
                assert tr.level_hist[agent, day + 1] == 4

    def test_estimates_recorded_for_pct(self):
        tr = run(_small(policy="pct", predictor="oracle", num_days=10))
        assert tr.yhat_hist is not None
        assert tr.yhat_hist.shape == (tr.app_ids.size, 10, 15)
        rec = tr.day_record(tr.day_reports[-1])
        assert "y_hat" in rec
        assert set(map(int, rec["y_hat"])) == set(tr.app_ids.tolist())
        # row i of yhat_hist belongs to app agent app_ids[i]
        assert tr.yhat_hist[:, -1].max() > 0
        for i, agent in enumerate(tr.app_ids.tolist()):
            assert rec["y_hat"][str(agent)] == [round(float(v), 6)
                                                for v in tr.yhat_hist[i, -1]]

    def test_estimates_skipped_when_disabled(self):
        tr = run(_small(policy="pct", predictor="oracle", num_days=5,
                        record_estimates=False))
        assert tr.yhat_hist is None


@pytest.fixture(scope="module")
def heuristic_days():
    """A heuristic world stepped day by day: (world, per-day snapshots)."""
    world = init_world(_small(policy="heuristic", population_size=600, num_days=20,
                              initial_exposed_fraction=0.05, global_mobility_scale=3.75))
    days = []
    for day in range(world.cfg.num_days):
        step_day(world)
        days.append((world.observables_for(day), world.policy_level.copy()))
    return world, days


class TestHeuristicThroughEngine:
    def test_levels_are_the_ladder_of_the_observables(self, heuristic_days):
        world, days = heuristic_days
        app = world.app_ids
        seen = set()
        for day, (obs, policy_level) in enumerate(days):
            score, level = policy_heuristic(*obs)
            assert np.array_equal(policy_level[app], level)
            assert np.array_equal(world.yhat_hist[:, day],
                                  np.repeat(score[:, None], world.window, axis=1))
            seen.update(level.tolist())
        assert seen == {1, 2, 3, 4}

    def test_positive_test_gives_level_4(self, heuristic_days):
        world, days = heuristic_days
        app = world.app_ids
        hits = 0
        for day, (_obs, policy_level) in enumerate(days):
            window = world.test_hist[app, max(day - world.cfg.d_max, 0):day + 1]
            positive = app[(window == TEST_POSITIVE).any(axis=1)]
            assert np.all(policy_level[positive] == 4)
            hits += positive.size
        assert hits > 0

    def test_observables_match_the_recorded_windows(self, heuristic_days):
        world, days = heuristic_days
        app = world.app_ids
        for day, ((has_positive, n_symptoms, max_level), _level) in enumerate(days):
            assert has_positive.shape == n_symptoms.shape == max_level.shape == app.shape
            bits = [bin(int(m)).count("1") for m in world.symptom_hist[app, day]]
            assert n_symptoms.tolist() == bits
            starts, rows = world.enc_windows[day]
            top = [int(rows[lo:hi, 1].max(initial=0))
                   for lo, hi in zip(starts[:-1], starts[1:])]
            assert max_level.tolist() == top
        assert any(obs[0].any() for obs, _ in days)
        assert any(obs[2].max() >= 12 for obs, _ in days)

    def test_fitted_thresholds_are_pct_only(self):
        # default.yaml's cuts top out near 0.2, where a 0.25 heuristic score
        # would broadcast level 15; the heuristic keeps the uniform grid
        fitted = load_config(CONFIG_DIR / "default.yaml").risk_thresholds
        assert fitted is not None and fitted[-1] < 0.25
        cfg = _small(policy="heuristic", population_size=600, num_days=20,
                     initial_exposed_fraction=0.05, global_mobility_scale=3.75)
        uniform, cut = run(cfg), run(cfg.replace(risk_thresholds=fitted))
        assert cut.day_reports == uniform.day_reports
        assert cut.events == uniform.events
        assert sum(r.messages for r in uniform.day_reports) > 0


class TestFalseNegativeRate:
    def test_negative_results_occur_at_configured_rate(self):
        # with symptom drop-ins disabled, only truly infected agents ever
        # report symptoms, so every negative result is a false negative
        cfg = SimConfig(population_size=4000, num_days=25,
                        initial_exposed_fraction=1.0,
                        global_mobility_scale=0.0, symptom_dropin=0.0,
                        rng_seed=3)
        tr = run(cfg)
        resolved = 0
        negatives = 0
        for agent in range(tr.population):
            row = tr.test_hist[agent]
            for d in range(1, tr.num_days):
                if row[d - 1] == TEST_PENDING and row[d] != TEST_PENDING:
                    resolved += 1
                    negatives += row[d] == TEST_NEGATIVE
        assert resolved > 500
        assert negatives / resolved == pytest.approx(0.10, abs=0.035)


def _stepped(policy, **kw):
    """A small recorded world, stepped one day at a time.

    Yields (world, day, report, shared levels at the start of the day,
    estimates before and after the day's app pass).
    """
    world = init_world(_small(policy=policy, population_size=300, num_days=20,
                              predictor="noisy_oracle", initial_exposed_fraction=0.05,
                              global_mobility_scale=3.75, record_encounter_log=True, **kw))
    for day in range(world.cfg.num_days):
        shared = world.qprev[:, 0].copy()
        before = world.yhat_prev.copy()
        report = step_day(world)
        yield world, day, report, shared, before, world.yhat_prev.copy()


def _token(agent, day):
    """A synthetic rotating token, unique per (agent, day)."""
    return agent * 4096 + day


def _app_index(world, agent):
    """The app index (row of the app-layer arrays) of app agent ``agent``."""
    i = int(np.searchsorted(world.app_ids, agent))
    assert world.app_ids[i] == agent
    return i


def _held_level(world, receiver, day, sender):
    e = world.edges[day % world.window]
    row = np.flatnonzero((e.receiver == _app_index(world, receiver))
                         & (e.sender == _app_index(world, sender)))
    assert e.day == day and row.size == 1
    return int(world.held_levels(e)[row[0]])


class TestProtocolReference:
    """The engine's edge arrays deliver exactly what the wire protocol sends."""

    @staticmethod
    def _reference_inboxes(world, day, before, after):
        """Each app agent's own ``diff_and_emit`` over its partners on the edges."""
        inboxes, n_sent = {}, 0
        app = world.app_ids
        for i, agent in enumerate(app.tolist()):
            book = {e.day: {_token(r, e.day): 1 for r in app[e.receiver[e.sender == i]].tolist()}
                    for e in world.edge_days()}
            prev_aligned = np.concatenate([before[i, :1], before[i, :-1]])
            out = messaging.diff_and_emit(
                prev_aligned, after[i], book, world.thresholds, day=day,
                own_tokens={d: _token(agent, d) for d in book})
            n_sent += len(out)
            for rcpt, msg in out:
                inboxes.setdefault(rcpt // 4096, []).append(msg)
        return inboxes, n_sent

    def test_engine_matches_diff_and_emit(self):
        self._check_against_diff_and_emit(d_max=14)

    @pytest.mark.parametrize("d_max", [1, 15])
    def test_engine_matches_diff_and_emit_at_window_extremes(self, d_max):
        # the 20-day run wraps the day rings at both window sizes
        self._check_against_diff_and_emit(d_max=d_max)

    def _check_against_diff_and_emit(self, d_max):
        expected = {}  # (receiver, day, sender) -> level registered or last delivered
        inboxes = {}   # receiver -> messages sent to it in yesterday's pass
        total = 0
        for world, day, report, shared, before, after in _stepped("pct", d_max=d_max):
            start = day - world.cfg.d_max
            today = world.edges[day % world.window]
            app = world.app_ids
            for r, s in zip(today.receiver.tolist(), today.sender.tolist()):
                expected[(int(app[r]), day, int(app[s]))] = int(shared[s])
            for receiver, inbox in inboxes.items():
                live = [m for m in inbox if m.encounter_day >= start]
                for d, pairs in messaging.cluster_inbox(live).items():
                    engine = sorted(_held_level(world, receiver, d, m.sender_token // 4096)
                                    for m in live if m.encounter_day == d)
                    assert [lvl for lvl, _n in pairs] == engine
                for m in live:
                    expected[(receiver, m.encounter_day, m.sender_token // 4096)] = m.risk_level
            for e in world.edge_days():
                assert world.held_levels(e).tolist() == [
                    expected[(r, e.day, s)]
                    for r, s in zip(app[e.receiver].tolist(), app[e.sender].tolist())]
            inboxes, n_sent = self._reference_inboxes(world, day, before, after)
            assert n_sent == report.messages
            total += n_sent
        assert total > 1000


class TestEdgeLedger:
    @pytest.mark.parametrize("policy", ["bct", "pct"])
    def test_invariants(self, policy):
        for world, day, _report, _shared, _before, _after in _stepped(policy):
            days = sorted(e.day for e in world.edge_days())
            assert days == list(range(max(day - world.cfg.d_max, 0), day + 1))
            for e in world.edge_days():
                a, b, _loc = world.encounter_log[e.day]
                app_pair = world.has_app[a] & world.has_app[b]
                assert e.count.sum() == 2 * app_pair.sum()
                met = set(zip(a[app_pair].tolist(), b[app_pair].tolist()))
                app = world.app_ids
                assert all((r, s) in met or (s, r) in met
                           for r, s in zip(app[e.receiver].tolist(), app[e.sender].tolist()))
                held = world.held_levels(e)
                assert np.all((held >= 0) & (held <= 15))


def _snapshot(world, day):
    """Day ``day``'s (starts, rows) table from the live rings: one packed-key sort."""
    w, days = world.window, world.edge_days()
    key = np.concatenate([
        ((e.receiver.astype(np.int64) * w + (day - e.day)) * 16 + world.held_levels(e)) * 65536
        + np.minimum(e.count, 65535) for e in days]).view(np.uint64)
    key.sort()
    rows = np.empty((key.size, 3), dtype=np.uint16)
    rows[:, 0] = (key >> np.uint64(20)) % np.uint64(w)
    rows[:, 1] = (key >> np.uint64(16)) & np.uint64(15)
    rows[:, 2] = key & np.uint64(65535)
    starts = np.searchsorted(key, (np.arange(world.app_ids.size) * w << 20).astype(np.uint64))
    return np.append(starts, key.size), rows


class TestObservationLog:
    @pytest.mark.parametrize("policy", ["pct", "heuristic"])
    @pytest.mark.parametrize("d_max", [1, 14, 15])
    def test_log_matches_the_live_snapshot(self, policy, d_max):
        # the 20-day run wraps the day rings at both window extremes; the
        # log is read after the run, so no later day may alter an earlier one
        snapshots = []
        for world, day, *_rest in _stepped(policy, d_max=d_max):
            snapshots.append(_snapshot(world, day))
        log = world.enc_windows
        assert len(log) == len(snapshots) == world.cfg.num_days
        for day, (starts, rows) in enumerate(snapshots):
            logged_starts, logged_rows = log[day]
            assert logged_starts.tolist() == starts.tolist()
            assert logged_rows.dtype == rows.dtype
            assert logged_rows.tolist() == rows.tolist()
        assert sum(rows.shape[0] for _starts, rows in snapshots) > 1000
