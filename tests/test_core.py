"""Engine tests: config validation, seeding, conservation, determinism."""

import dataclasses
import filecmp
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pctsim import core, messaging
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
        ("global_mobility_scale", float("nan")),
        ("global_mobility_scale", float("inf")),
        ("predictor_add_sigma", float("nan")),
        ("predictor_mul_sigma", float("nan")),
        ("predictor_add_sigma", float("inf")),
        ("rng_seed", -1),
        ("rng_seed", 1.5),
        ("population_size", float("nan")),
        ("num_days", float("inf")),
        ("d_max", 2.5),
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
        members = w.loc_indexes["household"].flat
        assert np.array_equal(np.sort(members), np.arange(500))


def _loop_population(cfg):
    """The demographics draws as one call per household and one slice per
    group, kept as the reference for the batched build in ``WorldState``.

    Returns (the demographics stream after the build, household_id,
    households, schools, workplaces, whether the last household was cut).
    """
    n = cfg.population_size
    child = np.random.SeedSequence(cfg.rng_seed).spawn(len(core._RNG_STREAMS))
    rng = np.random.default_rng(child[core._RNG_STREAMS.index("demographics")])
    sizes, probs = zip(*core.HOUSEHOLD_SIZE_DIST)
    members_left = n
    hh_sizes = []
    truncated = False
    while members_left > 0:
        s = int(rng.choice(sizes, p=probs))
        truncated = s > members_left
        hh_sizes.append(min(s, members_left))
        members_left -= hh_sizes[-1]
    perm = rng.permutation(n)
    households = []
    household_id = np.zeros(n, dtype=np.int64)
    offset = 0
    for hid, s in enumerate(hh_sizes):
        members = np.sort(perm[offset:offset + s])
        households.append(members)
        household_id[members] = hid
        offset += s

    age_band = rng.choice(3, size=n, p=core.AGE_BAND_DIST)
    rng.integers(0, 2, n, dtype=np.int8)
    for _ in core.CONDITION_PREVALENCE:
        rng.random(n)

    def partition(ids, group_size):
        ids = rng.permutation(ids)
        return [np.sort(ids[i:i + group_size]) for i in range(0, ids.size, group_size)]

    schools = partition(np.flatnonzero(age_band == 0), core.SCHOOL_SIZE)
    workplaces = partition(np.flatnonzero(age_band == 1), core.WORKPLACE_SIZE)
    phones = rng.choice(n, size=int(round(cfg.smartphone_rate * n)), replace=False)
    n_app = int(round(cfg.adoption_rate * n))
    if n_app:
        rng.choice(np.sort(phones), size=n_app, replace=False)
    return rng, household_id, households, schools, workplaces, truncated


def _assert_population_matches_loop(n, seed):
    """Check the world's pools and demographics stream against the loop;
    returns whether the reference cut its last household."""
    cfg = SimConfig(population_size=n, num_days=1, rng_seed=seed)
    w = init_world(cfg)
    rng, household_id, households, schools, workplaces, truncated = _loop_population(cfg)
    assert np.array_equal(w.household_id, household_id)
    for name, groups in (("household", households), ("school", schools),
                         ("workplace", workplaces)):
        index = w.loc_indexes[name]
        size = np.array([g.size for g in groups], dtype=np.int64)
        flat = np.concatenate(groups) if groups else np.zeros(0, dtype=np.int64)
        assert np.array_equal(index.flat, flat), name
        assert np.array_equal(index.size, size), name
        assert np.array_equal(index.start, np.cumsum(size) - size), name
    assert w.rng["demographics"].random() == rng.random()
    return truncated


class TestBatchedPopulation:
    @pytest.mark.parametrize("n,seed", [(2, 0), (7, 2), (301, 0), (3000, 0)])
    def test_last_household_cut(self, n, seed):
        assert _assert_population_matches_loop(n, seed)

    @given(n=st.integers(2, 400), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_per_household_loop(self, n, seed):
        _assert_population_matches_loop(n, seed)


class TestHouseholdQuarantine:
    def test_positives_flag_their_household_mates(self):
        w = init_world(SimConfig(population_size=300, num_days=5, rng_seed=1,
                                 initial_exposed_fraction=0.0, symptom_dropin=0.0,
                                 test_false_negative_rate=0.0))
        hh = w.loc_indexes["household"]
        big = int(np.flatnonzero(hh.size >= 3)[0])
        shared = hh.flat[hh.start[big]:hh.start[big] + hh.size[big]]
        alone = hh.flat[hh.start[np.flatnonzero(hh.size == 1)[0]]]
        positives = np.array([shared[0], shared[1], alone])
        day = 2
        w.test_code[positives] = TEST_PENDING
        w.result_day[positives] = day
        w.infected_at_order[positives] = True
        w._phase_progression(day)
        assert w._phase_testing(day) == (0, 3)
        # both positives flag each other and the rest of their household;
        # the lone positive flags nobody
        assert np.array_equal(np.flatnonzero(w.hh_until >= 0), shared)
        assert np.all(w.hh_until[shared] == day + core.QUARANTINE_DAYS)


class TestQuarantineDropout:
    def test_a_quit_ends_the_timer_and_a_new_trigger_restarts_it(self):
        w = init_world(SimConfig(population_size=300, num_days=32, rng_seed=1,
                                 initial_exposed_fraction=0.0, symptom_dropin=0.0,
                                 test_false_negative_rate=0.0, all_levels_dropout=0.0,
                                 quarantine_dropout_household=1.0))
        hh = w.loc_indexes["household"]
        big = int(np.flatnonzero(hh.size >= 3)[0])
        positive, *mates = hh.flat[hh.start[big]:hh.start[big] + hh.size[big]]

        def result_today():
            w.test_code[positive] = TEST_PENDING
            w.result_day[positive] = w.day
            w.infected_at_order[positive] = True

        # a dropout of 1 quits every live timer on its first day; rec_level is
        # the next day's level
        for day in range(2 + core.QUARANTINE_DAYS):
            if day == 2:
                result_today()
            assert step_day(w).positives == (day == 2)
            if day >= 2:
                assert np.all(w.rec_level[mates] < 4)
        # without dropout a new result starts a fresh timer for 14 days
        w.cfg.quarantine_dropout_household = 0.0
        trigger = w.day
        result_today()
        step_day(w)
        assert np.all(w.hh_until[mates] == trigger + core.QUARANTINE_DAYS)
        for _ in range(core.QUARANTINE_DAYS):
            assert np.all(w.rec_level[mates] == 4)
            step_day(w)
        assert np.all(w.rec_level[mates] < 4)


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

    def test_estimates_recorded_for_pct(self, tmp_path):
        tr = run(_small(policy="pct", predictor="oracle", num_days=10))
        assert tr.yhat_hist is not None
        assert tr.yhat_hist.shape == (tr.app_ids.size, 10, 15)
        tr.write(tmp_path / "trace.jsonl", tmp_path / "events.jsonl")
        rec = json.loads((tmp_path / "trace.jsonl").read_text().splitlines()[-1])
        assert rec["day"] == 9
        # the keys are the app agents in the string order that sort_keys gives
        assert list(rec["y_hat"]) == sorted(map(str, tr.app_ids.tolist()))
        # row i of yhat_hist belongs to app agent app_ids[i]
        assert tr.yhat_hist[:, -1].max() > 0
        for i, agent in enumerate(tr.app_ids.tolist()):
            assert rec["y_hat"][str(agent)] == [round(float(v), 6)
                                                for v in tr.yhat_hist[i, -1]]

    @settings(max_examples=300)
    @given(st.floats(0, 1, width=32) | st.sampled_from([k / 2**7 for k in range(129)]))
    @example(1 / 128)
    @example(0.0)
    @example(-0.0)
    @example(1.0)
    def test_rounding_in_numpy_is_round_to_6(self, v):
        v = np.float32(v)
        # float() is what the writer's tolist() gives; repr tells -0.0 from 0.0
        assert repr(float(np.rint(np.float64(v) * 1e6) / 1e6)) == repr(round(float(v), 6))

    def test_written_estimates_match_the_per_value_reference(self, tmp_path):
        tr = run(_small(policy="pct", predictor="oracle", num_days=4))
        y = np.resize(np.float32([-0.0, 1 / 128, 1.0, 0.1234565]), tr.yhat_hist.shape)
        tr = dataclasses.replace(tr, yhat_hist=y)
        tr.write(tmp_path / "trace.jsonl", tmp_path / "events.jsonl")
        dump = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
        text = (tmp_path / "trace.jsonl").read_text()
        assert '[-0.0,0.007812,1.0,0.123457,' in text
        for report, line in zip(tr.day_reports, text.splitlines()[1:], strict=True):
            old = {"kind": "day", **dataclasses.asdict(report), "y_hat": {
                str(a): [round(float(v), 6) for v in row]
                for a, row in zip(tr.app_ids.tolist(), y[:, report.day])}}
            assert line == dump(old)

    def test_estimates_skipped_when_disabled(self):
        tr = run(_small(policy="pct", predictor="oracle", num_days=5,
                        record_estimates=False))
        assert tr.yhat_hist is None


def _spy_publish(world, read):
    """Call ``read(world, day, y_hat)`` as each ``_publish`` is entered, before the day's sends."""
    publish = world._publish

    def spy(day, y_hat, *args):
        read(world, day, y_hat)
        return publish(day, y_hat, *args)

    world._publish = spy


@pytest.fixture(scope="module")
def heuristic_days():
    """A heuristic world stepped day by day: (world, per-day snapshots)."""
    world = init_world(_small(policy="heuristic", population_size=600, num_days=20,
                              initial_exposed_fraction=0.05, global_mobility_scale=3.75))
    observed = []
    _spy_publish(world, lambda w, day, _y: observed.append(w.observables_for(day)))
    days = []
    for day in range(world.cfg.num_days):
        step_day(world)
        days.append((observed[day], world.policy_level.copy()))
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
            offsets, levels, _counts = world.enc_windows[day]
            starts = offsets[::world.window]  # each app agent's first row
            top = [int(levels[lo:hi].max(initial=0))
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


def _stepped(policy, at_publish=None, **kw):
    """A small recorded world, stepped one day at a time.

    Yields (world, day, report, the levels today's new contacts start out
    holding, estimates before and after the day's app pass). ``at_publish``,
    if given, is called as ``_spy_publish`` calls it.
    """
    world = init_world(_small(policy=policy, population_size=300, num_days=20,
                              predictor="noisy_oracle", initial_exposed_fraction=0.05,
                              global_mobility_scale=3.75, record_encounter_log=True, **kw))
    estimates = [np.zeros((world.app_ids.size, world.window))]

    def read(w, day, y_hat):
        if at_publish is not None:
            at_publish(w, day, y_hat)
        estimates.append(np.array(y_hat))

    _spy_publish(world, read)
    for day in range(world.cfg.num_days):
        shared = world.held[:, (day - 1) % world.window].copy()
        before = estimates[-1]
        report = step_day(world)
        yield world, day, report, shared, before, estimates[-1]


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
                prev_aligned, after[i], book, world.quantize.thresholds, day=day,
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
        expected = {}  # (receiver, day, sender) -> level registered or last sent
        total = 0
        for world, day, report, shared, before, after in _stepped("pct", d_max=d_max):
            today = world.edges[day % world.window]
            app = world.app_ids
            for r, s in zip(today.receiver.tolist(), today.sender.tolist()):
                expected[(int(app[r]), day, int(app[s]))] = int(shared[s])
            # today's pass sends only to days still in the window, and its
            # messages are held as soon as the step ends
            inboxes, n_sent = self._reference_inboxes(world, day, before, after)
            assert n_sent == report.messages
            total += n_sent
            for receiver, inbox in inboxes.items():
                for d, pairs in messaging.cluster_inbox(inbox).items():
                    engine = sorted(_held_level(world, receiver, d, m.sender_token // 4096)
                                    for m in inbox if m.encounter_day == d)
                    assert [lvl for lvl, _n in pairs] == engine
                for m in inbox:
                    expected[(receiver, m.encounter_day, m.sender_token // 4096)] = m.risk_level
            for e in world.edge_days():
                assert world.held_levels(e).tolist() == [
                    expected[(r, e.day, s)]
                    for r, s in zip(app[e.receiver].tolist(), app[e.sender].tolist())]
        assert total > 1000


def _steady_predictions(tmp_path, n=300, days=20):
    """A pct config replaying a file with about a fifth of its (agent, day) rows missing.

    Slot k of row (agent, day) is ``g[agent, day + window - k]``, agent's
    estimate of day ``day - k``, the same on every day that reports it.
    Returns (config, g, missing), ``missing`` an (n, days) bool array.
    """
    path = tmp_path / "preds.jsonl"
    cfg = _small(policy="pct", predictor="external", population_size=n, num_days=days,
                 global_mobility_scale=3.75, external_predictions=str(path))
    w = cfg.d_max + 1
    rng = np.random.default_rng(3)
    g = rng.random((n, days + w))
    missing = rng.random((n, days)) < 0.2
    with open(path, "w") as fh:
        for a, d in zip(*np.nonzero(~missing)):
            fh.write(json.dumps({"agent_id": int(a), "day": int(d),
                                 "y_hat": g[a, d + w - np.arange(w)].tolist()}) + "\n")
    return cfg, g, missing


class TestFailedPredictions:
    """A failed sender sends nothing; its partners keep what it last sent."""

    def test_a_steady_predictor_sends_each_level_once(self, tmp_path):
        # no day's estimate ever changes, so no level is sent twice,
        # whatever rows are missing
        cfg, g, missing = _steady_predictions(tmp_path)
        days, w = cfg.num_days, cfg.d_max + 1
        world = init_world(cfg)
        app = world.app_ids
        entered = []
        _spy_publish(world, lambda wd, _day, _y: entered.append(wd.held.copy()))
        sends = np.zeros((app.size, days), dtype=np.int64)  # per (sender, day)
        total = 0
        for day in range(days):
            report = step_day(world)
            changed = world.held != entered[day]
            assert report.messages == int((world.outdeg * changed).sum())
            failed = missing[app, day]
            assert not changed[failed].any()
            span = min(day + 1, w)
            cols = (day - np.arange(span)) % w
            own = world.quantize(g[np.ix_(app, day + w - np.arange(span))])
            assert np.array_equal(world.held[~failed][:, cols], own[~failed])
            sends[:, day - np.arange(span)] += changed[:, cols]
            total += report.messages
        assert sends.max() == 1
        assert missing[app].mean() > 0.1 and total > 1000

    def test_a_failed_row_records_its_last_window_moved_older(self, tmp_path):
        # slot k of a failed row on day d is the estimate of day d - k from
        # the last successful day L: that window's slot k - (d - L), or its
        # slot 0 for the days after L; zeros when no earlier day succeeded
        cfg, g, missing = _steady_predictions(tmp_path)
        w = cfg.d_max + 1
        world = init_world(cfg)
        for _ in range(cfg.num_days):
            step_day(world)
        shifted = unseen = 0
        for i, agent in enumerate(world.app_ids.tolist()):
            last = None
            for day in range(cfg.num_days):
                if not missing[agent, day]:
                    last = day
                    continue
                if last is None:
                    expected = np.zeros(w)
                    unseen += 1
                else:
                    expected = g[agent, last + w - np.maximum(np.arange(w) - (day - last), 0)]
                    shifted += 1
                assert np.array_equal(world.yhat_hist[i, day], expected.astype(np.float32))
        assert shifted > 500 and unseen > 20


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
    """Day ``day``'s (offsets, levels, counts) cells from the live rings: one packed-key sort."""
    w, days = world.window, world.edge_days()
    key = np.concatenate([
        ((e.receiver.astype(np.int64) * w + (day - e.day)) * 16 + world.held_levels(e)) * 65536
        + np.minimum(e.count, 65535) for e in days]).view(np.uint64)
    key.sort()
    # cell c = receiver * w + k holds the keys in [c << 20, (c + 1) << 20)
    bounds = (np.arange(world.app_ids.size * w + 1) << 20).astype(np.uint64)
    return (np.searchsorted(key, bounds),
            ((key >> np.uint64(16)) & np.uint64(15)).astype(np.uint8),
            (key & np.uint64(65535)).astype(np.uint16))


class TestObservationLog:
    @pytest.mark.parametrize("policy", ["pct", "heuristic"])
    @pytest.mark.parametrize("d_max", [1, 14, 15])
    def test_log_matches_the_live_snapshot(self, policy, d_max):
        # the 20-day run wraps the day rings at both window extremes; the
        # log is read after the run, so no later day may alter an earlier one.
        # The snapshot is taken as _publish is entered, before the day's sends.
        snapshots = []
        for world, _day, *_rest in _stepped(
                policy, d_max=d_max,
                at_publish=lambda w, day, _y: snapshots.append(_snapshot(w, day))):
            pass
        log = world.enc_windows
        assert len(log) == len(snapshots) == world.cfg.num_days
        for day, cells in enumerate(snapshots):
            logged = log[day]
            for got, want in zip(logged, cells):
                assert got.dtype == want.dtype
                assert got.tolist() == want.tolist()
            # a negative day counts from the last
            for got, want in zip(log[day - len(log)], logged):
                assert np.array_equal(got, want)
        assert sum(levels.size for _offsets, levels, _counts in snapshots) > 1000
        with pytest.raises(IndexError):
            log[len(log)]
        assert len(list(log)) == len(log)


def _reference_profile(world, agent):
    """The profile of one agent, read field by field from the world."""
    return {
        "age_band": core.AGE_BAND_NAMES[int(world.age_band[agent])],
        "sex": "mf"[int(world.sex[agent])],
        "conditions": [name for bit, name in enumerate(core.CONDITION_NAMES)
                       if int(world.conditions[agent]) >> bit & 1],
        "has_app": bool(world.has_app[agent]),
    }


class TestLazyProfiles:
    @pytest.mark.parametrize("policy", ["pct", "heuristic"])
    def test_profiles_match_agent_profile(self, policy):
        cfg = _small(policy=policy, predictor="noisy_oracle", num_days=4)
        trace, world = run(cfg), init_world(cfg)
        profiles = core.agent_profile(trace, trace.app_ids)
        assert profiles == core.agent_profile(world, world.app_ids)
        assert list(profiles) == world.app_ids.tolist()
        everyone = core.agent_profile(world, np.arange(world.n))
        assert everyone == {a: _reference_profile(world, a) for a in range(world.n)}
        assert any(not p["has_app"] for p in everyone.values())

    def test_recording_off_run_builds_no_profiles(self, monkeypatch):
        calls = []

        def counting(world, agents):
            calls.append(len(agents))
            return agent_profile(world, agents)

        agent_profile = core.agent_profile
        monkeypatch.setattr(core, "agent_profile", counting)
        trace = run(_small(policy="pct", num_days=3, record_observables=False,
                           record_estimates=False))
        assert calls == []
        assert not hasattr(trace, "profiles")


def _fake_libc(calls):
    def mallopt(param, value):
        calls.append((param, value))
        return 1

    return SimpleNamespace(mallopt=mallopt)


def _no_library(name):
    raise OSError(f"cannot load {name!r}")


class TestKeepHeap:
    @pytest.fixture(autouse=True)
    def fresh(self):
        core._keep_heap.cache_clear()
        yield
        core._keep_heap.cache_clear()

    def test_sets_both_thresholds_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(core.ctypes, "CDLL", lambda name: _fake_libc(calls))
        core._keep_heap()
        core._keep_heap()
        init_world(_small(population_size=20, num_days=1))
        assert calls == [(core._M_MMAP_THRESHOLD, core._MMAP_THRESHOLD),
                         (core._M_TRIM_THRESHOLD, core._TRIM_THRESHOLD)]

    @pytest.mark.parametrize("libc", [lambda name: object(), _no_library],
                             ids=["no-symbol", "no-library"])
    def test_no_mallopt_does_nothing(self, monkeypatch, libc):
        monkeypatch.setattr(core.ctypes, "CDLL", libc)
        core._keep_heap()
        assert run(_small(population_size=40, num_days=2)).num_days == 2

    def test_two_runs_in_one_process_give_the_golden_digests(self, tmp_path):
        from test_golden import GOLDEN, _digests

        for i in range(2):
            out = tmp_path / str(i)
            out.mkdir()
            assert _digests(out, policy="pct", predictor="noisy_oracle",
                            rng_seed=0) == GOLDEN[("pct", 0)]
