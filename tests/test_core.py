"""Engine tests: config validation, seeding, conservation, determinism."""

import copy
import dataclasses
import filecmp
import io
import json
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import yaml
from conftest import health, recorded_days, recorded_levels
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pctsim import cli, core, messaging, mobility, virology
from pctsim.core import (
    EVENT_LOCATIONS,
    ConfigError,
    SimConfig,
    init_world,
    load_config,
    run,
    step_day,
    write_run,
)
from pctsim.datagen import export_training_records, sample_dr_config
from pctsim.metrics import (
    EXTERNAL_SEED,
    STATE_E,
    STATE_I,
    STATE_R,
    STATE_S,
    canonical_json,
    config_hash,
    metrics_row,
)
from pctsim.tracing import policy_heuristic
from pctsim.virology import TEST_NEGATIVE, TEST_PENDING, TEST_POSITIVE

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _epi_hist(trace):
    """Every agent's ``(population, num_days)`` end-of-day states, from the courses."""
    return core.epi_states(trace, np.arange(trace.population), np.arange(trace.num_days))


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
        ("record_observables", 1),
        ("record_estimates", "false"),
        ("record_encounter_log", None),
        ("external_predictions", 5),
        ("psi_table", (1,) * 15),
        ("psi_table", (1,) * 15 + (5,)),
        # an integer too large for a float
        pytest.param("population_size", 10**400, id="population_size-huge"),
        pytest.param("rng_seed", 10**400, id="rng_seed-huge"),
        pytest.param("carefulness", 10**400, id="carefulness-huge"),
        pytest.param("psi_table", (10**400,) + (1,) * 15, id="psi_table-huge"),
        pytest.param("risk_thresholds", (0.1,) * 14 + (10**400,), id="risk_thresholds-huge"),
        # increasing cut points with an infinite end
        pytest.param("risk_thresholds", tuple(k / 16 for k in range(1, 15)) + (float("inf"),),
                     id="risk_thresholds-inf"),
        pytest.param("risk_thresholds", (float("-inf"),) + tuple(k / 16 for k in range(2, 16)),
                     id="risk_thresholds--inf"),
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

    def test_a_config_cannot_change(self):
        cfg = SimConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.num_days = 3
        assert cfg == SimConfig()

    @pytest.mark.parametrize("call", [
        init_world,
        run,
        lambda cfg: cli.calibrate(cfg, 1.0, [0], 0.5),
        lambda cfg: sample_dr_config(cfg, np.random.default_rng(0)),
    ], ids=["init_world", "run", "calibrate", "sample_dr_config"])
    def test_no_call_changes_its_config(self, call):
        cfg = SimConfig(population_size=200, num_days=8, global_mobility_scale=4)
        before = dataclasses.replace(cfg)
        call(cfg)
        # repr, not ==: 4 == 4.0, but a config that held 4 and then 4.0 changed its name
        assert repr(cfg) == repr(before)

    def test_yaml_roundtrip(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("population_size: 123\npolicy: bct\n")
        cfg = load_config(path)
        assert cfg.population_size == 123 and cfg.policy == "bct"

    @pytest.mark.parametrize("name", ["default.yaml", "default.json"])
    def test_pure_python_loader_builds_the_same_config(self, name, tmp_path, monkeypatch):
        path = CONFIG_DIR / "default.yaml"
        if name.endswith(".json"):
            path = tmp_path / name
            path.write_text(json.dumps(load_config(CONFIG_DIR / "default.yaml").to_dict()))
        preferred = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
        loaders, load = [], yaml.load
        monkeypatch.setattr(yaml, "load", lambda stream, Loader: loaders.append(Loader)
                            or load(stream, Loader=Loader))
        config = load_config(path).to_dict()
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        assert load_config(path).to_dict() == config
        assert loaders == [preferred, yaml.SafeLoader]

    def test_an_empty_file_gives_the_defaults(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("")
        assert load_config(path) == SimConfig()

    def test_a_file_that_is_not_a_mapping_names_the_file(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("- population_size\n- 300\n")
        with pytest.raises(ConfigError, match=f"config file {path} must contain a flat mapping"):
            load_config(path)

    @pytest.mark.parametrize("libyaml", [True, False])
    def test_malformed_yaml_names_the_file_and_line(self, libyaml, tmp_path, monkeypatch):
        if not libyaml:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        path = tmp_path / "c.yaml"
        path.write_text("num_days: 5\npopulation_size: [1, 2\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert f"config file {path}: not valid YAML at line 3, column 1: " in str(err.value)


class TestSeedingAndPopulation:
    def test_initial_seed_count(self):
        tr = run(SimConfig(population_size=3000, num_days=1, rng_seed=0))
        seeds = tr.events[(tr.events[:, 0] == 0) & (tr.events[:, 1] == EXTERNAL_SEED)]
        assert len(seeds) == 12
        assert {EVENT_LOCATIONS[code] for code in seeds[:, 3].tolist()} == {"external"}
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
        np.testing.assert_array_equal(tr.events, np.zeros((0, 4), dtype=np.int64))
        assert np.all(_epi_hist(tr) == STATE_S)

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
        # a pool whose one group holds everyone keeps no array
        assert index.whole == (n >= 2 and len(groups) == 1 and groups[0].size == n), name
        if index.whole:
            continue
        flat = np.concatenate(groups) if groups else np.zeros(0, dtype=np.int64)
        assert np.array_equal(index.flat, flat), name
        # each member of a group of two or more draws from where its group starts
        # in flat, over its group's other members; a member of a one-agent group
        # does not draw
        offset, span = np.full(n, -1), np.full(n, -1)
        start = 0
        for group in groups:
            if group.size >= 2:
                offset[group], span[group] = start, group.size - 1
            start += group.size
        drawers = np.flatnonzero(span >= 0)
        assert np.array_equal(index.drawers, drawers), name
        assert np.array_equal(index.offset, offset[drawers]), name
        assert np.array_equal(index.span, span[drawers]), name
        alone = [group for group in groups if group.size == 1]
        assert not np.isin(alone, index.drawers).any(), name
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
        size = np.bincount(w.household_id)
        shared = np.flatnonzero(w.household_id == np.flatnonzero(size >= 3)[0])
        (alone,) = np.flatnonzero(w.household_id == np.flatnonzero(size == 1)[0])
        positives = np.array([shared[0], shared[1], alone])
        day = 2
        w.test_code[positives] = TEST_PENDING
        w.result_day[positives] = day
        w.infected_at_order[positives] = True
        ordered, positive = w._phase_testing(day, w._phase_progression(day))
        assert (ordered, positive.sum()) == (0, 3)
        # both positives flag each other and the rest of their household;
        # the lone positive flags nobody
        assert np.array_equal(np.flatnonzero(w.hh_until >= 0), shared)
        assert np.all(w.hh_until[shared] == day + core.QUARANTINE_DAYS)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 300), day=st.integers(0, 4),
           share=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    @example(seed=1, n=300, day=2, share=0.3)  # lone positives and households of several
    def test_mates_match_the_per_household_loop(self, seed, n, day, share):
        w = init_world(SimConfig(population_size=n, num_days=5, rng_seed=seed,
                                 initial_exposed_fraction=0.0, symptom_dropin=0.0,
                                 test_false_negative_rate=0.0))
        rng = np.random.default_rng(seed)
        positive = rng.random(n) < share
        pos = np.flatnonzero(positive)
        # timers already running, some past the new one, so a write shows
        w.hh_until[:] = rng.integers(-1, day + 2 * core.QUARANTINE_DAYS, n)
        before = w.hh_until.copy()
        w.test_code[pos] = TEST_PENDING
        w.result_day[pos] = day
        w.infected_at_order[pos] = True
        _, got = w._phase_testing(day, w._phase_progression(day))
        assert np.array_equal(got, positive)
        # the reference: per household, each member with a positive other than itself
        want = before.copy()
        for hh in sorted(set(w.household_id[pos].tolist())):
            members = np.flatnonzero(w.household_id == hh).tolist()
            positives = [agent for agent in members if positive[agent]]
            for agent in members:
                if any(other != agent for other in positives):
                    want[agent] = day + core.QUARANTINE_DAYS
        assert np.array_equal(w.hh_until, want)


class TestQuarantineDropout:
    def test_a_quit_ends_the_timer_and_a_new_trigger_restarts_it(self):
        w = init_world(SimConfig(population_size=300, num_days=32, rng_seed=1,
                                 initial_exposed_fraction=0.0, symptom_dropin=0.0,
                                 test_false_negative_rate=0.0, all_levels_dropout=0.0,
                                 quarantine_dropout_household=1.0))
        big = np.flatnonzero(np.bincount(w.household_id) >= 3)[0]
        positive, *mates = np.flatnonzero(w.household_id == big)

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
        w.cfg = w.cfg.replace(quarantine_dropout_household=0.0)
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
        diffs = np.diff(_epi_hist(trace).astype(np.int16), axis=1)
        assert np.all(diffs >= 0)

    def test_each_infectee_infected_once(self, trace):
        infectees = trace.events[:, 2].tolist()
        assert len(infectees) == len(set(infectees))

    def test_infection_closure(self, trace):
        """Every non-seed infection has an infectious infector and a
        same-day encounter between the pair."""
        pairs_on = {}
        epi_hist = _epi_hist(trace)
        for day, infector, infectee, _loc in trace.events.tolist():
            if infector == EXTERNAL_SEED:
                continue
            assert epi_hist[infector, day] == STATE_I
            if day not in pairs_on:
                a, b, _loc = trace.encounter_log[day]
                pairs_on[day] = set(zip(a.tolist(), b.tolist()))
            pairs = pairs_on[day]
            assert (infector, infectee) in pairs or (infectee, infector) in pairs

    def test_event_columns_follow_the_world(self):
        world = init_world(_small(policy="bct"))
        cum_cases = [step_day(world).cum_cases for _ in range(world.cfg.num_days)]
        events = world.events
        np.testing.assert_array_equal(world.exposure_day[events[:, 2]], events[:, 0])
        assert (world.exposure_day >= 0).sum() == len(events) > 0
        assert np.all(np.diff(events[:, 0]) >= 0)
        assert cum_cases == [int((events[:, 0] <= d).sum()) for d in range(len(cum_cases))]

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
            write_run(cfg, d / "trace.jsonl", d / "events.jsonl")
        assert filecmp.cmp(tmp_path / "a" / "trace.jsonl",
                           tmp_path / "b" / "trace.jsonl", shallow=False)
        assert filecmp.cmp(tmp_path / "a" / "events.jsonl",
                           tmp_path / "b" / "events.jsonl", shallow=False)

    @pytest.mark.parametrize("policy", core.POLICIES)
    def test_the_encounter_filter_changes_no_report_or_event(self, policy, monkeypatch):
        # the encounter phase returns only the rows a later phase reads; every row gives the same run
        cfg = _small(policy=policy, initial_exposed_fraction=0.05)
        filtered = run(cfg)
        generate = mobility.generate_encounters
        monkeypatch.setattr(mobility, "generate_encounters",
                            lambda *args: generate(*args[:4], read=None))
        unfiltered = run(cfg)
        assert filtered.day_reports == unfiltered.day_reports
        assert np.array_equal(filtered.events, unfiltered.events)
        assert filtered.events.shape[0] > 15  # more than the seeds were infected

    @pytest.mark.parametrize("field,spelled,stored", [
        ("global_mobility_scale", 4, 4.0),
        ("population_size", 50.0, 50),
        ("carefulness", -0.0, 0.0),
        ("risk_thresholds", (-0.0, *messaging.DEFAULT_THRESHOLDS[1:]),
         (0.0, *messaging.DEFAULT_THRESHOLDS[1:])),
    ])
    def test_one_model_has_one_name(self, field, spelled, stored, tmp_path):
        # a number is stored in its field's type, and a float as float(value) + 0.0, so
        # either spelling runs and names one model
        names, kept = [], set()
        for value in (spelled, stored):
            world = write_run(_small(**{"population_size": 50, "num_days": 5, field: value}),
                              tmp_path / "trace.jsonl", tmp_path / "events.jsonl")
            names.append((world.run_id, (tmp_path / "trace.jsonl").read_bytes(),
                          (tmp_path / "events.jsonl").read_bytes()))
            kept.add(repr(getattr(world.cfg, field)))  # repr tells 4 from 4.0, -0.0 from 0.0
        assert names[0] == names[1]
        assert kept == {repr(stored)}

    def test_a_config_is_named_as_its_run_is(self):
        cfg = SimConfig(population_size=50, num_days=2, global_mobility_scale=4)
        name = config_hash(cfg.to_dict())  # taken before the run, as a caller would
        assert run(cfg).run_id == f"{name}-s0"

    def test_a_seed_is_kept_exactly(self):
        cfg = SimConfig(rng_seed=2**60 + 1).validate()
        assert type(cfg.rng_seed) is int and cfg.rng_seed == 2**60 + 1

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
        assert rep.s + rep.e + rep.i + rep.r == w.population


class TestFinishedWorld:
    @pytest.mark.parametrize("writes", [False, True], ids=["run", "write_run"])
    def test_run_builds_one_world_and_steps_it_to_the_end(self, monkeypatch, tmp_path, writes):
        # the benchmark's setup_s times the one init_world call of a run, through the
        # module global; `pctsim run` writes the trace as the days end
        built, init = [], core.init_world

        def counting(cfg):
            built.append(cfg)
            return init(cfg)

        monkeypatch.setattr(core, "init_world", counting)
        cfg = _small(num_days=5)
        world = (write_run(cfg, tmp_path / "trace.jsonl", tmp_path / "events.jsonl") if writes
                 else run(cfg))
        assert len(built) == 1 and built[0] is cfg
        assert world.day == world.num_days == len(world.day_reports) == 5

    @pytest.mark.parametrize("days", [0, 1, 30])
    @pytest.mark.parametrize("policy", core.POLICIES)
    def test_recovered_ids_are_the_last_days_recovered(self, policy, days):
        world = run(_small(policy=policy, num_days=days, initial_exposed_fraction=0.1))
        last = core.epi_states(world, np.arange(world.population), np.arange(days)[-1:])
        recovered = world.recovered_ids()
        assert np.array_equal(recovered, np.flatnonzero(last == STATE_R))
        if days == 0:
            assert recovered.size == 0
        if days == 30:
            assert recovered.size > 0

    def test_a_world_stepped_by_hand_writes_what_run_writes(self, tmp_path):
        # the trace writer observing a world stepped by hand
        cfg = _small(policy="pct", predictor="noisy_oracle", num_days=6)
        world, trace = init_world(cfg), io.StringIO()
        writer = core._TraceWriter(trace)
        for _ in range(6):
            step_day(world, (writer,))
        ran = write_run(cfg, tmp_path / "trace.jsonl", tmp_path / "events.jsonl")
        assert (tmp_path / "trace.jsonl").read_text() == trace.getvalue()
        assert np.array_equal(ran.events, world.events) and ran.day_reports == world.day_reports

    def test_every_event_line_is_the_canonical_json_of_its_row(self, tmp_path):
        # the writer formats the event lines by hand; they must be what the encoder writes
        world = write_run(_small(policy="pct", predictor="noisy_oracle", initial_exposed_fraction=0.05),
                          tmp_path / "trace.jsonl", tmp_path / "events.jsonl")
        rows = [{"day": day, "infector": infector, "infectee": infectee,
                 "location": EVENT_LOCATIONS[loc]}
                for day, infector, infectee, loc in world.events.tolist()]
        assert len(rows) > 15 and len({row["location"] for row in rows}) > 2
        lines = (tmp_path / "events.jsonl").read_text().splitlines(keepends=True)
        assert lines == [canonical_json(row) + "\n" for row in rows]


class TestLevelsAndEstimates:
    def test_non_app_levels_only_baseline_or_escalations(self):
        with recorded_levels() as levels:
            tr = run(_small(policy="pct", adoption_rate=0.4, num_days=25))
        non_app = np.setdiff1d(np.arange(tr.population), tr.app_ids)
        seen = set(np.unique(levels()[non_app]).tolist())
        assert seen <= {0, 1, 4}

    def test_positive_result_triggers_next_day_isolation(self):
        with recorded_levels() as levels:
            tr = run(_small(policy="no_tracing", num_days=30,
                            initial_exposed_fraction=0.10,
                            quarantine_dropout_test=0.0,
                            quarantine_dropout_household=0.0,
                            all_levels_dropout=0.0))
        level_hist = levels()
        _, test_hist = health(tr)
        got_pos = np.flatnonzero((test_hist == TEST_POSITIVE).any(axis=1))
        assert got_pos.size > 0
        for agent in got_pos.tolist():
            day = int(np.argmax(test_hist[agent] == TEST_POSITIVE))
            if day + 1 < tr.num_days:
                assert level_hist[agent, day + 1] == 4

    def test_estimates_recorded_for_pct(self, tmp_path):
        with recorded_days() as record:
            tr = write_run(_small(policy="pct", predictor="oracle", num_days=10),
                           tmp_path / "trace.jsonl", tmp_path / "events.jsonl")
        yhat_hist = np.stack(record.estimates, axis=1).astype(np.float32)
        assert yhat_hist.shape == (tr.app_ids.size, 10, 15)
        rec = json.loads((tmp_path / "trace.jsonl").read_text().splitlines()[-1])
        assert rec["day"] == 9
        # the keys are the app agents in the string order that sort_keys gives
        assert list(rec["y_hat"]) == sorted(map(str, tr.app_ids.tolist()))
        # row i of the estimates belongs to app agent app_ids[i]
        assert yhat_hist[:, -1].max() > 0
        for i, agent in enumerate(tr.app_ids.tolist()):
            assert rec["y_hat"][str(agent)] == [round(float(v), 6)
                                                for v in yhat_hist[i, -1]]

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

    def test_written_estimates_match_the_per_value_reference(self):
        tr = run(_small(policy="pct", predictor="oracle", num_days=4))
        # the probe values go straight to the trace writer's call of each day, as float64
        y = np.resize(np.float32([-0.0, 1 / 128, 1.0, 0.1234565]),
                      (tr.num_days, tr.app_ids.size, tr.window))
        trace = io.StringIO()
        writer = core._TraceWriter(trace)
        for report in tr.day_reports:
            writer(tr, report, y[report.day].astype(np.float64))
        dump = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
        text = trace.getvalue()
        assert '[-0.0,0.007812,1.0,0.123457,' in text
        for report, line in zip(tr.day_reports, text.splitlines()[1:], strict=True):
            old = {"kind": "day", **dataclasses.asdict(report), "y_hat": {
                str(a): [round(float(v), 6) for v in row]
                for a, row in zip(tr.app_ids.tolist(), y[report.day])}}
            assert line == dump(old)

    def test_estimates_skipped_when_disabled(self, tmp_path):
        write_run(_small(policy="pct", predictor="oracle", num_days=5, record_estimates=False),
                  tmp_path / "trace.jsonl", tmp_path / "events.jsonl")
        days = (tmp_path / "trace.jsonl").read_text().splitlines()[1:]
        assert len(days) == 5 and not any('"y_hat"' in line for line in days)


def _spy_publish(world, read):
    """Call ``read(world, day)`` as each ``_publish`` is entered, before the day's sends."""
    publish = world._publish

    def spy(day, qlev):
        read(world, day)
        return publish(day, qlev)

    world._publish = spy


@pytest.fixture(scope="module")
def heuristic_days():
    """A heuristic world stepped day by day: (world, per-day snapshots).

    A day's snapshot is its observables, the estimates the engine published
    (float32) and the policy levels.
    """
    world = init_world(_small(policy="heuristic", population_size=600, num_days=20,
                              initial_exposed_fraction=0.05, global_mobility_scale=3.75))
    observed = []
    _spy_publish(world, lambda w, day: observed.append(w.observables_for(day)))
    with recorded_days() as record:
        for _ in range(world.cfg.num_days):
            core.step_day(world)
    published = [y_hat.astype(np.float32) for y_hat in record.estimates]
    return world, list(zip(observed, published, record.levels, strict=True))


class TestHeuristicThroughEngine:
    def test_levels_are_the_ladder_of_the_observables(self, heuristic_days):
        world, days = heuristic_days
        app = world.app_ids
        seen = set()
        for obs, y_hat, policy_level in days:
            score, level = policy_heuristic(*obs)
            assert np.array_equal(policy_level[app], level)
            assert np.array_equal(y_hat,
                                  np.repeat(score[:, None], world.window, axis=1))
            seen.update(level.tolist())
        assert seen == {1, 2, 3, 4}

    def test_positive_test_gives_level_4(self, heuristic_days):
        world, days = heuristic_days
        app = world.app_ids
        hits = 0
        for day, (_obs, _y_hat, policy_level) in enumerate(days):
            window = health(world)[1][app, max(day - world.cfg.d_max, 0):day + 1]
            positive = app[(window == TEST_POSITIVE).any(axis=1)]
            assert np.all(policy_level[positive] == 4)
            hits += positive.size
        assert hits > 0

    def test_observables_match_the_recorded_windows(self, heuristic_days):
        world, days = heuristic_days
        app = world.app_ids
        for day, ((has_positive, n_symptoms, max_level), _y_hat, _level) in enumerate(days):
            assert has_positive.shape == n_symptoms.shape == max_level.shape == app.shape
            bits = [bin(int(m)).count("1") for m in health(world)[0][app, day]]
            assert n_symptoms.tolist() == bits
            offsets, levels, _counts = world.enc_windows[day]
            starts = offsets[::world.window]  # each app agent's first row
            top = [int(levels[lo:hi].max(initial=0))
                   for lo, hi in zip(starts[:-1], starts[1:])]
            assert max_level.tolist() == top
        assert any(obs[0].any() for obs, _, _ in days)
        assert any(obs[2].max() >= 12 for obs, _, _ in days)

    def test_fitted_thresholds_are_pct_only(self):
        # default.yaml's cuts top out near 0.2, where a 0.25 heuristic score
        # would broadcast level 15; the heuristic keeps the uniform grid
        fitted = load_config(CONFIG_DIR / "default.yaml").risk_thresholds
        assert fitted is not None and fitted[-1] < 0.25
        cfg = _small(policy="heuristic", population_size=600, num_days=20,
                     initial_exposed_fraction=0.05, global_mobility_scale=3.75)
        uniform, cut = run(cfg), run(cfg.replace(risk_thresholds=fitted))
        assert cut.day_reports == uniform.day_reports
        np.testing.assert_array_equal(cut.events, uniform.events)
        assert sum(r.messages for r in uniform.day_reports) > 0


def _observables_reference(world, day):
    """The heuristic's evidence by the window formula: a positive anywhere in the
    window's test code columns, ``unpackbits`` of today's symptom masks, and the
    highest level over a (sender, slot) gather of the ``(n_app, window)`` held levels."""
    app = world.app_ids
    symptoms, tests = health(world)
    tests = tests[app, max(day - world.cfg.d_max, 0):day + 1]
    has_positive = np.any(tests == TEST_POSITIVE, axis=1)
    n_symptoms = np.unpackbits(symptoms[app, day][:, None], axis=1).sum(axis=1)
    held = world.held.T
    top = np.zeros(app.size, dtype=np.int8)
    for e in world.edge_days():
        np.maximum.at(top, e.receiver, held[e.sender, e.day % world.window])
    return has_positive, n_symptoms, top.astype(np.int64)


class TestObservablesReference:
    @pytest.mark.parametrize("d_max", [1, 14, 15])
    def test_matches_the_window_formula(self, d_max):
        cfg = _small(policy="heuristic", population_size=600, num_days=20, d_max=d_max,
                     initial_exposed_fraction=0.05, global_mobility_scale=3.75)
        assert min(cfg.symptom_dropout, cfg.symptom_dropin, cfg.all_levels_dropout,
                   cfg.quarantine_dropout_test, cfg.quarantine_dropout_household) > 0
        world = init_world(cfg)
        pairs = []
        _spy_publish(world, lambda w, day: pairs.append(
            (w.observables_for(day), _observables_reference(w, day))))
        for _ in range(cfg.num_days):
            step_day(world)
        assert len(pairs) == cfg.num_days
        for got, want in pairs:
            for g, x in zip(got, want):
                assert np.array_equal(g, x)
        # the window's positives are today's only because a positive is never replaced
        positive = health(world)[1] == TEST_POSITIVE
        assert np.array_equal(np.maximum.accumulate(positive, axis=1), positive)
        assert positive[:, -1].sum() > 0
        assert any(want[0].any() and want[1].max() >= 2 and want[2].max() >= 12
                   for _got, want in pairs)


class TestFalseNegativeRate:
    def test_negative_results_occur_at_configured_rate(self):
        # with symptom drop-ins disabled, only truly infected agents ever
        # report symptoms, so every negative result is a false negative
        cfg = SimConfig(population_size=4000, num_days=25,
                        initial_exposed_fraction=1.0,
                        global_mobility_scale=0.0, symptom_dropin=0.0,
                        rng_seed=3)
        tr = run(cfg)
        _, test_hist = health(tr)
        resolved = 0
        negatives = 0
        for agent in range(tr.population):
            row = test_hist[agent]
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
    if at_publish is not None:
        _spy_publish(world, at_publish)
    with recorded_days() as record:
        record.estimates.append(np.zeros((world.app_ids.size, world.window)))
        for day in range(world.cfg.num_days):
            shared = world.held[(day - 1) % world.window].copy()
            before = record.estimates[-1]
            report = core.step_day(world)
            yield world, day, report, shared, before, record.estimates[-1]


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
        _spy_publish(world, lambda wd, _day: entered.append(wd.held.copy()))
        sends = np.zeros((app.size, days), dtype=np.int64)  # per (sender, day)
        total = 0
        for day in range(days):
            report = step_day(world)
            changed = world.held != entered[day]
            assert report.messages == int((world.outdeg * changed).sum())
            failed = missing[app, day]
            assert not changed[:, failed].any()
            span = min(day + 1, w)
            cols = (day - np.arange(span)) % w
            own = messaging.quantize_risk(g[np.ix_(app, day + w - np.arange(span))],
                                          world.thresholds)
            assert np.array_equal(world.held[cols][:, ~failed], own[~failed].T)
            sends[:, day - np.arange(span)] += changed[cols].T
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
        with recorded_days() as record:
            for _ in range(cfg.num_days):
                core.step_day(world)
        published = [y_hat.astype(np.float32) for y_hat in record.estimates]
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
                assert np.array_equal(published[day][i], expected.astype(np.float32))
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


def _directed_registration(world, a, b):
    """A day's edges by the directed formula: one ``np.unique`` over both directions
    of every app pair. Returns (receiver, sender, count, outdeg)."""
    both = world.has_app[a] & world.has_app[b]
    x, y = world._app_index[a[both]], world._app_index[b[both]]
    n_app = world.app_ids.size
    keys, count = np.unique(np.concatenate([x * n_app + y, y * n_app + x]), return_counts=True)
    receiver, sender = np.divmod(keys, n_app)
    return receiver, sender, np.minimum(count, 65535), np.bincount(sender, minlength=n_app)


def _rows(*columns):
    """The rows of equal-length columns in lexicographic order, so equal multisets compare equal."""
    table = np.stack([np.asarray(c, dtype=np.int64) for c in columns], axis=1)
    return table[np.lexsort(table.T[::-1])]


class TestRegistration:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(30, 300), policy=st.sampled_from(["bct", "heuristic", "pct"]),
           adoption=st.floats(0.1, 0.6), days=st.integers(1, 8),
           d_max=st.integers(1, 15), seed=st.integers(0, 2**32 - 1))
    def test_pair_keys_match_the_directed_formula(self, n, policy, adoption, days, d_max, seed):
        world = init_world(_small(policy=policy, population_size=n, num_days=days,
                                  adoption_rate=adoption, d_max=d_max, rng_seed=seed,
                                  global_mobility_scale=3.75, record_encounter_log=True))
        for day in range(days):
            step_day(world)
            e = world.edges[day % world.window]
            receiver, sender, count, outdeg = _directed_registration(
                world, *world.encounter_log[day][:2])
            assert e.day == day
            assert (e.receiver.dtype, e.sender.dtype, e.count.dtype) == (np.int32, np.int32,
                                                                         np.uint16)
            assert np.array_equal(_rows(e.receiver, e.sender, e.count),
                                  _rows(receiver, sender, count))
            assert np.array_equal(world.outdeg[day % world.window], outdeg)


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
                at_publish=lambda w, day: snapshots.append(_snapshot(w, day))):
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
        everyone = core.agent_profile(world, np.arange(world.population))
        assert everyone == {a: _reference_profile(world, a) for a in range(world.population)}
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


def _progression_reference(world, day):
    """Day ``day``'s (epi_state, y) from the formula over every agent ever exposed."""
    infected = world.exposure_day >= 0
    t_mid = np.where(infected, day + 0.5 - world.exposure_day, 0.0)
    state = world.epi_state.copy()
    state[infected & (t_mid >= world.onset)] = STATE_I
    state[infected & (t_mid >= world.recovery)] = STATE_R
    y = np.zeros(world.population)
    y[infected] = virology.evl_tent(t_mid[infected], world.onset[infected], world.peak[infected],
                                    world.recovery[infected], world.peak_evl[infected])
    return state, y


# (when exposed, onset, onset to peak, peak to recovery, peak EVL): -1 never, 0 a
# seed exposed before day 0's step, e >= 1 infected in day e - 1's transmission
_COURSE = st.tuples(st.integers(-1, 30), st.floats(0.5, 4.0), st.floats(0.05, 2.0),
                    st.floats(0.05, 12.0), st.floats(0.5, 1.0))


class TestLiveProgression:
    @settings(max_examples=60, deadline=None)
    @given(courses=st.lists(_COURSE, min_size=2, max_size=40), days=st.integers(1, 40))
    # a seed that skips I on day 1, a seed at I on day 0, a day-0 infectee that
    # skips I on day 1, and agents recovered for most of 40 days
    @example(courses=[(0, 0.6, 0.1, 0.1, 1.0), (0, 0.5, 0.5, 1.0, 0.9),
                      (1, 0.5, 0.05, 0.05, 0.7), (-1, 1.0, 1.0, 1.0, 1.0)], days=40)
    def test_matches_the_all_infected_formula(self, courses, days):
        world = init_world(_small(population_size=len(courses), num_days=days,
                                  initial_exposed_fraction=0.0))
        exposed, onset, rise, fall, peak_evl = map(np.asarray, zip(*courses))
        world.onset[:], world.peak[:] = onset, onset + rise
        world.recovery[:], world.peak_evl[:] = onset + rise + fall, peak_evl
        world.epi_state[exposed == 0], world.exposure_day[exposed == 0] = STATE_E, 0
        for day in range(days):
            state, y = _progression_reference(world, day)
            got = world._phase_progression(day)
            assert world.epi_state.tolist() == state.tolist()
            assert got.tobytes() == y.tobytes()
            derived = core.ground_truth(world, np.arange(world.population), [day])[:, 0]
            assert derived.tobytes() == y.astype(np.float32).tobytes()
            infected = exposed == day + 1
            world.epi_state[infected], world.exposure_day[infected] = STATE_E, day


class TestHistoryLayout:
    def test_each_day_is_one_contiguous_block(self):
        cfg = _small(policy="pct", predictor="noisy_oracle", num_days=4)
        world = init_world(cfg)
        for _ in range(4):
            step_day(world)
        assert all(world.health_hist[:, d].flags.c_contiguous for d in range(4))
        # the level, epidemic, symptom, test and estimate histories are neither stored nor
        # built: each has one reader, or none outside the tests
        trace = run(cfg)
        for name in ("level_hist", "epi_hist", "symptom_hist", "test_hist", "yhat_hist"):
            assert not hasattr(world, name) and not hasattr(trace, name), name
        stored = {name for name in vars(trace) if name.endswith("_hist")}
        assert stored == {"health_hist"}
        # each day's estimates reach an observer as one contiguous block
        handed = []
        run(cfg, (lambda world, report, y_hat: handed.append(y_hat.flags.c_contiguous),))
        assert handed == [True] * 4

    @pytest.mark.parametrize("policy", core.POLICIES)
    def test_a_world_keeps_no_scratch_of_the_day(self, policy):
        # y, the positives and the policy levels pass from phase to phase as arguments, and
        # an asymptomatic course is a symptom onset of inf
        scratch = {"y_today", "new_positive_today", "policy_level", "asymptomatic"}
        world = init_world(_small(policy=policy, num_days=2))
        assert not scratch & set(dir(world))
        step_day(world)
        assert not scratch & set(dir(world))

    @pytest.mark.parametrize("policy", ["bct", "heuristic", "pct"])
    def test_the_encounter_phase_leaves_the_app_state_alone(self, policy):
        # today's app contacts are registered by the app pass, not while drawing encounters
        world = init_world(_small(policy=policy, num_days=4))
        for _ in range(3):
            step_day(world)
        edges, held, outdeg = list(world.edges), world.held.copy(), world.outdeg.copy()
        world._phase_encounters()
        assert all(e is f for e, f in zip(world.edges, edges, strict=True))
        assert np.array_equal(world.held, held) and np.array_equal(world.outdeg, outdeg)

    def test_the_ground_truth_is_derived_on_first_read(self):
        cfg = _small(policy="pct", predictor="noisy_oracle", num_days=6,
                     initial_exposed_fraction=0.1)
        world = init_world(cfg)
        with recorded_days() as record:
            for _ in range(6):
                step_day(world)
        truth = [y.astype(np.float32) for y in record.y]
        assert not hasattr(world, "y_hist")
        assert max(y.max() for y in truth) > 0
        trace = run(cfg)
        metrics_row(trace, 0)
        y_hist = core.ground_truth(trace, np.arange(trace.population), np.arange(6))
        assert y_hist.tobytes() == np.column_stack(truth).tobytes()
        assert not hasattr(trace, "y_hist")


class TestWhatAWorldHolds:
    def test_a_world_without_an_app_layer_holds_empty_rings(self):
        # no_tracing never reads the rings, nor does a pct world without app agents
        for cfg in (_small(num_days=4),
                    _small(policy="pct", predictor="noisy_oracle", adoption_rate=0.0, num_days=4)):
            world = init_world(cfg)
            assert not world.app_active
            for _ in range(4):
                assert world.held.shape == world.outdeg.shape == (world.window, 0)
                step_day(world)
            assert world.day == 4 and world.edge_days() == []

    def test_a_pct_world_holds_a_ring_row_per_slot(self):
        world = init_world(_small(policy="pct", predictor="noisy_oracle", num_days=4))
        shape = (world.window, world.app_ids.size)
        assert world.app_active and world.app_ids.size > 0
        assert world.held.shape == world.outdeg.shape == shape
        for _ in range(4):
            step_day(world)
        assert world.held.shape == world.outdeg.shape == shape
        assert world.outdeg.sum() == sum(e.receiver.size for e in world.edge_days()) > 0

    @pytest.mark.parametrize("policy", core.POLICIES)
    def test_day_columns_are_int32_and_events_int64(self, policy):
        world = run(_small(policy=policy, predictor="noisy_oracle"))
        for name in ("exposure_day", "iso_until", "hh_until", "bct_until"):
            assert getattr(world, name).dtype == np.int32, name
        # a gather index, a key factor and a day plus an unbounded delay stay int64
        for name in ("household_id", "_app_index", "result_day"):
            assert getattr(world, name).dtype == np.int64, name
        assert world.events.dtype == np.int64 and world.events.shape == (world.n_infected, 4)


def _write_publishing(cfg, out):
    """``write_run(cfg)`` into ``out``; the world, the estimates each day's app pass
    quantized, as float32, and the day lines of the trace, parsed."""
    with recorded_days() as record:
        trace = write_run(cfg, out / "trace.jsonl", out / "events.jsonl")
    days = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()[1:]]
    return trace, [y_hat.astype(np.float32) for y_hat in record.estimates], days


def _predictions_with_misses(path, n, days, window, seed):
    """Replay rows for every agent and day but about a fifth, some values out of [0, 1]."""
    rng = np.random.default_rng(seed)
    with open(path, "w") as fh:
        for agent, day in zip(*np.nonzero(rng.random((n, days)) >= 0.2)):
            fh.write(json.dumps({"agent_id": int(agent), "day": int(day),
                                 "y_hat": (rng.random(window) * 1.2 - 0.1).tolist()}) + "\n")


class TestWrittenEstimates:
    """The trace writes each day's estimates as the engine's app pass quantized them."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(20, 200), days=st.integers(1, 15), d_max=st.integers(1, 15),
           seed=st.integers(0, 2**32 - 1), dropouts=st.booleans(),
           source=st.sampled_from(["oracle", "noisy_oracle", "external", "heuristic"]))
    def test_each_day_is_what_the_engine_published(self, tmp_path_factory, n, days, d_max,
                                                   seed, dropouts, source):
        out = tmp_path_factory.mktemp("run")
        if source == "external":  # the file comes first: an external config names it when made
            _predictions_with_misses(out / "preds.jsonl", n, days, d_max + 1, seed)
        cfg = _small(population_size=n, num_days=days, d_max=d_max, rng_seed=seed,
                     initial_exposed_fraction=0.1, global_mobility_scale=3.75,
                     policy="heuristic" if source == "heuristic" else "pct",
                     predictor="oracle" if source == "heuristic" else source,
                     external_predictions=str(out / "preds.jsonl") if source == "external" else None,
                     record_observables=False, record_estimates=True)
        if not dropouts:
            cfg = cfg.replace(symptom_dropout=0.0, symptom_dropin=0.0,
                              quarantine_dropout_test=0.0, quarantine_dropout_household=0.0,
                              all_levels_dropout=0.0)
        trace, published, written = _write_publishing(cfg, out)
        assert len(published) == len(written) == days
        agents = trace.app_ids.astype(str).tolist()
        for y_hat, day in zip(published, written):
            assert sorted(day["y_hat"]) == sorted(agents)
            rows = np.array([day["y_hat"][agent] for agent in agents])
            assert np.array_equal(rows, np.rint(y_hat.astype(np.float64) * 1e6) / 1e6)
        assert "yhat_hist" not in vars(trace)

    def test_no_step_of_a_run_builds_the_estimate_history(self, tmp_path):
        cfg = _small(policy="pct", predictor="noisy_oracle", num_days=8,
                     initial_exposed_fraction=0.1)
        assert not hasattr(init_world(cfg), "yhat_hist")
        trace, _, _ = _write_publishing(cfg, tmp_path)
        assert "yhat_hist" not in vars(trace)
        export_training_records(trace, tmp_path / "records.jsonl")
        assert "yhat_hist" not in vars(trace)
        metrics_row(trace, 0)
        assert "yhat_hist" not in vars(trace)

    def test_a_recorded_noisy_oracle_run_predicts_once_a_day(self, tmp_path, monkeypatch):
        # the writer takes the estimates the engine drew; nothing draws them a second time
        calls, predict = [], core.predict

        def counting(world, day):
            calls.append(day)
            return predict(world, day)

        monkeypatch.setattr(core, "predict", counting)
        write_run(_small(policy="pct", predictor="noisy_oracle", num_days=7),
                  tmp_path / "trace.jsonl", tmp_path / "events.jsonl")
        assert calls == list(range(7))

    # pct unrecorded: test_estimates_skipped_when_disabled
    @pytest.mark.parametrize("cfg", [
        _small(policy="heuristic", record_estimates=False, num_days=3),
        _small(policy="bct", num_days=3),
        _small(policy="no_tracing", num_days=3),
    ], ids=["heuristic-unrecorded", "bct", "no_tracing"])
    def test_no_estimates_are_written_unless_recorded(self, cfg, tmp_path):
        _, _, written = _write_publishing(cfg, tmp_path)
        assert len(written) == 3 and not any("y_hat" in day for day in written)

    @pytest.mark.parametrize("policy", ["pct", "heuristic"])
    def test_no_app_agents_write_empty_estimates(self, policy, tmp_path):
        cfg = _small(policy=policy, adoption_rate=0.0, num_days=4, initial_exposed_fraction=0.1)
        trace, published, written = _write_publishing(cfg, tmp_path)
        assert trace.app_ids.size == 0 and published == [] and len(written) == 4
        assert all('"y_hat":{}' in line
                   for line in (tmp_path / "trace.jsonl").read_text().splitlines()[1:])

    @pytest.mark.parametrize("policy", core.POLICIES)
    def test_a_zero_day_run_writes_only_the_header(self, policy, tmp_path):
        world = write_run(_small(policy=policy, num_days=0), tmp_path / "trace.jsonl",
                          tmp_path / "events.jsonl")
        (line,) = (tmp_path / "trace.jsonl").read_text().splitlines()
        assert json.loads(line)["kind"] == "header" and json.loads(line)["num_days"] == 0
        # its events are the seeds, exposed before day 0
        assert len((tmp_path / "events.jsonl").read_text().splitlines()) == len(world.events) > 0
        assert not list(tmp_path.glob("*.partial"))

    @pytest.mark.parametrize("sigma", [0.0, -0.0, 0.1, 0.5])
    @pytest.mark.parametrize("seed", [0, 1, 7, 2024, 9001])
    def test_the_noisy_oracle_draws_numpys_normals_bit_for_bit(self, seed, sigma, monkeypatch):
        # a sigma of -0.0, which numpy's normal rejects, is stored as 0.0 and names 0.0's model
        cfg = _small(policy="pct", predictor="noisy_oracle", num_days=6, rng_seed=seed,
                     initial_exposed_fraction=0.1,
                     predictor_mul_sigma=sigma, predictor_add_sigma=sigma)
        assert not np.signbit([cfg.predictor_mul_sigma, cfg.predictor_add_sigma]).any()
        twin = cfg.replace(predictor_mul_sigma=abs(sigma), predictor_add_sigma=abs(sigma))
        assert init_world(cfg).run_id == init_world(twin).run_id
        predict, truth = core.predict, []

        def checking(world, day):
            # clip(y * (1 + N_mul) + N_add, 0, 1), drawn from a copy of the world's stream
            stream = copy.deepcopy(world.rng["predictor"])
            with mock.patch.object(world, "cfg", world.cfg.replace(predictor="oracle")):
                y = predict(world, day)
            got = predict(world, day)
            n_mul = stream.normal(0.0, abs(sigma), y.shape)
            n_add = stream.normal(0.0, abs(sigma), y.shape)
            want = np.clip(y * (1.0 + n_mul) + n_add, 0.0, 1.0)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert stream.bit_generator.state == world.rng["predictor"].bit_generator.state
            if sigma == 0.0:  # y * 0 and a draw times 0 can be -0.0; the sum is +0.0
                assert not np.signbit(got).any()
            truth.append(y.max())
            return got

        monkeypatch.setattr(core, "predict", checking)
        run(cfg)
        assert len(truth) == 6 and max(truth) > 0
