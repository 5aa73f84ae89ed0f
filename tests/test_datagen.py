"""Domain randomization, splits, and training-record export."""

import copy
import gc
import json
from pathlib import Path

import numpy as np
import pytest
from conftest import health
from hypothesis import given, settings
from hypothesis import strategies as st

from pctsim import core, datagen
from pctsim.core import SimConfig, load_config, run
from pctsim.datagen import (
    DR_RANGES,
    RECORD_SCHEMA_VERSION,
    export_training_records,
    iter_training_records,
    make_split,
    read_records,
    sample_dr_config,
)
from pctsim.metrics import canonical_json
from pctsim.tracing import evaluate_predictor
from pctsim.virology import TEST_CODE_NAMES, symptom_names_from_mask


class TestDomainRandomization:
    def test_draws_stay_in_range(self):
        base = SimConfig()
        rng = np.random.default_rng(0)
        sums = {name: 0.0 for name in DR_RANGES}
        n = 2000
        for _ in range(n):
            cfg = sample_dr_config(base, rng)
            for name, (lo, hi) in DR_RANGES.items():
                v = getattr(cfg, name)
                assert lo <= v <= hi
                sums[name] += v
        # uniform sampling: means sit near the midpoints
        for name, (lo, hi) in DR_RANGES.items():
            mid = (lo + hi) / 2
            assert sums[name] / n == pytest.approx(mid, abs=0.05 * (hi - lo) + 1e-9)

    def test_unlisted_fields_copied_from_base(self):
        base = SimConfig(population_size=777, num_days=33, policy="pct",
                         predictor="noisy_oracle", rng_seed=5)
        cfg = sample_dr_config(base, np.random.default_rng(1))
        assert cfg.population_size == 777
        assert cfg.num_days == 33
        assert cfg.policy == "pct"
        assert cfg.rng_seed == 5

    def test_seeded_draws_reproducible(self):
        base = SimConfig()
        a = sample_dr_config(base, np.random.default_rng(9))
        b = sample_dr_config(base, np.random.default_rng(9))
        assert a == b


class TestMakeSplit:
    def test_default_fraction(self):
        runs = [f"r{i}" for i in range(240)]
        train, valid = make_split(runs)
        assert len(train) == 200 and len(valid) == 40

    def test_six_runs_split_five_one(self):
        runs = [f"r{i}" for i in range(6)]
        train, valid = make_split(runs)
        assert len(train) == 5 and len(valid) == 1

    def test_disjoint_and_complete(self):
        runs = [f"r{i}" for i in range(17)]
        train, valid = make_split(runs, seed=3)
        assert set(train) & set(valid) == set()
        assert sorted(train + valid) == sorted(runs)

    def test_deterministic_in_seed(self):
        runs = [f"r{i}" for i in range(10)]
        assert make_split(runs, seed=1) == make_split(runs, seed=1)
        assert make_split(runs, seed=1) != make_split(runs, seed=2)

    def test_needs_two_runs(self):
        with pytest.raises(ValueError):
            make_split(["only"])


def _inject_target(monkeypatch, agent, day, value):
    """Make ``core.ground_truth``, which the export reads targets from, give ``value``
    for (agent, day) whenever it is asked for them; returns the list of calls."""
    derive, asked = core.ground_truth, []

    def ground_truth(world, agents, days):
        asked.append((agents, days))
        y = derive(world, agents, days)
        y[np.ix_(np.asarray(agents) == agent, np.asarray(days) == day)] = value
        return y

    monkeypatch.setattr(core, "ground_truth", ground_truth)
    return asked


def _y_hist(trace):
    """Every agent's ``(population, num_days)`` ground truth, from the courses."""
    return core.ground_truth(trace, np.arange(trace.population), np.arange(trace.num_days))


def _one_day_short(trace):
    """A copy of a finished world whose config asks for one day more than it stepped."""
    cut = copy.copy(trace)
    cut.cfg = trace.cfg.replace(num_days=trace.num_days + 1)
    return cut


@pytest.fixture(scope="module")
def pct_trace():
    cfg = SimConfig(population_size=200, num_days=12, rng_seed=11,
                    policy="pct", predictor="oracle",
                    global_mobility_scale=3.7, initial_exposed_fraction=0.05)
    return run(cfg)


class TestExport:
    def test_record_count_is_agents_times_days(self, pct_trace, tmp_path):
        path = tmp_path / "records.jsonl"
        n = export_training_records(pct_trace, path)
        assert n == pct_trace.app_ids.size * pct_trace.num_days
        assert len(read_records(path)) == n

    def test_read_records_parses_every_line(self, pct_trace, tmp_path):
        path = tmp_path / "records.jsonl"
        export_training_records(pct_trace, path)
        text = path.read_text()
        path.write_text(text + "\n  \n")  # blank lines are skipped
        assert read_records(path) == [json.loads(line) for line in text.splitlines()]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_read_records_restores_the_collector(self, tmp_path, enabled):
        good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
        good.write_text('{"a":1}\n')
        bad.write_text('{"a":1}\n{"a":\n')
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            assert read_records(good) == [{"a": 1}]
            assert gc.isenabled() is enabled
            with pytest.raises(json.JSONDecodeError):
                read_records(bad)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_a_run_of_no_days_exports_no_records(self, tmp_path):
        trace = run(SimConfig(population_size=50, num_days=0, policy="pct"))
        path = tmp_path / "records.jsonl"
        assert export_training_records(trace, path) == 0
        assert path.read_text() == ""

    def test_record_schema(self, pct_trace):
        rec = next(iter_training_records(pct_trace))
        assert set(rec) == {"schema_version", "run_id", "agent_id", "day",
                            "profile", "health", "encounters", "targets"}
        window = int(pct_trace.config["d_max"]) + 1
        assert len(rec["health"]) == window
        assert len(rec["encounters"]) == window
        assert len(rec["targets"]) == window
        assert set(rec["profile"]) == {"age_band", "sex", "conditions",
                                       "has_app"}

    def test_targets_match_ground_truth(self, pct_trace):
        y_hist = _y_hist(pct_trace)
        for rec in iter_training_records(pct_trace):
            agent, day = rec["agent_id"], rec["day"]
            for k, target in enumerate(rec["targets"]):
                d = day - k
                expected = 0.0 if d < 0 else float(y_hist[agent, d])
                assert target == expected

    def test_privacy_no_partner_identities(self, pct_trace):
        saw_encounter = False
        for rec in iter_training_records(pct_trace):
            for slot in rec["encounters"]:
                if not slot:
                    continue
                for entry in slot:
                    saw_encounter = True
                    assert isinstance(entry, list) and len(entry) == 2
                    level, count = entry
                    assert 0 <= level <= 15 and count >= 1
        assert saw_encounter

    def test_pre_enrollment_slots_null_with_zero_targets(self, pct_trace):
        first = next(iter_training_records(pct_trace))
        assert first["day"] == 0
        assert all(h is None for h in first["health"][1:])
        assert all(e is None for e in first["encounters"][1:])
        assert all(t == 0.0 for t in first["targets"][1:])

    def test_never_infected_targets_all_zero(self, pct_trace):
        infected = set(pct_trace.events[:, 2].tolist())
        clean = [a for a in pct_trace.app_ids.tolist() if a not in infected]
        assert clean
        target_sums = {a: 0.0 for a in clean}
        for rec in iter_training_records(pct_trace):
            if rec["agent_id"] in target_sums:
                target_sums[rec["agent_id"]] += sum(rec["targets"])
        assert all(v == 0.0 for v in target_sums.values())

    def test_roundtrip_self_prediction_mse_zero(self, pct_trace, tmp_path):
        path = tmp_path / "records.jsonl"
        export_training_records(pct_trace, path)
        records = read_records(path)
        predictions = [{"run_id": r["run_id"], "agent_id": r["agent_id"],
                        "day": r["day"], "y_hat": r["targets"]}
                       for r in records]
        assert evaluate_predictor(records, predictions) == 0.0

    def test_json_roundtrip_preserves_target_bits(self, pct_trace, tmp_path):
        path = tmp_path / "records.jsonl"
        export_training_records(pct_trace, path)
        y_hist = _y_hist(pct_trace)
        for rec in read_records(path):
            agent, day = rec["agent_id"], rec["day"]
            for k, target in enumerate(rec["targets"]):
                d = day - k
                if d >= 0:
                    assert target == float(y_hist[agent, d])

    def test_observables_required(self):
        cfg = SimConfig(population_size=60, num_days=3, policy="pct",
                        predictor="oracle", record_observables=False)
        tr = run(cfg)
        with pytest.raises(ValueError):
            list(iter_training_records(tr))

    def test_a_recorded_run_without_app_agents_exports_no_records(self, tmp_path):
        trace = run(SimConfig(population_size=60, num_days=3, policy="pct",
                              predictor="oracle", adoption_rate=0.0))
        path = tmp_path / "records.jsonl"
        assert export_training_records(trace, path) == 0
        assert path.read_text() == ""
        assert list(iter_training_records(trace)) == []

    @pytest.mark.parametrize("change", [{"policy": "no_tracing"}, {"record_observables": False}])
    def test_a_run_without_app_agents_or_observables_is_rejected(self, tmp_path, change):
        cfg = SimConfig(population_size=60, num_days=3, policy="pct", predictor="oracle",
                        adoption_rate=0.0).replace(**change)
        with pytest.raises(ValueError) as err:
            export_training_records(run(cfg), tmp_path / "records.jsonl")
        assert "without observables" in str(err.value)
        assert list(tmp_path.iterdir()) == []

    def test_truncated_trace_rejected(self, pct_trace):
        class Hollow:
            config = pct_trace.config
            num_days = pct_trace.num_days
            app_ids = pct_trace.app_ids
            enc_windows = []
            run_id = pct_trace.run_id

        with pytest.raises(ValueError) as err:
            list(iter_training_records(Hollow()))
        assert "truncated" in str(err.value)

    def test_missing_last_day_rejected(self, pct_trace):
        cut = _one_day_short(pct_trace)
        with pytest.raises(ValueError) as err:
            list(iter_training_records(cut))
        assert "truncated" in str(err.value)

    def test_failed_export_leaves_no_file(self, pct_trace, tmp_path):
        cut = _one_day_short(pct_trace)
        with pytest.raises(ValueError):
            export_training_records(cut, tmp_path / "records.jsonl")
        assert list(tmp_path.iterdir()) == []

    def test_failed_export_keeps_the_previous_file(self, pct_trace, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text("previous\n")
        cut = _one_day_short(pct_trace)
        with pytest.raises(ValueError):
            export_training_records(cut, path)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_text() == "previous\n"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_rejected(self, monkeypatch, pct_trace, tmp_path, value):
        _inject_target(monkeypatch, pct_trace.app_ids[0], 3, value)
        with pytest.raises(ValueError) as err:
            export_training_records(pct_trace, tmp_path / "records.jsonl")
        assert "non-finite" in str(err.value)
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ValueError):
            next(iter_training_records(pct_trace))

    def test_non_finite_target_outside_the_app_is_not_exported(self, monkeypatch, pct_trace,
                                                               tmp_path):
        outside = np.setdiff1d(np.arange(pct_trace.population), pct_trace.app_ids)
        asked = _inject_target(monkeypatch, outside[0], 3, np.nan)
        n = export_training_records(pct_trace, tmp_path / "records.jsonl")
        assert n == pct_trace.app_ids.size * pct_trace.num_days
        assert asked

    def test_records_are_valid_json_lines(self, pct_trace, tmp_path):
        path = tmp_path / "records.jsonl"
        export_training_records(pct_trace, path)
        with open(path) as fh:
            for line in fh:
                json.loads(line)


@pytest.fixture(scope="module")
def long_trace():
    """A run longer than its window, so days leave the observation table."""
    cfg = SimConfig(population_size=200, num_days=12, d_max=4, rng_seed=11,
                    policy="heuristic", global_mobility_scale=3.7,
                    initial_exposed_fraction=0.05)
    return run(cfg)


@pytest.fixture(scope="module")
def dense_trace():
    """A crowded run: two-digit repeat counts, and app agents with an empty window."""
    cfg = SimConfig(population_size=200, num_days=12, rng_seed=11,
                    policy="pct", predictor="oracle",
                    global_mobility_scale=8.0, initial_exposed_fraction=0.05)
    return run(cfg)


class TestCanonicalLines:
    @pytest.fixture(params=["pct", "long", "dense"])
    def trace(self, request, pct_trace, long_trace, dense_trace):
        return {"pct": pct_trace, "long": long_trace, "dense": dense_trace}[request.param]

    def test_every_line_is_canonical_json(self, trace, tmp_path):
        path = tmp_path / "records.jsonl"
        n = export_training_records(trace, path)
        with open(path) as fh:
            lines = fh.readlines()
        assert len(lines) == n
        for line in lines:
            assert json.dumps(json.loads(line), sort_keys=True,
                              separators=(",", ":")) + "\n" == line

    def test_file_and_iterator_agree(self, trace, tmp_path):
        path = tmp_path / "records.jsonl"
        export_training_records(trace, path)
        assert list(iter_training_records(trace)) == read_records(path)

    def test_dense_trace_covers_wide_cells_and_empty_windows(self, dense_trace):
        windows, window = _every_days_cells(dense_trace), int(dense_trace.config["d_max"]) + 1
        assert max(int(counts.max(initial=0)) for _offsets, _levels, counts in windows) >= 10
        assert any(np.any(np.diff(offsets[::window]) == 0) for offsets, _l, _c in windows)


@pytest.fixture(scope="module")
def default_trace():
    """A recorded run of configs/default.yaml: pct, noisy oracle, 3000 agents, 50 days."""
    return run(load_config(Path(__file__).resolve().parents[1] / "configs" / "default.yaml"))


def _every_days_cells(trace):
    """Each day's ``(offsets, levels, counts)`` encounter cells, as the export reads them."""
    return [datagen._cells(trace, day) for day in range(trace.num_days)]


class TestObservationStore:
    @pytest.fixture(params=["pct", "long"])
    def trace(self, request, pct_trace, long_trace):
        return pct_trace if request.param == "pct" else long_trace

    def test_one_table_per_day(self, trace):
        window = int(trace.config["d_max"]) + 1
        assert len(trace.enc_windows) == trace.num_days
        for offsets, levels, counts in _every_days_cells(trace):
            assert offsets.dtype == np.intp
            assert offsets.shape == (trace.app_ids.size * window + 1,)
            assert levels.dtype == np.uint8 and counts.dtype == np.uint16
            assert levels.shape == counts.shape
            assert np.all(levels <= 15)

    def test_starts_bound_the_rows(self, trace):
        for offsets, levels, _counts in _every_days_cells(trace):
            assert offsets[0] == 0
            assert np.all(np.diff(offsets) >= 0)
            assert offsets[-1] == len(levels)

    def test_each_agents_rows_sorted(self, trace):
        # by (k, level, count): an agent's cells run in k order, each sorted
        for offsets, levels, counts in _every_days_cells(trace):
            cell = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
            order = np.lexsort((counts, levels, cell))
            assert np.array_equal(order, np.arange(levels.size))

    def test_log_is_a_third_of_the_daily_tables(self, default_trace):
        # each edge is logged once, where daily (k, level, count) uint16 tables
        # would copy it into every day of the window it stays in. The log also
        # keeps each day's held levels and its records' degree and level, per
        # app agent, which outweigh the edges of a sparse 200-agent run: it is
        # measured at the default operating point
        tables = sum(levels.size for _offsets, levels, _counts
                     in _every_days_cells(default_trace)) * 6
        kept = sum(e.receiver.nbytes + e.sender.nbytes + e.count.nbytes + e.degree.nbytes
                   + e.level.nbytes + held.nbytes for e, held in default_trace.enc_windows)
        assert 0 < 3 * kept <= tables

    def test_offsets_stay_in_the_window(self, trace):
        d_max = int(trace.config["d_max"])
        top = 0
        for day, (offsets, _levels, _counts) in enumerate(_every_days_cells(trace)):
            slots = np.flatnonzero(np.diff(offsets)) % (d_max + 1)  # k of each held cell
            assert np.all(slots <= min(day, d_max))
            top = max(top, int(slots.max(initial=0)))
        assert top == min(trace.num_days - 1, d_max)


def _histories(trace):
    """Every agent's symptom masks, test codes and ground truth, ``(population, num_days)``."""
    return (*health(trace), _y_hist(trace))


def _reference_line(trace, histories, i, day, offsets, levels, counts):
    """One record built as a dict from the trace's ``_histories`` and that day's cells."""
    symptom_hist, test_hist, y_hist = histories
    window = int(trace.config["d_max"]) + 1
    agent = int(trace.app_ids[i])
    health, encounters, targets = [], [], []
    for k in range(window):
        d = day - k
        if d < 0:
            health.append(None)
            encounters.append(None)
            targets.append(0.0)
            continue
        health.append({"symptoms": symptom_names_from_mask(int(symptom_hist[agent, d])),
                       "test": TEST_CODE_NAMES[int(test_hist[agent, d])]})
        lo, hi = offsets[i * window + k], offsets[i * window + k + 1]
        encounters.append([list(cell) for cell in zip(levels[lo:hi].tolist(),
                                                      counts[lo:hi].tolist())])
        targets.append(float(y_hist[agent, d]))
    record = {"schema_version": RECORD_SCHEMA_VERSION, "run_id": trace.run_id,
              "agent_id": agent, "day": day, "profile": core.agent_profile(trace, [agent])[agent],
              "health": health, "encounters": encounters, "targets": targets}
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


class TestRenderer:
    def test_each_distinct_profile_is_rendered_once(self, monkeypatch, pct_trace, tmp_path):
        rendered = []

        def canonical(obj):
            rendered.append(obj)
            return canonical_json(obj)

        monkeypatch.setattr(datagen, "canonical_json", canonical)
        export_training_records(pct_trace, tmp_path / "records.jsonl")
        profiles = [obj for obj in rendered if isinstance(obj, dict)]
        distinct = {json.dumps(p, sort_keys=True) for p in core.agent_profile(pct_trace, pct_trace.app_ids).values()}
        assert len(profiles) == len(distinct) < pct_trace.app_ids.size
        assert {json.dumps(p, sort_keys=True) for p in profiles} == distinct

    @pytest.mark.parametrize("d_max,num_days", [(1, 6), (4, 3), (4, 12), (15, 12), (15, 20)])
    def test_lines_match_the_reference_records(self, monkeypatch, tmp_path, d_max, num_days):
        cfg = SimConfig(population_size=150, num_days=num_days, d_max=d_max, rng_seed=3,
                        policy="pct", predictor="oracle",
                        global_mobility_scale=3.7, initial_exposed_fraction=0.05)
        trace = run(cfg)
        n_app = trace.app_ids.size
        assert n_app > 7 and n_app % 7 != 0
        monkeypatch.setattr(datagen, "_AGENT_BLOCK", 7)  # blocks end mid-day
        path = tmp_path / "records.jsonl"
        export_training_records(trace, path)
        with open(path) as fh:
            lines = fh.readlines()
        assert len(lines) == n_app * num_days
        saw_cells = saw_empty_first_slot = saw_one_cell = saw_no_cells = saw_short_day = False
        histories = _histories(trace)
        for day, cells in enumerate(_every_days_cells(trace)):
            offsets = cells[0]
            saw_cells |= offsets[-1] > 0
            saw_short_day |= day < d_max
            for i in range(n_app):
                slots = np.diff(offsets[i * (d_max + 1):(i + 1) * (d_max + 1) + 1])
                saw_empty_first_slot |= slots[0] == 0 and slots.any()
                saw_one_cell |= bool(np.any(slots == 1))
                saw_no_cells |= not slots.any()
                assert lines[day * n_app + i] == _reference_line(trace, histories, i, day, *cells)
        assert saw_cells and saw_empty_first_slot and saw_one_cell and saw_no_cells and saw_short_day

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(40, 150), num_days=st.integers(1, 20), d_max=st.integers(1, 15),
           policy=st.sampled_from(["pct", "heuristic", "bct"]), block=st.integers(1, 9),
           seed=st.integers(0, 2**16))
    def test_small_worlds_match_the_reference_records(self, n, num_days, d_max, policy,
                                                      block, seed):
        cfg = SimConfig(population_size=n, num_days=num_days, d_max=d_max, rng_seed=seed,
                        policy=policy, predictor="oracle", global_mobility_scale=3.7,
                        initial_exposed_fraction=0.05)
        trace = run(cfg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(datagen, "_AGENT_BLOCK", block)
            lines = "".join(text for _n, text in datagen._render_days(trace)).splitlines(True)
        n_app = trace.app_ids.size
        assert len(lines) == n_app * num_days
        histories = _histories(trace)
        for day, cells in enumerate(_every_days_cells(trace)):
            for i in range(n_app):
                assert lines[day * n_app + i] == _reference_line(trace, histories, i, day, *cells)


class TestWindowRendering:
    @pytest.mark.parametrize("columns,dtype", [(1, np.uint8), (5, np.uint8), (16, np.uint16)])
    def test_one_string_per_distinct_row(self, columns, dtype):
        rng = np.random.default_rng(columns)
        text = np.array([f"t{i}" for i in range(300)], dtype=object)
        codes = rng.integers(0, 3, size=(40, columns)).astype(dtype)
        codes[:, 0] += min(text.size, np.iinfo(dtype).max + 1) - 3  # the dtype's top codes
        codes = np.concatenate((codes, codes[::3]))  # duplicate rows
        last = codes[:2].copy()
        last[1, 0] ^= 1  # reversed below: two rows that differ only in their last slot
        codes = rng.permutation(np.concatenate((codes, last)))[:, ::-1]  # newest-first view
        strings, inverse = datagen._render_windows(codes, text)
        assert [strings[j] for j in inverse] == [",".join(text[row]) for row in codes]
        assert len(strings) == len(set(strings)) == len({tuple(row) for row in codes.tolist()})

    def test_text_before_and_after_each_window(self):
        text = np.array(["a", "b"], dtype=object)
        strings, inverse = datagen._render_windows(np.array([[1, 0], [1, 0], [0, 0]]),
                                                   text, "<", ">")
        assert strings[inverse].tolist() == ["<b,a>", "<b,a>", "<a,a>"]
