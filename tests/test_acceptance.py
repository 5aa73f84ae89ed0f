"""End-to-end acceptance tests.

Each criterion is one test with pinned tolerances and a wall-time budget;
the per-criterion PASS/FAIL summary is printed by the conftest hook after
the run.
"""

import json
import math
import time

import numpy as np
import pytest
from conftest import random_forest, recount_r
from scipy import stats

from pctsim import cli, datagen, messaging, metrics, mobility, virology
from pctsim.core import SimConfig, run
from pctsim.metrics import estimate_r
from pctsim.tracing import evaluate_predictor

GRID_ADOPTIONS = (0.0, 0.30, 0.60)


# ---------------------------------------------------------------------------
# criterion 1: exact oracles


def _strict_thresholds(rng):
    cuts = np.sort(rng.uniform(0.0, 1.0, messaging.N_RISK_LEVELS - 1))
    for i in range(1, cuts.size):
        if cuts[i] <= cuts[i - 1]:
            cuts[i] = cuts[i - 1] + 1e-9
    return cuts


def _check_protocol_case(rng):
    """One randomized protocol case covering five properties."""
    thresholds = (messaging.DEFAULT_THRESHOLDS if rng.random() < 0.5
                  else _strict_thresholds(rng))

    # quantization is monotone
    y1, y2 = sorted(rng.uniform(0.0, 1.0, 2).tolist())
    assert messaging.quantize_risk(y1, thresholds) <= \
        messaging.quantize_risk(y2, thresholds)

    # wire format round-trips exactly
    today = int(rng.integers(16, 10_000))
    msg = messaging.RiskMessage(
        sender_token=int(rng.integers(0, 1 << 63)),
        encounter_day=today - int(rng.integers(0, 16)),
        risk_level=int(rng.integers(0, 16)))
    packed = messaging.pack_message(msg, today)
    assert len(packed) == 9
    assert messaging.unpack_message(packed, today) == msg

    # update fanout: one message per partner on exactly the changed days
    w = int(rng.integers(1, 17))
    day = int(rng.integers(w, 1000))
    book, own = {}, {}
    for k in range(w):
        d = day - k
        own[d] = int(rng.integers(1, 1 << 63))
        if rng.random() < 0.5:
            book[d] = {int(t): 1 for t in rng.integers(1, 1 << 63, rng.integers(1, 4))}
    prev = rng.uniform(0.0, 1.0, w)
    new = rng.uniform(0.0, 1.0, w)
    out = messaging.diff_and_emit(prev, new, book, thresholds, day=day, own_tokens=own)
    q_prev = messaging.quantize_risk(prev, thresholds)
    q_new = messaging.quantize_risk(new, thresholds)
    expected = sum(len(book[day - k]) for k in range(w)
                   if q_prev[k] != q_new[k] and (day - k) in book)
    assert len(out) == expected
    for rcpt, m in out:
        k = day - m.encounter_day
        assert 0 <= k < w and q_prev[k] != q_new[k]
        assert m.risk_level == int(q_new[k])
        assert m.sender_token == own[m.encounter_day]
        assert rcpt in book[m.encounter_day]

    # emission is idempotent: no change, no messages
    assert messaging.diff_and_emit(new, new, book, thresholds,
                                   day=day, own_tokens=own) == []

    # clustering preserves the message count
    pool = rng.integers(1, 6, 8).tolist()
    inbox = [messaging.RiskMessage(sender_token=int(rng.choice(pool)),
                                   encounter_day=int(rng.integers(0, 4)),
                                   risk_level=int(rng.integers(0, 16)))
             for _ in range(int(rng.integers(0, 21)))]
    clustered = messaging.cluster_inbox(inbox)
    assert sum(n for pairs in clustered.values() for _lvl, n in pairs) == len(inbox)


def test_criterion_1_exact_oracles(tmp_path):
    start = time.monotonic()

    # reproduction estimate matches a literal recount on 1000 random forests
    rng = np.random.default_rng(101)
    for _ in range(1000):
        events, recovered, window = random_forest(rng)
        expected = recount_r(events, recovered, window)
        got = estimate_r(events, recovered, window)
        assert math.isnan(got) if math.isnan(expected) \
            else got == pytest.approx(expected)

    # message protocol properties over ten thousand randomized cases
    rng = np.random.default_rng(202)
    for _ in range(10_000):
        _check_protocol_case(rng)

    # the oracle predictor reproduces exported targets with zero error
    cfg = SimConfig(population_size=300, num_days=15, rng_seed=5,
                    policy="pct", predictor="oracle",
                    global_mobility_scale=3.7, initial_exposed_fraction=0.02)
    estimates = []  # each day's, as the engine handed them to its observers, float32
    trace = run(cfg, (lambda world, report, y_hat: estimates.append(y_hat.astype(np.float32)),))
    path = tmp_path / "records.jsonl"
    datagen.export_training_records(trace, path)
    records = datagen.read_records(path)
    predictions = [{"run_id": trace.run_id, "agent_id": agent, "day": day,
                    "y_hat": estimates[day][i].tolist()}
                   for i, agent in enumerate(trace.app_ids.tolist())
                   for day in range(trace.num_days)]
    assert evaluate_predictor(records, predictions) == 0.0

    assert time.monotonic() - start < 60


# ---------------------------------------------------------------------------
# criterion 2: disease course landmarks


def test_criterion_2_disease_course_landmarks():
    start = time.monotonic()
    courses = virology.sample_disease_courses(100_000, np.random.default_rng(7))

    assert courses["symptom_onset_day"].mean() == pytest.approx(5.0, abs=0.1)
    assert courses["infectiousness_onset_day"].mean() == pytest.approx(2.5, abs=0.1)
    infectious_span = courses["recovery_day"] - courses["symptom_onset_day"]
    assert infectious_span.mean() == pytest.approx(14.0, abs=0.2)
    assert np.array_equal(courses["peak_day"],
                          courses["symptom_onset_day"] - 0.7)

    assert time.monotonic() - start < 10


# ---------------------------------------------------------------------------
# criterion 3: contact rates per location and level


def test_criterion_3_contact_rates():
    start = time.monotonic()
    n_agents, n_days = 100, 200
    rng = np.random.default_rng(13)
    for name, (c_l, alpha_l) in mobility.LOCATION_PARAMS.items():
        # everyone in one pool of this type, and in no group of the others
        index = {other: mobility.LocationIndex(np.full(n_agents, -1, dtype=np.int64))
                 for other in mobility.LOCATION_TYPES}
        index[name] = mobility.LocationIndex(np.zeros(n_agents, dtype=np.int64))
        for level, expected in ((0, c_l), (3, (1 - alpha_l) * c_l)):
            rec = np.full(n_agents, level, dtype=np.int8)
            total = 0
            for _ in range(n_days):
                a, _b, _loc, _count = mobility.generate_encounters(index, rec, 1.0, rng)
                total += a.size
            observed = 2 * total / (n_agents * n_days)
            assert observed == pytest.approx(expected, rel=0.03), \
                f"{name} level {level}: observed {observed:.3f}, expected {expected:.3f}"
    assert time.monotonic() - start < 30


# ---------------------------------------------------------------------------
# criterion 4: calibration reaches the target operating point


def test_criterion_4_calibration(calibration):
    assert abs(calibration["achieved_contacts"] - 5.61) <= 0.5
    assert 1.0 <= calibration["mean_r"] <= 1.4
    assert len(calibration["seeds"]) >= 8
    thresholds = calibration["thresholds"]
    assert len(thresholds) == 15
    assert all(b > a for a, b in zip(thresholds, thresholds[1:]))
    assert calibration["duration_s"] < 600


# ---------------------------------------------------------------------------
# criterion 5: policy ordering at the calibrated point


def test_criterion_5_policy_ordering(run_grid):
    start = time.monotonic()
    nt = run_grid("no_tracing", 0.60)
    bct = run_grid("bct", 0.60)
    pct = run_grid("pct", 0.60)

    def finite_r(cell):
        r = cell[:, 1]
        return r[np.isfinite(r)]

    nt_r, bct_r, pct_r = finite_r(nt), finite_r(bct), finite_r(pct)
    assert nt_r.mean() > bct_r.mean() > pct_r.mean()
    p_nt_bct = stats.ttest_ind(nt_r, bct_r, alternative="greater").pvalue
    p_bct_pct = stats.ttest_ind(bct_r, pct_r, alternative="greater").pvalue
    assert p_nt_bct < 0.05, f"NT > BCT not significant (p={p_nt_bct:.4f})"
    assert p_bct_pct < 0.05, f"BCT > PCT not significant (p={p_bct_pct:.4f})"

    assert pct[:, 2].mean() < bct[:, 2].mean(), "PCT should quarantine fewer healthy agents"
    assert abs(pct[:, 0].mean() - nt[:, 0].mean()) < 1.0, \
        "policies must be compared at matched contact budgets"
    assert time.monotonic() - start < 1800


# ---------------------------------------------------------------------------
# criterion 6: benefit grows with adoption


def test_criterion_6_adoption_monotonicity(run_grid):
    start = time.monotonic()
    for policy in ("bct", "pct"):
        means = [float(np.nanmean(run_grid(policy, a)[:, 1]))
                 for a in GRID_ADOPTIONS]
        assert means[0] > means[1] > means[2], \
            f"{policy}: R {means} should fall as adoption rises"
    assert time.monotonic() - start < 1800


# ---------------------------------------------------------------------------
# criterion 7: dataset generation pipeline


def _validate_record(rec, window):
    assert set(rec) == {"schema_version", "run_id", "agent_id", "day",
                        "profile", "health", "encounters", "targets"}
    assert len(rec["health"]) == window
    assert len(rec["encounters"]) == window
    assert len(rec["targets"]) == window
    assert set(rec["profile"]) == {"age_band", "sex", "conditions", "has_app"}
    for slot in rec["health"]:
        if slot is None:
            continue
        assert set(slot) == {"symptoms", "test"}
        assert slot["test"] in ("none", "pending", "positive", "negative")
    for slot in rec["encounters"]:
        if slot is None:
            continue
        for entry in slot:
            level, count = entry
            assert isinstance(level, int) and 0 <= level <= 15
            assert isinstance(count, int) and count >= 1
    for y in rec["targets"]:
        assert isinstance(y, float) and 0.0 <= y <= 1.0


def test_criterion_7_dataset_pipeline(tmp_path):
    start = time.monotonic()
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(
        "population_size: 500\nnum_days: 15\npolicy: pct\n"
        "predictor: noisy_oracle\nrng_seed: 0\n")
    out = tmp_path / "dataset"
    rc = cli.main(["datagen", "--config", str(cfg_path), "--n-runs", "6",
                   "--jobs", "1", "--out", str(out)])
    assert rc == 0

    manifest = json.loads((out / "manifest.json").read_text())
    runs = manifest["runs"]
    assert len(runs) == 6
    assert all(e["status"] == "ok" for e in runs)

    # every sampled parameter stays inside its documented range
    for entry in runs:
        for name, (lo, hi) in datagen.DR_RANGES.items():
            assert lo <= entry["config"][name] <= hi, \
                f"{name} sampled outside [{lo}, {hi}]"

    # whole-run train/validation split: 5/1, disjoint, complete
    split = manifest["split"]
    assert len(split["train"]) == 5 and len(split["valid"]) == 1
    assert set(split["train"]) & set(split["valid"]) == set()
    assert set(split["train"]) | set(split["valid"]) == \
        {e["run_id"] for e in runs}

    # schema-valid records whose targets round-trip with zero error
    for entry in runs:
        window = int(entry["config"]["d_max"]) + 1
        records = datagen.read_records(out / entry["records_file"])
        assert len(records) == entry["n_records"]
        for rec in records:
            _validate_record(rec, window)
        predictions = [{"run_id": r["run_id"], "agent_id": r["agent_id"],
                        "day": r["day"], "y_hat": r["targets"]}
                       for r in records]
        assert evaluate_predictor(records, predictions) == 0.0

    assert time.monotonic() - start < 600
