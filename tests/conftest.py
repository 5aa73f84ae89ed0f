"""Shared fixtures: the cached calibrated operating point, a memoized
policy-run grid, and the per-criterion acceptance summary printed after
the run."""

import json
import os
import re
import time

import numpy as np
import pytest

from pctsim import cli, core, metrics

TARGET_CONTACTS = 5.61
GRID_SEEDS = tuple(range(12))

_CRITERIA = {
    1: "exact oracles: R recount, message protocol properties, oracle MSE 0",
    2: "disease course landmarks (incubation 5.0, onset 2.5, recovery +14.0, peak -0.7)",
    3: "per-location contact rates at levels 0 and 3 within 3%",
    4: "calibration reaches contacts 5.61 +- 0.5 with mean R in [1.0, 1.4]",
    5: "R ordering NT > BCT > PCT at p < 0.05, PCT false quarantine below BCT",
    6: "R falls with adoption (60% < 30% < 0%) for BCT and PCT",
    7: "domain-randomized dataset pipeline, run-disjoint split, round-trip MSE 0",
}
_outcomes: dict[int, list[str]] = {}


@pytest.fixture(scope="session")
def base_config() -> core.SimConfig:
    """The frozen library defaults every acceptance experiment starts from."""
    return core.SimConfig()


@pytest.fixture(scope="session")
def calibration(request, tmp_path_factory, base_config):
    """Calibrated mobility scale and risk thresholds for the default config.

    Runs the real calibrate command once and caches the result JSON in the
    pytest cache keyed by the config hash, so repeated test sessions skip
    the sweep. Set PCTSIM_CALIB_REFRESH=1 to force a fresh calibration.
    Without the cache plugin (``-p no:cacheprovider``) every session
    calibrates afresh.
    """
    key = "pctsim/calibration-" + metrics.config_hash(base_config.to_dict())
    cache = getattr(request.config, "cache", None)
    cached = cache.get(key, None) if cache is not None else None
    if cached is not None and not os.environ.get("PCTSIM_CALIB_REFRESH"):
        return cached
    tmp = tmp_path_factory.mktemp("calibration")
    cfg_path = tmp / "config.yaml"
    cfg_path.write_text("rng_seed: 0\n")
    out_path = tmp / "calibration.json"
    start = time.monotonic()
    rc = cli.main(["calibrate", "--config", str(cfg_path), "--seeds", "0..7",
                   "--target-contacts", str(TARGET_CONTACTS),
                   "--out", str(out_path)])
    duration = time.monotonic() - start
    assert rc == 0, "calibrate command failed"
    result = json.loads(out_path.read_text())
    result["duration_s"] = duration
    if cache is not None:
        cache.set(key, result)
    return result


@pytest.fixture(scope="session")
def run_grid(base_config, calibration):
    """Memoized (policy, adoption) -> per-seed metrics at the calibrated point.

    Returns a callable; each cell holds a (len(GRID_SEEDS), 3) array of
    (contacts, R, false_quarantine) rows using the oracle predictor.
    """
    scale = calibration["mobility_scale"]
    thresholds = tuple(calibration["thresholds"])
    cells: dict[tuple, np.ndarray] = {}

    def grid(policy: str, adoption: float) -> np.ndarray:
        cell = (policy, adoption)
        if cell not in cells:
            rows = []
            for seed in GRID_SEEDS:
                cfg = base_config.replace(
                    policy=policy, predictor="oracle", adoption_rate=adoption,
                    global_mobility_scale=scale, rng_seed=seed,
                    risk_thresholds=thresholds if policy == "pct" else None,
                    record_observables=False, record_estimates=False)
                trace = core.run(cfg)
                contacts, r = metrics.pareto_point(trace)
                rows.append((contacts, r, metrics.false_quarantine_fraction(trace)))
            cells[cell] = np.asarray(rows)
        return cells[cell]

    return grid


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    match = re.search(r"criterion_(\d+)", item.name)
    if match and "acceptance" in str(item.fspath):
        num = int(match.group(1))
        if rep.when == "call":
            _outcomes.setdefault(num, []).append(rep.outcome)
        elif rep.when == "setup" and rep.outcome != "passed":
            _outcomes.setdefault(num, []).append(rep.outcome)


def pytest_terminal_summary(terminalreporter):
    if not _outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_CRITERIA):
        results = _outcomes.get(num)
        if results is None:
            status = "NOT RUN"
        elif all(r == "passed" for r in results):
            status = "PASS"
        elif any(r == "skipped" for r in results) and not any(r == "failed" for r in results):
            status = "SKIP"
        else:
            status = "FAIL"
        terminalreporter.write_line(f"criterion {num}: {status} - {_CRITERIA[num]}")
