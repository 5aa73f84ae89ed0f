"""Shared fixtures and helpers: the calibrated operating point, a memoized
policy-run grid, a run's health histories, recommendation levels and the values
its phases hand on, random infection forests with a recount of R, and the
per-criterion acceptance summary printed after the run."""

import contextlib
import json
import math
import re
import time
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings

from pctsim import cli, core, metrics, mobility
from pctsim.metrics import EXTERNAL_SEED
from pctsim.virology import TEST_CODE_NAMES

# `pytest --hypothesis-profile=ci` draws the same examples on every run and
# has no per-example deadline, so a property test cannot fail on a new draw
# or a slow host.
settings.register_profile("ci", derandomize=True, deadline=None)

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


def health(world):
    """A world's ``(n, days)`` symptom masks (uint8) and test codes (int8), from the
    ``(n_app, days)`` health codes it stores; zero outside ``app_ids``, where neither
    is modeled. Tests import it as ``from conftest import health``."""
    symptoms = np.zeros((world.population, world.health_hist.shape[1]), dtype=np.uint8)
    tests = np.zeros(symptoms.shape, dtype=np.int8)
    symptoms[world.app_ids], tests[world.app_ids] = np.divmod(world.health_hist,
                                                              len(TEST_CODE_NAMES))
    return symptoms, tests


def random_forest(rng):
    """Random valid infection forest with up to 50 nodes: an int64 ``(m, 3)`` events
    array, a sorted array of recovered ids, and a window."""
    n = int(rng.integers(1, 51))
    days = np.sort(rng.integers(0, 40, n))
    events = []
    for i in range(n):
        if i == 0 or rng.random() < 0.3:
            events.append((int(days[i]), EXTERNAL_SEED, i))
        else:
            events.append((int(days[i]), int(rng.integers(0, i)), i))
    recovered = [i for i in range(n) if rng.random() < 0.5]
    window = (int(rng.integers(0, 20)), int(rng.integers(20, 41)))
    return (np.array(events, dtype=np.int64).reshape(-1, 3),
            np.array(recovered, dtype=np.int64), window)


def recount_r(events, recovered, window):
    """Literal recount of the reproduction estimate, no shared code."""
    events, recovered = events.tolist(), set(recovered.tolist())
    infector_of = {child: parent for _day, parent, child in events}
    exposed_on = {child: day for day, _parent, child in events}
    parents = [a for a in infector_of
               if infector_of[a] != EXTERNAL_SEED and a in recovered
               and window[0] <= exposed_on[a] < window[1]]
    if not parents:
        return math.nan
    wanted = set(parents)
    children = sum(1 for _day, parent, _child in events if parent in wanted)
    return children / len(parents)


@contextlib.contextmanager
def recorded_days():
    """Record what the phases of each day stepped in the block hand on, one entry a day.

    Yields a namespace of three lists: ``y``, the n-array ``_phase_progression``
    returns; ``levels``, a copy of the policy levels ``_phase_levels`` receives,
    before its escalations and dropouts; ``estimates``, a copy of the ``(n_app,
    window)`` estimates that ``core.step_day`` hands its observers, on each day it
    hands some (pct and the heuristic, with app agents). The estimates come from an
    observer that a patch of ``core.step_day`` adds, so step the days with ``run`` or
    ``core.step_day``, not a ``step_day`` imported before the block. A context
    manager rather than a fixture, so that each ``@given`` example gets its own
    record. Tests import it as ``from conftest import recorded_days``.
    """
    record = SimpleNamespace(y=[], levels=[], estimates=[])
    world_cls, step = core.WorldState, core.step_day
    progression, phase_levels = world_cls._phase_progression, world_cls._phase_levels

    def progress(world, day):
        record.y.append(progression(world, day))
        return record.y[-1]

    def levels(world, day, policy_levels):
        record.levels.append(policy_levels.copy())
        return phase_levels(world, day, policy_levels)

    def collect(world, report, estimates):
        if estimates is not None:
            record.estimates.append(np.array(estimates))

    def stepping(world, observers=()):
        return step(world, (*observers, collect))

    with (mock.patch.object(world_cls, "_phase_progression", progress),
          mock.patch.object(world_cls, "_phase_levels", levels),
          mock.patch.object(core, "step_day", stepping)):
        yield record


@contextlib.contextmanager
def recorded_levels():
    """Record the recommendation levels each day's encounters are drawn with.

    Yields a function that returns the ``(n, days)`` int8 levels of the days
    stepped in the block so far, one column per day, as the engine passed
    them to ``mobility.generate_encounters``. A context manager rather than a
    fixture, so that each ``@given`` example gets its own record. Tests
    import it as ``from conftest import recorded_levels``.
    """
    columns = []
    generate = mobility.generate_encounters

    def spy(indexes, rec_level, *args):
        columns.append(rec_level.copy())
        return generate(indexes, rec_level, *args)

    with mock.patch.object(mobility, "generate_encounters", spy):
        yield lambda: np.column_stack(columns)


@pytest.fixture(scope="session")
def base_config() -> core.SimConfig:
    """The frozen library defaults every acceptance experiment starts from."""
    return core.SimConfig()


@pytest.fixture(scope="session")
def calibration(tmp_path_factory):
    """Calibrated mobility scale and risk thresholds for the default config.

    Runs the real calibrate command once per session, never from a cache:
    the calibration must follow the engine the session tests.
    """
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
