"""World state, configuration, and the daily simulation loop.

A run is strictly sequential: one day at a time, six phases per day in a
fixed order (disease progression, encounter generation, transmission
trials, testing, app pass, recommendation-level update). All randomness
flows from named generator streams spawned from the config seed, so equal
(config, seed) pairs reproduce byte-identical traces.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import json
from dataclasses import dataclass

import numpy as np
import yaml

from . import messaging, mobility, tracing, virology
from .metrics import EXTERNAL_SEED, STATE_E, STATE_I, STATE_R, STATE_S, config_hash
from .observations import ObservationLog
from .virology import TEST_NEGATIVE, TEST_NONE, TEST_PENDING, TEST_POSITIVE

POLICIES = ("no_tracing", "bct", "heuristic", "pct")
PREDICTORS = ("oracle", "noisy_oracle", "external")

_NAME_ALIASES = {
    "notracing": "no_tracing", "no-tracing": "no_tracing", "nt": "no_tracing",
    "noisyoracle": "noisy_oracle", "noisy-oracle": "noisy_oracle",
}

# Demographic defaults (documented constants; the profile fields are
# exported but do not modulate disease dynamics).
HOUSEHOLD_SIZE_DIST = ((1, 0.22), (2, 0.33), (3, 0.17), (4, 0.18), (5, 0.10))
AGE_BAND_NAMES = ("child", "adult", "senior")
AGE_BAND_DIST = (0.20, 0.62, 0.18)
SCHOOL_SIZE = 30
WORKPLACE_SIZE = 20
CONDITION_NAMES = ("diabetes", "heart_disease", "immunosuppressed", "asthma")
# P(condition) per age band (child, adult, senior).
CONDITION_PREVALENCE = (
    (0.01, 0.08, 0.20),
    (0.005, 0.05, 0.15),
    (0.03, 0.03, 0.03),
    (0.10, 0.10, 0.10),
)

QUARANTINE_DAYS = 14
TRACE_SCHEMA_VERSION = 1

# glibc's mallopt parameters (malloc.h) and the values _keep_heap sets
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 16 << 20
_TRIM_THRESHOLD = 64 << 20

# "messaging" draws nothing; it keeps its place so "predictor" keeps its seed.
_RNG_STREAMS = (
    "demographics", "disease", "mobility", "transmission",
    "testing", "behavior", "messaging", "predictor",
)


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


def _read(name, convert, value, expected):
    """``convert(value)``; a value it cannot convert is a ConfigError naming the field."""
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name}: must be {expected}, got {value!r}") from None


def _number(name, value):
    """``float(value)``; a string, a bool or a value float() rejects is a ConfigError."""
    if isinstance(value, (str, bool)):
        raise ConfigError(f"{name}: must be a number, got {value!r}")
    return _read(name, float, value, "a number")


def _fraction(name, value):
    if not 0.0 <= _number(name, value) <= 1.0:
        raise ConfigError(f"{name}: must be in [0, 1], got {value!r}")


def _integer(name, value):
    number = _number(name, value)
    if not number.is_integer():  # NaN and inf fail too
        raise ConfigError(f"{name}: must be an integer, got {value!r}")
    return int(number)


def _non_negative(name, value):
    if not 0.0 <= _number(name, value) < np.inf:  # NaN fails too
        raise ConfigError(f"{name}: must be finite and >= 0, got {value!r}")


def _numbers(name, values, entry):
    """The entries of a list field, each read by ``entry``; a string is a ConfigError."""
    if isinstance(values, str):
        raise ConfigError(f"{name}: must be a list, got {values!r}")
    return tuple(entry(name, v) for v in _read(name, list, values, "a list"))


@dataclass
class SimConfig:
    """All tunables for one run. Field names match the config file keys."""

    population_size: int = 3000
    num_days: int = 50
    adoption_rate: float = 0.60
    smartphone_rate: float = 0.712
    global_mobility_scale: float = 1.0
    initial_exposed_fraction: float = 0.004
    carefulness: float = 0.65
    symptom_dropout: float = 0.25
    symptom_dropin: float = 0.0005
    quarantine_dropout_test: float = 0.02
    quarantine_dropout_household: float = 0.035
    all_levels_dropout: float = 0.03
    test_delay_days: int = 2
    test_false_negative_rate: float = 0.10
    d_max: int = 14
    policy: str = "no_tracing"
    predictor: str = "oracle"
    predictor_add_sigma: float = 0.10
    predictor_mul_sigma: float = 0.50
    external_predictions: str | None = None
    rng_seed: int = 0
    # Documented extras beyond the core parameter set.
    transmission_base_rate: float = 0.066
    bct_quarantine_level: int = 4
    psi_table: tuple = tracing.DEFAULT_PSI
    risk_thresholds: tuple | None = None
    record_observables: bool = True
    record_estimates: bool = True
    record_encounter_log: bool = False

    def __post_init__(self):
        self.policy = _NAME_ALIASES.get(str(self.policy).lower(), str(self.policy).lower())
        self.predictor = _NAME_ALIASES.get(str(self.predictor).lower(), str(self.predictor).lower())
        self.psi_table = _numbers("psi_table", self.psi_table, _integer)
        if self.risk_thresholds is not None:
            self.risk_thresholds = _numbers("risk_thresholds", self.risk_thresholds, _number)

    def validate(self) -> "SimConfig":
        if _integer("population_size", self.population_size) < 2:
            raise ConfigError(f"population_size: must be >= 2, got {self.population_size}")
        if _integer("num_days", self.num_days) < 0:
            raise ConfigError(f"num_days: must be >= 0, got {self.num_days}")
        for name in ("adoption_rate", "smartphone_rate", "initial_exposed_fraction",
                     "carefulness", "symptom_dropout", "symptom_dropin",
                     "quarantine_dropout_test", "quarantine_dropout_household",
                     "all_levels_dropout", "test_false_negative_rate",
                     "transmission_base_rate"):
            _fraction(name, getattr(self, name))
        if self.adoption_rate > self.smartphone_rate:
            raise ConfigError(
                f"adoption_rate: {self.adoption_rate} exceeds smartphone_rate "
                f"{self.smartphone_rate}; app users are a subset of smartphone owners")
        _non_negative("global_mobility_scale", self.global_mobility_scale)
        if _integer("test_delay_days", self.test_delay_days) < 0:
            raise ConfigError(f"test_delay_days: must be >= 0, got {self.test_delay_days}")
        if _integer("rng_seed", self.rng_seed) < 0:
            raise ConfigError(f"rng_seed: must be >= 0, got {self.rng_seed}")
        if not 1 <= _integer("d_max", self.d_max) <= 15:
            raise ConfigError(f"d_max: must be in 1..15 (a 4-bit day offset), got {self.d_max}")
        if self.policy not in POLICIES:
            raise ConfigError(f"policy: unknown value {self.policy!r}, expected one of {POLICIES}")
        if self.predictor not in PREDICTORS:
            raise ConfigError(f"predictor: unknown value {self.predictor!r}, expected one of {PREDICTORS}")
        for name in ("predictor_add_sigma", "predictor_mul_sigma"):
            _non_negative(name, getattr(self, name))
        if self.predictor == "external" and self.policy == "pct" and not self.external_predictions:
            raise ConfigError("external_predictions: required when predictor is 'external'")
        if not 0 <= _integer("bct_quarantine_level", self.bct_quarantine_level) <= 4:
            raise ConfigError(f"bct_quarantine_level: must be in 0..4, got {self.bct_quarantine_level}")
        if len(self.psi_table) != messaging.N_RISK_LEVELS:
            raise ConfigError(f"psi_table: needs {messaging.N_RISK_LEVELS} entries")
        if any(not 0 <= v <= 4 for v in self.psi_table):
            raise ConfigError("psi_table: entries must be recommendation levels 0..4")
        if self.risk_thresholds is not None:
            cuts = np.asarray(self.risk_thresholds, dtype=np.float64)
            if cuts.shape != (messaging.N_RISK_LEVELS - 1,):
                raise ConfigError(f"risk_thresholds: needs {messaging.N_RISK_LEVELS - 1} cut points")
            if not np.all(np.diff(cuts) > 0):
                raise ConfigError("risk_thresholds: cut points must be strictly increasing")
        return self

    def replace(self, **kwargs) -> "SimConfig":
        return dataclasses.replace(self, **kwargs)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["psi_table"] = list(self.psi_table)
        if self.risk_thresholds is not None:
            out["risk_thresholds"] = list(self.risk_thresholds)
        return out

    @classmethod
    def from_mapping(cls, mapping) -> "SimConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(mapping) - known)
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
        return cls(**mapping)


def load_config(path) -> SimConfig:
    """Read a flat key-value config file (YAML or JSON) into a SimConfig."""
    with open(path) as fh:
        data = yaml.safe_load(fh)
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must contain a flat mapping")
    return SimConfig.from_mapping(data)


@dataclass
class InfectionEvent:
    day: int
    infector: int  # EXTERNAL_SEED (-1) for seeded cases
    infectee: int
    location: str


@dataclass
class DayReport:
    day: int
    s: int
    e: int
    i: int
    r: int
    new_cases: int
    cum_cases: int
    encounters: int
    quarantined: int
    quarantined_healthy: int
    tests_ordered: int
    positives: int
    messages: int


@dataclass
class EdgeDay:
    """One day of directed app contacts, one row per (receiver, sender) pair.

    Receiver and sender are int32 indexes into ``app_ids``; ``count`` is the pair's
    number of encounters that day, clipped to 65535 in uint16. The level the
    receiver holds depends only on (sender, day): see ``WorldState.held_levels``.
    """

    day: int
    receiver: np.ndarray
    sender: np.ndarray
    count: np.ndarray


@dataclass(eq=False, kw_only=True)
class SimulationTrace:
    """Immutable record of one completed run.

    ``enc_windows`` (observables recording) is the run's
    ``ObservationLog``: each day's app edges once, plus that day's held
    levels over app senders. ``enc_windows[d]`` cuts day d's
    ``(offsets, levels, counts)`` cells from it: the (level, count) rows
    that app agent ``app_ids[i]`` holds for its contacts of ``k`` days
    before d are cell ``i * window + k``.

    ``yhat_hist`` (estimates recording) is ``(n_app, num_days, window)``
    float32: row i holds the estimates of app agent ``app_ids[i]``.

    ``age_band``, ``sex`` and ``conditions`` are the demographic codes of
    every agent, indexed by agent id; ``agent_profile`` reads them.
    """

    config: dict
    run_id: str
    population: int
    num_days: int
    app_ids: np.ndarray
    age_band: np.ndarray
    sex: np.ndarray
    conditions: np.ndarray
    initial_counts: dict
    day_reports: list
    events: list
    epi_hist: np.ndarray
    level_hist: np.ndarray
    y_hist: np.ndarray
    symptom_hist: np.ndarray
    test_hist: np.ndarray
    enc_windows: ObservationLog | None = None
    yhat_hist: np.ndarray | None = None
    encounter_log: list | None = None

    def recovered_ids(self):
        """Agents recovered at the end of the run; none after 0 days."""
        return set(np.flatnonzero(self.epi_hist[:, -1:] == STATE_R).tolist())

    def write(self, trace_path, events_path):
        """Persist the trace as day-record JSONL plus an event JSONL."""
        dump = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
        header = {"kind": "header", "schema_version": TRACE_SCHEMA_VERSION, "run_id": self.run_id,
                  "population": self.population, "num_days": self.num_days,
                  "initial_counts": self.initial_counts, "config": self.config}
        agents = None if self.yhat_hist is None else self.app_ids.astype(str).tolist()
        with open(trace_path, "w") as fh:
            fh.write(dump(header) + "\n")
            for report in self.day_reports:
                rec = {"kind": "day", **dataclasses.asdict(report)}
                if agents is not None:
                    # round(float(v), 6) bit for bit: float32 * 1e6 is exact in float64, rint
                    # ties to even; one day at a time, as the whole history is 108 MB at 30k
                    y_hat = self.yhat_hist[:, report.day].astype(np.float64)
                    rec["y_hat"] = dict(zip(agents, (np.rint(y_hat * 1e6) / 1e6).tolist()))
                fh.write(dump(rec) + "\n")
        with open(events_path, "w") as fh:
            # the bytes of dump(asdict(ev)); location names need no escaping
            fh.writelines('{"day":%d,"infectee":%d,"infector":%d,"location":"%s"}\n'
                          % (ev.day, ev.infectee, ev.infector, ev.location) for ev in self.events)


class WorldState:
    """Mutable state of a running simulation (one logical thread)."""

    def __init__(self, cfg: SimConfig):
        cfg.validate()
        self.cfg = cfg
        self.n = int(cfg.population_size)
        self.window = int(cfg.d_max) + 1
        self.day = 0
        seq = np.random.SeedSequence(int(cfg.rng_seed))
        self.rng = {name: np.random.default_rng(child)
                    for name, child in zip(_RNG_STREAMS, seq.spawn(len(_RNG_STREAMS)))}
        # fitted cut points are for the pct predictor; the heuristic's
        # 0.25-step scores stay on the uniform grid
        fitted = cfg.policy == "pct" and cfg.risk_thresholds is not None
        self.quantize = messaging.RiskQuantizer(
            cfg.risk_thresholds if fitted else messaging.DEFAULT_THRESHOLDS)
        self.psi = np.asarray(cfg.psi_table, dtype=np.int8)

        self._build_population()
        self._init_epi()
        self._init_app_state()
        self._init_trace_buffers()

    # ------------------------------------------------------------------
    # initialization

    def _build_population(self):
        rng = self.rng["demographics"]
        n = self.n

        # choice(size=k) draws what k single choices would. n draws bound the
        # household count; rewinding and drawing exactly the households that
        # cover n leaves the stream where one draw per household would.
        sizes, probs = zip(*HOUSEHOLD_SIZE_DIST)
        state = rng.bit_generator.state
        cover = np.cumsum(rng.choice(sizes, size=n, p=probs))
        n_hh = int(np.searchsorted(cover, n)) + 1
        rng.bit_generator.state = state
        hh_sizes = rng.choice(sizes, size=n_hh, p=probs)
        hh_sizes[-1] -= cover[n_hh - 1] - n  # the last household takes who is left
        perm = rng.permutation(n)
        self.household_id = np.zeros(n, dtype=np.int64)
        self.household_id[perm] = np.repeat(np.arange(n_hh), hh_sizes)

        self.age_band = rng.choice(3, size=n, p=AGE_BAND_DIST).astype(np.int8)
        self.sex = rng.integers(0, 2, n, dtype=np.int8)
        self.conditions = np.zeros(n, dtype=np.uint8)
        for bit, prevalence in enumerate(CONDITION_PREVALENCE):
            p = np.asarray(prevalence)[self.age_band]
            self.conditions |= (rng.random(n) < p).astype(np.uint8) << bit

        def partition(ids, group_size):
            group_of = np.full(n, -1, dtype=np.int64)
            group_of[rng.permutation(ids)] = np.arange(ids.size) // group_size
            return group_of

        school_of = partition(np.flatnonzero(self.age_band == 0), SCHOOL_SIZE)
        workplace_of = partition(np.flatnonzero(self.age_band == 1), WORKPLACE_SIZE)

        n_phone = int(round(self.cfg.smartphone_rate * n))
        phones = rng.choice(n, size=n_phone, replace=False)
        self.has_phone = np.zeros(n, dtype=bool)
        self.has_phone[phones] = True
        n_app = int(round(self.cfg.adoption_rate * n))
        app = rng.choice(np.sort(phones), size=n_app, replace=False) if n_app else np.zeros(0, dtype=np.int64)
        self.app_ids = np.sort(app.astype(np.int64))
        self._app_index = np.full(n, -1, dtype=np.int64)  # agent id -> app index, -1: none
        self._app_index[self.app_ids] = np.arange(n_app)
        self.has_app = self._app_index >= 0

        self.loc_indexes = {
            "household": mobility.LocationIndex(self.household_id),
            "workplace": mobility.LocationIndex(workplace_of),
            "school": mobility.LocationIndex(school_of),
            "other": mobility.LocationIndex(np.zeros(n, dtype=np.int64)),
        }

    def _init_epi(self):
        n = self.n
        self.epi_state = np.full(n, STATE_S, dtype=np.int8)
        self.exposure_day = np.full(n, -1, dtype=np.int64)
        self.onset = np.full(n, np.nan)
        self.symptom_onset = np.full(n, np.nan)
        self.peak = np.full(n, np.nan)
        self.recovery = np.full(n, np.nan)
        self.peak_evl = np.full(n, np.nan)
        self.asymptomatic = np.zeros(n, dtype=bool)
        self.symptom_mask = np.zeros(n, dtype=np.uint8)
        self.rec_level = np.ones(n, dtype=np.int8)
        self.events: list[InfectionEvent] = []

        n_seed = int(round(self.cfg.initial_exposed_fraction * n))
        seeds = np.sort(self.rng["disease"].choice(n, size=n_seed, replace=False)) if n_seed else np.zeros(0, dtype=np.int64)
        self._expose(seeds, day=0, infectors=None, locations=None)

        # testing state (symptoms and tests are modeled for app agents)
        self.test_code = np.full(n, TEST_NONE, dtype=np.int8)
        self.result_day = np.full(n, -1, dtype=np.int64)
        self.infected_at_order = np.zeros(n, dtype=bool)
        self.episode_attempted = np.zeros(n, dtype=bool)
        self.reported_any_prev = np.zeros(n, dtype=bool)
        self.new_positive_today = np.zeros(n, dtype=bool)

        # escalation timers: the last day the timer governs, -1 once quit
        self.iso_until = np.full(n, -1, dtype=np.int64)
        self.hh_until = np.full(n, -1, dtype=np.int64)
        self.bct_until = np.full(n, -1, dtype=np.int64)

    def _init_app_state(self):
        cfg = self.cfg
        self.app_active = cfg.policy != "no_tracing" and self.app_ids.size > 0
        shape = (self.app_ids.size, self.window)
        # rings over slot day % window: the edges, and per (app sender, slot) the
        # level it last sent for that day, which its partners hold, and the partner count
        self.edges: list[EdgeDay | None] = [None] * self.window
        self.held = np.full(shape, self.quantize(0.0), dtype=np.int8)
        self.outdeg = np.zeros(shape, dtype=np.int32)
        self.bct_flag = np.zeros(self.n, dtype=bool)
        self.bct_broadcast_done = np.zeros(self.app_ids.size, dtype=bool)
        self.external = (tracing.ExternalPredictor(cfg.external_predictions, self.app_ids,
                                                   int(cfg.num_days), self.window)
                         if cfg.policy == "pct" and cfg.predictor == "external" else None)

    def _init_trace_buffers(self):
        n, days = self.n, int(self.cfg.num_days)
        self.epi_hist = np.zeros((n, days), dtype=np.int8)
        self.level_hist = np.zeros((n, days), dtype=np.int8)
        self.y_hist = np.zeros((n, days), dtype=np.float32)
        self.symptom_hist = np.zeros((n, days), dtype=np.uint8)
        self.test_hist = np.zeros((n, days), dtype=np.int8)
        self.day_reports: list[DayReport] = []
        self.enc_windows = (ObservationLog(self.app_ids.size, self.window)
                            if self.cfg.record_observables and self.app_active else None)
        record_estimates = (self.cfg.record_estimates
                            and self.cfg.policy in ("pct", "heuristic") and days > 0)
        self.yhat_hist = (np.zeros((self.app_ids.size, days, self.window), dtype=np.float32)
                          if record_estimates else None)
        self.encounter_log = [] if self.cfg.record_encounter_log else None
        counts = np.bincount(self.epi_state, minlength=4)
        self.initial_counts = {"s": int(counts[STATE_S]), "e": int(counts[STATE_E]),
                               "i": int(counts[STATE_I]), "r": int(counts[STATE_R])}

    # ------------------------------------------------------------------
    # helpers

    def _expose(self, agents, day, infectors, locations):
        """Mark agents Exposed at ``day`` and sample their disease courses."""
        agents = np.asarray(agents, dtype=np.int64)
        if agents.size == 0:
            return
        if np.any(self.epi_state[agents] != STATE_S):
            raise RuntimeError("infection event targets a non-susceptible agent")
        courses = virology.sample_disease_courses(agents.size, self.rng["disease"])
        self.epi_state[agents] = STATE_E
        self.exposure_day[agents] = day
        self.onset[agents] = courses["infectiousness_onset_day"]
        self.symptom_onset[agents] = courses["symptom_onset_day"]
        self.peak[agents] = courses["peak_day"]
        self.recovery[agents] = courses["recovery_day"]
        self.peak_evl[agents] = courses["peak_evl"]
        self.asymptomatic[agents] = courses["is_asymptomatic"]
        self.symptom_mask[agents] = courses["symptom_mask"]
        for i, agent in enumerate(agents.tolist()):
            if infectors is None:
                self.events.append(InfectionEvent(day, EXTERNAL_SEED, agent, "external"))
            else:
                self.events.append(InfectionEvent(
                    day, int(infectors[i]), agent, mobility.LOCATION_TYPES[int(locations[i])]))

    def ground_truth_window(self, day) -> np.ndarray:
        """(n_app, window) matrix of app agents' y values, newest-first, zero before day 0."""
        out = np.zeros((self.app_ids.size, self.window), dtype=np.float64)
        span = min(day + 1, self.window)
        out[:, :span] = self.y_hist[self.app_ids, day + 1 - span:day + 1][:, ::-1]
        return out

    def edge_days(self) -> list[EdgeDay]:
        """The edge tables of the window's days, in ring order."""
        return [e for e in self.edges if e is not None]

    def held_levels(self, e: EdgeDay) -> np.ndarray:
        """The level each receiver of ``e`` holds for its sender."""
        return self.held[e.sender, e.day % self.window]

    def observables_for(self, day):
        """The heuristic's evidence for every app agent as of ``day``.

        Returns three arrays over ``app_ids``: a positive test anywhere in
        the window, the number of symptoms reported today, and the highest
        risk level held from any contact in the window.
        """
        app = self.app_ids
        tests = self.test_hist[app, max(day - self.cfg.d_max, 0):day + 1]
        has_positive = np.any(tests == TEST_POSITIVE, axis=1)
        n_symptoms = np.unpackbits(self.symptom_hist[app, day][:, None], axis=1).sum(axis=1)
        # held's dtype: np.maximum.at is ~30x slower when the dtypes differ
        top = np.zeros(app.size, dtype=np.int8)
        for e in self.edge_days():
            np.maximum.at(top, e.receiver, self.held_levels(e))
        return has_positive, n_symptoms, top.astype(np.int64)

    # ------------------------------------------------------------------
    # the six daily phases

    def _phase_progression(self, day):
        infected = self.exposure_day >= 0
        t_mid = np.where(infected, day + 0.5 - self.exposure_day, 0.0)
        state = self.epi_state.copy()
        state[infected & (t_mid >= self.onset)] = STATE_I
        state[infected & (t_mid >= self.recovery)] = STATE_R
        # forward-only transitions: t_mid grows with day, thresholds fixed
        self.epi_state = state
        y = np.zeros(self.n)
        y[infected] = virology.evl_tent(
            t_mid[infected], self.onset[infected], self.peak[infected],
            self.recovery[infected], self.peak_evl[infected])
        self.y_today = y
        self.y_hist[:, day] = y

    def _phase_encounters(self, day):
        self.level_hist[:, day] = self.rec_level
        a, b, loc = mobility.generate_encounters(
            self.loc_indexes, self.rec_level, self.cfg.global_mobility_scale,
            self.rng["mobility"])
        if self.encounter_log is not None:
            self.encounter_log.append((a.copy(), b.copy(), loc.copy()))
        if self.app_active:
            self._register_app_contacts(a, b, day)
        return a, b, loc

    def _register_app_contacts(self, a, b, day):
        """Today's app-pair encounters, both directions, replace the oldest day.

        Each receiver starts out holding the level the sender last sent for
        yesterday. An update sent yesterday to the replaced day is dropped.
        """
        both = self.has_app[a] & self.has_app[b]
        x, y = self._app_index[a[both]], self._app_index[b[both]]
        n_app = self.app_ids.size
        keys, count = np.unique(np.concatenate([x * n_app + y, y * n_app + x]),
                                return_counts=True)
        receiver, sender = np.array(np.divmod(keys, n_app), dtype=np.int32)
        slot = day % self.window
        self.edges[slot] = EdgeDay(day, receiver, sender, np.minimum(count, 65535).astype(np.uint16))
        self.held[:, slot] = self.held[:, (day - 1) % self.window]
        self.outdeg[:, slot] = np.bincount(sender, minlength=n_app)

    def _phase_transmission(self, day, a, b, loc):
        cfg = self.cfg
        rng = self.rng["transmission"]
        new_cases = 0
        cand_infectee, cand_infector, cand_loc = [], [], []
        for src, dst in ((a, b), (b, a)):
            mask = (self.epi_state[src] == STATE_I) & (self.epi_state[dst] == STATE_S)
            if not mask.any():
                continue
            p = virology.transmission_probability(
                self.y_today[src[mask]], cfg.transmission_base_rate, 1.0, cfg.carefulness)
            hit = rng.random(p.size) < p
            cand_infectee.append(dst[mask][hit])
            cand_infector.append(src[mask][hit])
            cand_loc.append(loc[mask][hit])
        if cand_infectee:
            infectees = np.concatenate(cand_infectee)
            infectors = np.concatenate(cand_infector)
            locs = np.concatenate(cand_loc)
            # one infection per agent per day: the first successful trial wins
            _, first = np.unique(infectees, return_index=True)
            first.sort()
            self._expose(infectees[first], day, infectors[first], locs[first])
            new_cases = first.size
        return new_cases

    def _phase_testing(self, day):
        cfg = self.cfg
        rng = self.rng["testing"]
        n = self.n
        self.new_positive_today[:] = False

        t_mid = np.where(self.exposure_day >= 0, day + 0.5 - self.exposure_day, -1.0)
        symptomatic = (self.has_app & (self.y_today > 0) & ~self.asymptomatic
                       & (t_mid >= self.symptom_onset))
        reported = np.zeros(n, dtype=np.uint8)
        idx = np.flatnonzero(symptomatic)
        if idx.size:
            keep = rng.random((idx.size, len(virology.SYMPTOM_NAMES))) >= cfg.symptom_dropout
            reported[idx] = self.symptom_mask[idx] & np.packbits(keep, axis=1, bitorder="little")[:, 0]
        n_app = self.app_ids.size
        if n_app and cfg.symptom_dropin > 0:
            draws = rng.random(n_app) < cfg.symptom_dropin
            flags = rng.integers(0, len(virology.SYMPTOM_NAMES), n_app)
            reported[self.app_ids[draws]] |= np.uint8(1) << flags[draws].astype(np.uint8)
        self.symptom_hist[:, day] = reported

        reported_any = reported != 0
        self.episode_attempted[~reported_any] = False
        new_episode = reported_any & ~self.reported_any_prev & ~self.episode_attempted
        can_test = np.isin(self.test_code, (TEST_NONE, TEST_NEGATIVE))
        candidates = np.flatnonzero(new_episode & can_test)
        ordered = np.zeros(0, dtype=np.int64)
        if candidates.size:
            take = rng.random(candidates.size) < cfg.carefulness
            ordered = candidates[take]
            self.test_code[ordered] = TEST_PENDING
            self.result_day[ordered] = day + cfg.test_delay_days
            self.infected_at_order[ordered] = np.isin(self.epi_state[ordered], (STATE_E, STATE_I))
        self.episode_attempted[new_episode] = True
        self.reported_any_prev = reported_any

        due = np.flatnonzero((self.test_code == TEST_PENDING) & (self.result_day == day))
        n_positive = 0
        if due.size:
            true_pos = self.infected_at_order[due] & (rng.random(due.size) >= cfg.test_false_negative_rate)
            pos = due[true_pos]
            self.test_code[pos] = TEST_POSITIVE
            self.test_code[due[~true_pos]] = TEST_NEGATIVE
            n_positive = pos.size
            if pos.size:
                self.new_positive_today[pos] = True
                self.iso_until[pos] = day + QUARANTINE_DAYS
                # the members of the positives' households, from the household
                # pool; a positive counts as a mate only of another positive
                hh = self.loc_indexes["household"]
                g, n_pos = np.unique(self.household_id[pos], return_counts=True)
                size = hh.size[g]
                offset = np.repeat(hh.start[g] - np.cumsum(size) + size, size)
                members = hh.flat[offset + np.arange(offset.size)]
                mates = members[(np.repeat(n_pos, size) > 1) | ~self.new_positive_today[members]]
                self.hh_until[mates] = np.maximum(self.hh_until[mates], day + QUARANTINE_DAYS)
        self.test_hist[:, day] = self.test_code
        return ordered.size, n_positive

    def _phase_app_pass(self, day):
        """Run the active policy and send today's messages.

        Messages take one day: what is sent on day d is read from the day
        d + 1 pass on, so the observation log and today's observables, both
        read before the send, see the levels from before it. An update to the
        day that leaves the window tomorrow is dropped, and a BCT flag
        quarantines from day d + 1.
        """
        policy = self.cfg.policy
        self.policy_level = np.ones(self.n, dtype=np.int8)
        if not self.app_active:
            return 0
        if self.enc_windows is not None:
            self._snapshot_enc_windows(day)
        if policy == "bct":
            return self._app_pass_bct(day)
        if policy == "pct":
            return self._app_pass_pct(day)
        return self._app_pass_heuristic(day)

    def _app_pass_bct(self, day):
        """Quarantine yesterday's flagged agents, then flag today's positives' contacts.

        A positive flags each (day, partner) pair of the window once; the
        flag quarantine itself is applied by the escalation layer via
        ``bct_until``, so the daily quarantine dropout can act on it.
        """
        flagged = np.flatnonzero(self.bct_flag)
        self.bct_until[flagged] = np.maximum(self.bct_until[flagged], day + QUARANTINE_DAYS)
        flaggers = self.new_positive_today[self.app_ids] & ~self.bct_broadcast_done
        self.bct_broadcast_done |= flaggers
        self.bct_flag = np.zeros(self.n, dtype=bool)
        for e in self.edge_days():
            self.bct_flag[self.app_ids[e.receiver[flaggers[e.sender]]]] = True
        return int(self.outdeg[flaggers].sum())

    def _predict(self, day):
        """(n_app, window) predictions, newest-first."""
        cfg = self.cfg
        if cfg.predictor == "external":
            return self.external.y_hat[day]
        y = self.ground_truth_window(day)
        if cfg.predictor == "noisy_oracle":
            y = np.clip(
                y * (1.0 + self.rng["predictor"].normal(0.0, cfg.predictor_mul_sigma, y.shape))
                + self.rng["predictor"].normal(0.0, cfg.predictor_add_sigma, y.shape),
                0.0, 1.0)
        return y

    def _app_pass_pct(self, day):
        y_hat = self._predict(day)
        qlev = self.quantize(y_hat)
        levels = self.psi[qlev[:, 0]]
        if self.external is not None:
            levels[~self.external.ok[day]] = 1  # a failed prediction recommends the baseline
        return self._publish(day, y_hat, qlev, levels)

    def _app_pass_heuristic(self, day):
        score, levels = tracing.policy_heuristic(*self.observables_for(day))
        shape = (score.size, self.window)  # the score is the same on every day
        y_hat = np.broadcast_to(score[:, None], shape)
        qlev = np.broadcast_to(self.quantize(score)[:, None], shape)
        return self._publish(day, y_hat, qlev, levels)

    def _publish(self, day, y_hat, qlev, levels):
        """Send each day's level where it differs from the level last sent.

        Slot k of an agent's history covers day ``day - k``; a changed slot
        sends its new level to every partner the agent met that day, one
        message per edge, and ``held`` takes it. A failed external
        prediction is yesterday's estimate moved one day older, which
        quantizes to what its partners hold, so it sends nothing.
        """
        span = min(day + 1, self.window)  # slots of days that have edges
        cols = (day - np.arange(span)) % self.window
        changed = qlev[:, :span] != self.held[:, cols]
        self.held[:, cols] = qlev[:, :span]
        sent = int(np.einsum("ij,ij->", self.outdeg[:, cols], changed, dtype=np.int64))
        self.policy_level[self.app_ids] = levels
        if self.yhat_hist is not None:
            self.yhat_hist[:, day] = y_hat
        return sent

    def _snapshot_enc_windows(self, day):
        """Log today's app edges and the levels held before today's sends, newest day first."""
        e = self.edges[day % self.window]
        cols = (day - np.arange(min(day + 1, self.window))) % self.window
        self.enc_windows.append(e.receiver, e.sender, e.count, self.held[:, cols])

    def _phase_levels(self, day):
        cfg = self.cfg
        rng = self.rng["behavior"]

        def drop_out(until, p):
            live = until > day  # the timer governs tomorrow
            idx = np.flatnonzero(live)
            if idx.size and p > 0:
                quit_ = idx[rng.random(idx.size) < p]
                until[quit_] = -1
                live[quit_] = False
            return live

        iso_live = drop_out(self.iso_until, cfg.quarantine_dropout_test)
        hh_live = drop_out(self.hh_until, cfg.quarantine_dropout_household)
        bct_live = drop_out(self.bct_until, cfg.quarantine_dropout_test)

        levels = self.policy_level.copy()
        levels[iso_live] = np.maximum(levels[iso_live], 4)
        levels[hh_live] = np.maximum(levels[hh_live], 4)
        levels[bct_live] = np.maximum(levels[bct_live], cfg.bct_quarantine_level)
        ignore = rng.random(self.n) < cfg.all_levels_dropout
        levels[ignore] = 0
        self.rec_level = levels


@functools.cache
def _keep_heap():
    """Keep freed memory in the process's heap; runs once per process.

    By default glibc serves blocks of 128 KiB and more with mmap, raising
    that threshold only after such a block is freed, and gives the heap
    top back to the system once 128 KiB of it is free. So the first run in
    a process page-faults the same megabytes back in every day. Minor
    faults in the 50 steps of a fresh no_tracing run, before and after:
    47k and 3k at 30k agents, 159k and 7k at 100k, 311k and 10k at 300k
    (about 300k with a 4 or 8 MiB mmap threshold). Does nothing where
    libc has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def init_world(config: SimConfig) -> WorldState:
    """Validate the config and build a ready-to-run world."""
    _keep_heap()
    return WorldState(config)


def step_day(world: WorldState) -> DayReport:
    """Advance the world by one day and return the day's counters."""
    cfg = world.cfg
    day = world.day
    if day >= cfg.num_days:
        raise RuntimeError(f"step_day past num_days={cfg.num_days}")
    world._phase_progression(day)
    a, b, loc = world._phase_encounters(day)
    new_cases = world._phase_transmission(day, a, b, loc)
    tests_ordered, positives = world._phase_testing(day)
    messages = world._phase_app_pass(day)
    world._phase_levels(day)

    world.epi_hist[:, day] = world.epi_state
    counts = np.bincount(world.epi_state, minlength=4)
    q_mask = world.level_hist[:, day] == 4
    healthy = (world.epi_state == STATE_S) | (world.epi_state == STATE_R)
    report = DayReport(
        day=day,
        s=int(counts[STATE_S]), e=int(counts[STATE_E]),
        i=int(counts[STATE_I]), r=int(counts[STATE_R]),
        new_cases=int(new_cases),
        cum_cases=len(world.events),
        encounters=int(a.size),
        quarantined=int(q_mask.sum()),
        quarantined_healthy=int((q_mask & healthy).sum()),
        tests_ordered=int(tests_ordered),
        positives=int(positives),
        messages=int(messages),
    )
    world.day_reports.append(report)
    world.day += 1
    return report


def run(config: SimConfig) -> SimulationTrace:
    """Run a full simulation and return its immutable trace."""
    world = init_world(config)
    for _ in range(int(config.num_days)):
        step_day(world)
    cfg_dict = config.to_dict()
    if world.external is not None:
        # a replay is named by its predictions file's content, not its path
        cfg_dict["external_predictions"] = world.external.sha256
    run_id = f"{config_hash(cfg_dict)}-s{config.rng_seed}"
    return SimulationTrace(
        config=cfg_dict,
        run_id=run_id,
        population=world.n,
        num_days=int(config.num_days),
        app_ids=world.app_ids,
        age_band=world.age_band,
        sex=world.sex,
        conditions=world.conditions,
        initial_counts=world.initial_counts,
        day_reports=world.day_reports,
        events=world.events,
        epi_hist=world.epi_hist,
        level_hist=world.level_hist,
        y_hist=world.y_hist,
        symptom_hist=world.symptom_hist,
        test_hist=world.test_hist,
        enc_windows=world.enc_windows,
        yhat_hist=world.yhat_hist,
        encounter_log=world.encounter_log,
    )


def agent_profile(world, agents) -> dict:
    """Exportable demographic profile g for each agent, keyed by agent id.

    ``world`` is a WorldState or a SimulationTrace.
    """
    agents = np.asarray(agents, dtype=np.int64)
    return {
        agent: {
            "age_band": AGE_BAND_NAMES[band],
            "sex": "mf"[sex],
            "conditions": [name for bit, name in enumerate(CONDITION_NAMES) if cond >> bit & 1],
            "has_app": has_app,
        }
        for agent, band, sex, cond, has_app in zip(
            agents.tolist(), world.age_band[agents].tolist(), world.sex[agents].tolist(),
            world.conditions[agents].tolist(), np.isin(agents, world.app_ids).tolist())
    }
