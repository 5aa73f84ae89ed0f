"""World state, configuration, and the daily simulation loop.

A run is strictly sequential: one day at a time, six phases per day in a
fixed order (disease progression, encounter generation, transmission
trials, testing, app pass, recommendation-level update). All randomness
flows from named generator streams spawned from the config seed, so equal
(config, seed) pairs reproduce byte-identical traces.
"""

from __future__ import annotations

import collections
import ctypes
import dataclasses
import functools
from dataclasses import dataclass

import numpy as np
import yaml

from . import messaging, mobility, tracing, virology
from .metrics import (EXTERNAL_SEED, STATE_E, STATE_I, STATE_R, STATE_S, canonical_json,
                      config_hash, replacing)
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
_INT32_MAX, _INT64_MAX = int(np.iinfo(np.int32).max), int(np.iinfo(np.int64).max)
# numpy's normal deviates stay below about 14 in size, so a noisy-oracle draw at this sigma
# stays finite; an overflow to inf would make inf * y at y = 0 a NaN estimate
_SIGMA_MAX = 1e300
EVENT_LOCATIONS = (*mobility.LOCATION_TYPES, "external")  # code -1: a seed
_POPCOUNT = np.array([bin(m).count("1") for m in range(256)], dtype=np.int64)  # symptoms in a mask
_N_TESTS = len(virology.TEST_CODE_NAMES)  # a health code is symptom mask * _N_TESTS + test code
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
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int too large for float
        raise ConfigError(f"{name}: must be {expected}, got {value!r}") from None


def _number(name, value):
    """``float(value) + 0.0``, so -0.0 reads as 0.0; a str, a bool or a value float() rejects
    is a ConfigError."""
    if isinstance(value, (str, bool)):
        raise ConfigError(f"{name}: must be a number, got {value!r}")
    return _read(name, float, value, "a number") + 0.0


def _fraction(name, value):
    if not 0.0 <= (number := _number(name, value)) <= 1.0:
        raise ConfigError(f"{name}: must be in [0, 1], got {value!r}")
    return number


def _integer(name, value, least=-np.inf, most=np.inf):
    """``value`` as an int in [least, most]: an int exactly, a float only if integral."""
    number = _number(name, value)  # an int too large for a float fails here
    if not number.is_integer():  # NaN and inf fail too
        raise ConfigError(f"{name}: must be an integer, got {value!r}")
    integer = int(value) if isinstance(value, (int, np.integer)) else int(number)
    if integer < least:
        raise ConfigError(f"{name}: must be >= {least}, got {value}")
    if integer > most:  # compared as ints: a float past 2**53 rounds
        raise ConfigError(f"{name}: must be <= {most}, got {value}")
    return integer


def _non_negative(name, value, most=np.inf):
    if not 0.0 <= (number := _number(name, value)) < np.inf:  # NaN fails too
        raise ConfigError(f"{name}: must be finite and >= 0, got {value!r}")
    if number > most:
        raise ConfigError(f"{name}: must be <= {most}, got {value!r}")
    return number


def _numbers(name, values, entry):
    """The entries of a list field, each read by ``entry``; a string is a ConfigError."""
    if isinstance(values, str):
        raise ConfigError(f"{name}: must be a list, got {values!r}")
    return tuple(entry(name, v) for v in _read(name, list, values, "a list"))


@dataclass(frozen=True)
class SimConfig:
    """All tunables for one run. Field names match the config file keys. A SimConfig is checked
    once, when it is made (``validate``), and cannot change after: ``replace`` makes a new one."""

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
        for name in ("policy", "predictor"):
            spelled = str(getattr(self, name)).lower()
            object.__setattr__(self, name, _NAME_ALIASES.get(spelled, spelled))
        self._keep("psi_table", _numbers, _integer)
        if self.risk_thresholds is not None:
            self._keep("risk_thresholds", _numbers, _number)
        self.validate()

    def _keep(self, name, read, *bounds):
        """Read field ``name`` with ``read``, store what it returns and return it."""
        value = read(name, getattr(self, name), *bounds)
        object.__setattr__(self, name, value)
        return value

    def validate(self) -> "SimConfig":
        """Check each field in turn, storing a number in its field's type; run when made, so idempotent."""
        self._keep("population_size", _integer, 2, _INT32_MAX + 1)  # an id fits int32
        self._keep("num_days", _integer, 0, _INT32_MAX + 1 - QUARANTINE_DAYS)  # a timer fits int32
        for name in ("adoption_rate", "smartphone_rate", "initial_exposed_fraction",
                     "carefulness", "symptom_dropout", "symptom_dropin",
                     "quarantine_dropout_test", "quarantine_dropout_household",
                     "all_levels_dropout", "test_false_negative_rate",
                     "transmission_base_rate"):
            self._keep(name, _fraction)
        if self.adoption_rate > self.smartphone_rate:
            raise ConfigError(
                f"adoption_rate: {self.adoption_rate} exceeds smartphone_rate "
                f"{self.smartphone_rate}; app users are a subset of smartphone owners")
        self._keep("global_mobility_scale", _non_negative)
        self._keep("test_delay_days", _integer, 0, _INT64_MAX + 1 - self.num_days)  # a result day fits int64
        self._keep("rng_seed", _integer, 0)
        if not 1 <= self._keep("d_max", _integer) <= 15:
            raise ConfigError(f"d_max: must be in 1..15 (a 4-bit day offset), got {self.d_max}")
        if self.policy not in POLICIES:
            raise ConfigError(f"policy: unknown value {self.policy!r}, expected one of {POLICIES}")
        if self.predictor not in PREDICTORS:
            raise ConfigError(f"predictor: unknown value {self.predictor!r}, expected one of {PREDICTORS}")
        for name in ("predictor_add_sigma", "predictor_mul_sigma"):
            self._keep(name, _non_negative, _SIGMA_MAX)
        for name in ("record_observables", "record_estimates", "record_encounter_log"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name}: must be true or false, got {getattr(self, name)!r}")
        if not isinstance(self.external_predictions, (str, type(None))):
            raise ConfigError(f"external_predictions: must be a path, got {self.external_predictions!r}")
        if self.predictor == "external" and self.policy == "pct" and not self.external_predictions:
            raise ConfigError("external_predictions: required when predictor is 'external'")
        if not 0 <= self._keep("bct_quarantine_level", _integer) <= 4:
            raise ConfigError(f"bct_quarantine_level: must be in 0..4, got {self.bct_quarantine_level}")
        if len(self.psi_table) != messaging.N_RISK_LEVELS:
            raise ConfigError(f"psi_table: needs {messaging.N_RISK_LEVELS} entries")
        if any(not 0 <= v <= 4 for v in self.psi_table):
            raise ConfigError("psi_table: entries must be recommendation levels 0..4")
        if self.risk_thresholds is not None:
            cuts = np.asarray(self.risk_thresholds, dtype=np.float64)
            if cuts.shape != (messaging.N_RISK_LEVELS - 1,):
                raise ConfigError(f"risk_thresholds: needs {messaging.N_RISK_LEVELS - 1} cut points")
            if not (np.isfinite(cuts).all() and np.all(np.diff(cuts) > 0)):
                raise ConfigError("risk_thresholds: cut points must be finite and strictly increasing")
        return self

    def replace(self, **kwargs) -> "SimConfig":
        return dataclasses.replace(self, **kwargs)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_mapping(cls, mapping) -> "SimConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(map(str, set(mapping) - known))  # YAML reads 1, null, on as non-str
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
        return cls(**mapping)


def load_config(path, **overrides) -> SimConfig:
    """Read a flat key-value config file (YAML or JSON, UTF-8) into a SimConfig, ``overrides``
    replacing the file's values before the one check, so a value they replace may be invalid.

    A path that cannot be read, such as a directory, and a file that is not UTF-8 text or
    not valid YAML are ConfigErrors naming it; a YAML error also gives its line and column.
    The file is parsed by libyaml when PyYAML has it (``CSafeLoader``), else by
    ``SafeLoader``: both resolve and construct values alike, so they give the same mapping.
    """
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        with open(path, encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=loader)
    except OSError as exc:
        raise ConfigError(f"config file {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path}: not UTF-8 text ({exc.reason})") from None
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = getattr(exc, "problem", None) or getattr(exc, "reason", None) or exc
        raise ConfigError(f"config file {path}: not valid YAML{where}: {problem}") from None
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must contain a flat mapping")
    return SimConfig.from_mapping({**data, **overrides})


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
    """One registered day of directed app contacts, one row per (receiver, sender) pair.

    Receiver and sender are int32 indexes into ``app_ids``, a met pair as two mirrored
    rows, in no set order; ``count`` is the pair's encounters that day, clipped to 65535
    in uint16. Over app agents, ``level`` is the int8 level each last sent for the day, which
    its partners hold (a receiver holds ``level[sender]``), and ``degree`` its int32 partner
    count; only ``level`` changes once the day is registered. A recorded run keeps every
    day's record in ``WorldState.enc_windows`` after it leaves the window.
    """

    day: int
    receiver: np.ndarray
    sender: np.ndarray
    count: np.ndarray
    level: np.ndarray
    degree: np.ndarray


class WorldState:
    """A simulation's state that lives across days (one logical thread); stepped through
    ``num_days``, it is the finished run that ``run`` returns. ``step_day`` passes what
    one phase hands the next within a day as arguments.

    ``config``, ``run_id``, ``population`` and ``num_days`` name the run;
    ``initial_counts`` holds the compartments before day 0 and ``day_reports`` a
    ``DayReport`` per stepped day. ``age_band``, ``sex`` and ``conditions`` are every
    agent's demographic codes, which ``agent_profile`` reads. ``exposure_day`` (-1: never
    exposed), ``onset``, ``peak``, ``recovery`` and ``peak_evl`` are every agent's disease
    course: ``ground_truth`` derives y and ``epi_states`` the states from them.

    ``health_hist`` is the one stored per-day history: the app agents' ``(n_app,
    num_days)`` uint8 health codes (symptom mask * 4 + test code), column-major.
    ``edges`` holds an ``EdgeDay`` per day of the window, oldest first; none without an app layer.
    ``enc_windows`` (observables recorded under a tracing policy; else None) is a list
    with one ``(record, held)`` entry per stepped day: that day's ``EdgeDay`` and the
    ``(span, n_app)`` int8 stack of the window records' ``level`` as held before the
    day's sends, newest day first. ``datagen`` cuts day d's encounter cells from the
    entries of days d - span + 1 .. d. The estimates are not stored: each day's
    go to the observers that ``step_day`` is given, as the trace writer of ``write_run``.
    """

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.population = cfg.population_size
        self.window = cfg.d_max + 1
        self.day = 0
        seq = np.random.SeedSequence(cfg.rng_seed)
        self.rng = {name: np.random.default_rng(child)
                    for name, child in zip(_RNG_STREAMS, seq.spawn(len(_RNG_STREAMS)))}
        # fitted cut points are for the pct predictor; the heuristic's
        # 0.25-step scores stay on the uniform grid
        fitted = cfg.policy == "pct" and cfg.risk_thresholds is not None
        self.thresholds = np.asarray(
            cfg.risk_thresholds if fitted else messaging.DEFAULT_THRESHOLDS, dtype=np.float64)
        self.psi = np.asarray(cfg.psi_table, dtype=np.int8)

        self._build_population()
        self._init_epi()
        self._init_app_state()
        self._init_trace_buffers()

    # ------------------------------------------------------------------
    # initialization

    def _build_population(self):
        rng = self.rng["demographics"]
        n = self.population

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
        n = self.population
        self.epi_state = np.full(n, STATE_S, dtype=np.int8)
        self.exposure_day = np.full(n, -1, dtype=np.int32)
        self.onset = np.full(n, np.nan)
        self.symptom_onset = np.full(n, np.nan)
        self.peak = np.full(n, np.nan)
        self.recovery = np.full(n, np.nan)
        self.peak_evl = np.full(n, np.nan)
        self.symptom_mask = np.zeros(n, dtype=np.uint8)
        self.rec_level = np.ones(n, dtype=np.int8)
        # who infected each agent and where (an EVENT_LOCATIONS code), and the infected in order
        self.infector = np.full(n, EXTERNAL_SEED, dtype=np.int32)
        self.infection_loc = np.full(n, -1, dtype=np.int8)
        self.infection_order = np.zeros(n, dtype=np.int32)
        self.n_infected = 0

        n_seed = int(round(self.cfg.initial_exposed_fraction * n))
        seeds = np.sort(self.rng["disease"].choice(n, size=n_seed, replace=False)) if n_seed else np.zeros(0, dtype=np.int64)
        self._expose(seeds, 0, EXTERNAL_SEED, -1)

        # testing state (symptoms and tests are modeled for app agents)
        self.test_code = np.full(n, TEST_NONE, dtype=np.int8)
        self.result_day = np.full(n, -1, dtype=np.int64)
        self.infected_at_order = np.zeros(n, dtype=bool)

        # escalation timers: the last day the timer governs, -1 once quit
        self.iso_until = np.full(n, -1, dtype=np.int32)
        self.hh_until = np.full(n, -1, dtype=np.int32)
        self.bct_until = np.full(n, -1, dtype=np.int32)

    def _init_app_state(self):
        cfg = self.cfg
        self.app_active = cfg.policy != "no_tracing" and self.app_ids.size > 0
        # the window's days, oldest first; registering a day drops the one leaving the window
        self.edges: collections.deque[EdgeDay] = collections.deque(maxlen=self.window)
        self.bct_flag = np.zeros(self.population, dtype=bool)
        self.external = None
        if cfg.policy == "pct" and cfg.predictor == "external":
            try:
                self.external = tracing.ExternalPredictor(
                    cfg.external_predictions, self.app_ids, self.num_days, self.window)
            except OSError as exc:
                raise ConfigError(f"external_predictions: {cfg.external_predictions}: "
                                  f"{exc.strerror or exc}") from None

    def _init_trace_buffers(self):
        self.health_hist = np.zeros((self.app_ids.size, self.num_days), dtype=np.uint8, order="F")
        self.day_reports: list[DayReport] = []
        self.enc_windows = [] if self.cfg.record_observables and self.app_active else None
        self.encounter_log = [] if self.cfg.record_encounter_log else None
        counts = np.bincount(self.epi_state, minlength=4)
        self.initial_counts = {"s": int(counts[STATE_S]), "e": int(counts[STATE_E]),
                               "i": int(counts[STATE_I]), "r": int(counts[STATE_R])}

    # ------------------------------------------------------------------
    # the run's record

    @property
    def num_days(self) -> int:
        return self.cfg.num_days

    @property
    def config(self) -> dict:
        """The config as a dict; a replay is named by its predictions file's content, not its path."""
        out = self.cfg.to_dict()
        if self.external is not None:
            out["external_predictions"] = self.external.sha256
        return out

    @property
    def run_id(self) -> str:
        return f"{config_hash(self.config)}-s{self.cfg.rng_seed}"

    @property
    def events(self) -> np.ndarray:
        """The infections so far, ``(m, 4)`` int64 in infection order, a row ``(day,
        infector, infectee, location)``; a seed has infector EXTERNAL_SEED and location -1
        (``EVENT_LOCATIONS``)."""
        i = self.infection_order[:self.n_infected]
        return np.stack((self.exposure_day[i], self.infector[i], i, self.infection_loc[i]),
                        axis=1, dtype=np.int64)

    def recovered_ids(self):
        """Sorted ids of the agents recovered by the end of the last day stepped."""
        return np.flatnonzero(self.epi_state == STATE_R)

    # ------------------------------------------------------------------
    # helpers

    def _expose(self, agents, day, infectors, locations):
        """Mark agents Exposed at ``day``, in this order, by ``infectors`` at ``locations``, and
        sample their disease courses; a course without symptoms has symptom onset inf."""
        agents = np.asarray(agents, dtype=np.int64)
        if agents.size == 0:
            return
        if np.any(self.epi_state[agents] != STATE_S):
            raise RuntimeError("infection event targets a non-susceptible agent")
        courses = virology.sample_disease_courses(agents.size, self.rng["disease"])
        self.epi_state[agents] = STATE_E
        self.exposure_day[agents] = day
        self.onset[agents] = courses["infectiousness_onset_day"]
        self.symptom_onset[agents] = np.where(courses["is_asymptomatic"], np.inf,
                                              courses["symptom_onset_day"])
        self.peak[agents] = courses["peak_day"]
        self.recovery[agents] = courses["recovery_day"]
        self.peak_evl[agents] = courses["peak_evl"]
        self.symptom_mask[agents] = courses["symptom_mask"]
        self.infector[agents] = infectors
        self.infection_loc[agents] = locations
        self.infection_order[self.n_infected:self.n_infected + agents.size] = agents
        self.n_infected += agents.size

    def observables_for(self, day):
        """The heuristic's evidence for every app agent as of ``day``.

        Returns three arrays over ``app_ids``: a positive test in the window
        (a positive is never replaced, so one today), the number of symptoms
        reported today, and the highest risk level held from any contact in the window.
        """
        health = self.health_hist[:, day]
        has_positive = health % _N_TESTS == TEST_POSITIVE
        n_symptoms = _POPCOUNT.take(health // _N_TESTS)
        # level's dtype: np.maximum.at is ~30x slower when the dtypes differ
        top = np.zeros(health.size, dtype=np.int8)
        for e in self.edges:
            np.maximum.at(top, e.receiver, e.level.take(e.sender))
        return has_positive, n_symptoms, top.astype(np.int64)

    # ------------------------------------------------------------------
    # the six daily phases

    def _phase_progression(self, day):
        """Advance the epidemic states to ``day`` and return every agent's y that day."""
        # only E and I agents move: t_mid grows with day and the thresholds are
        # fixed, so a recovered agent stays R at y 0
        live = np.flatnonzero((self.epi_state == STATE_E) | (self.epi_state == STATE_I))
        t_mid = day + 0.5 - self.exposure_day[live]
        state = self.epi_state[live]
        state[t_mid >= self.onset[live]] = STATE_I
        state[t_mid >= self.recovery[live]] = STATE_R
        self.epi_state[live] = state
        y = np.zeros(self.population)
        y[live] = virology.evl_tent(t_mid, self.onset[live], self.peak[live],
                                    self.recovery[live], self.peak_evl[live])
        return y

    def _phase_encounters(self):
        """Draw today's encounters at today's levels and return them as ``(a, b, loc, count)``.

        ``count`` is the day's encounters. The rows are those a later phase
        reads, in drawing order: an infectious party's, for transmission, and
        while the app layer is active two app agents', for registration. The
        encounter log keeps these rows, not every row drawn.
        """
        read = 2 * (self.epi_state == STATE_I).astype(np.int8)
        if self.app_active:
            read |= self.has_app
        encounters = mobility.generate_encounters(
            self.loc_indexes, self.rec_level, self.cfg.global_mobility_scale,
            self.rng["mobility"], read)
        if self.encounter_log is not None:
            self.encounter_log.append(encounters[:3])
        return encounters

    def _register_app_contacts(self, a, b, day):
        """Today's app-pair encounters, counted once per pair and mirrored, become the newest day.

        Each receiver starts out holding the level the sender last sent for yesterday
        (risk 0's on day 0). An update sent yesterday to the day leaving the window is dropped.
        """
        both = np.flatnonzero(self.has_app[a] & self.has_app[b])  # two bool masks take ~3x as long
        x, y = self._app_index[a[both]], self._app_index[b[both]]
        n_app = self.app_ids.size
        keys, count = np.unique(np.minimum(x, y) * n_app + np.maximum(x, y), return_counts=True)
        pairs = np.array(np.divmod(keys, n_app), dtype=np.int32)  # rows lo, hi
        receiver = pairs.ravel()
        count = np.tile(np.minimum(count, 65535).astype(np.uint16), 2)
        level = (self.edges[-1].level.copy() if self.edges else
                 np.full(n_app, messaging.quantize_risk(0.0, self.thresholds), dtype=np.int8))
        degree = np.bincount(receiver, minlength=n_app).astype(np.int32)
        self.edges.append(EdgeDay(day, receiver, pairs[::-1].ravel(), count, level, degree))

    def _phase_transmission(self, day, y, a, b, loc):
        cfg = self.cfg
        rng = self.rng["transmission"]
        cand_infectee, cand_infector, cand_loc = [], [], []
        state_a, state_b = self.epi_state[a], self.epi_state[b]
        for src, dst, s_src, s_dst in ((a, b, state_a, state_b), (b, a, state_b, state_a)):
            trial = np.flatnonzero((s_src == STATE_I) & (s_dst == STATE_S))
            p = virology.transmission_probability(
                y[src[trial]], cfg.transmission_base_rate, 1.0, cfg.carefulness)
            trial = trial[rng.random(p.size) < p]
            cand_infectee.append(dst[trial])
            cand_infector.append(src[trial])
            cand_loc.append(loc[trial])
        infectees = np.concatenate(cand_infectee)
        infectors = np.concatenate(cand_infector)
        locs = np.concatenate(cand_loc)
        # one infection per agent per day: the first successful trial wins
        _, first = np.unique(infectees, return_index=True)
        first.sort()
        self._expose(infectees[first], day, infectors[first], locs[first])
        return first.size

    def _phase_testing(self, day, y):
        """Order and resolve tests; return the number ordered and an n-mask of today's positives."""
        cfg = self.cfg
        rng = self.rng["testing"]

        t_mid = day + 0.5 - self.exposure_day  # y > 0 only for the exposed
        symptomatic = self.has_app & (y > 0) & (t_mid >= self.symptom_onset)
        reported = np.zeros_like(self.symptom_mask)
        idx = np.flatnonzero(symptomatic)
        keep = rng.random((idx.size, len(virology.SYMPTOM_NAMES))) >= cfg.symptom_dropout
        reported[idx] = self.symptom_mask[idx] & np.packbits(keep, axis=1, bitorder="little")[:, 0]
        n_app = self.app_ids.size
        if cfg.symptom_dropin > 0:
            draws = rng.random(n_app) < cfg.symptom_dropin
            flags = rng.integers(0, len(virology.SYMPTOM_NAMES), n_app)
            reported[self.app_ids[draws]] |= np.uint8(1) << flags[draws].astype(np.uint8)

        # a new symptom episode: a report today and none yesterday (a code below _N_TESTS)
        new_episode = reported != 0
        new_episode[self.app_ids] &= (self.health_hist[:, day - 1] < _N_TESTS) if day else True
        can_test = (self.test_code == TEST_NONE) | (self.test_code == TEST_NEGATIVE)
        candidates = np.flatnonzero(new_episode & can_test)
        ordered = candidates[rng.random(candidates.size) < cfg.carefulness]
        self.test_code[ordered] = TEST_PENDING
        self.result_day[ordered] = day + cfg.test_delay_days
        state = self.epi_state[ordered]
        self.infected_at_order[ordered] = (state == STATE_E) | (state == STATE_I)

        due = np.flatnonzero((self.test_code == TEST_PENDING) & (self.result_day == day))
        true_pos = self.infected_at_order[due] & (rng.random(due.size) >= cfg.test_false_negative_rate)
        pos = due[true_pos]
        self.test_code[pos] = TEST_POSITIVE
        self.test_code[due[~true_pos]] = TEST_NEGATIVE
        positive = np.zeros(self.population, dtype=bool)
        positive[pos] = True
        self.iso_until[pos] = day + QUARANTINE_DAYS
        # a household mate: an agent whose household has a positive other than itself
        n_pos = np.bincount(self.household_id[pos], minlength=self.population)
        self.hh_until[n_pos[self.household_id] > positive] = day + QUARANTINE_DAYS
        self.health_hist[:, day] = reported[self.app_ids] * _N_TESTS + self.test_code[self.app_ids]
        return ordered.size, positive

    def _phase_app_pass(self, day, a, b, positives):
        """Register today's app contacts among encounters ``a``-``b``, run the active policy
        and send today's messages; return their count, a new n-array of the policy's levels,
        1 outside the app agents of pct and the heuristic, and the estimates (see ``step_day``).

        Messages take one day: what is sent on day d is read from the day
        d + 1 pass on, so the levels ``enc_windows`` keeps and today's observables,
        both read before the send, are those from before it. An update to the
        day that leaves the window tomorrow is dropped, and a BCT flag
        quarantines from day d + 1.
        """
        policy = self.cfg.policy
        levels = np.ones(self.population, dtype=np.int8)
        if not self.app_active:
            return 0, levels, None
        self._register_app_contacts(a, b, day)
        if self.enc_windows is not None:
            self._snapshot_enc_windows()
        if policy == "bct":
            return self._app_pass_bct(day, positives), levels, None
        if policy == "pct":
            estimates = predict(self, day)
            qlev = messaging.quantize_risk(estimates, self.thresholds)
            app_levels = self.psi[qlev[:, 0]]
            if self.external is not None:
                app_levels[~self.external.ok[day]] = 1  # a failed prediction recommends the baseline
        else:  # the heuristic, whose score is the same on every day of the window
            score, app_levels = tracing.policy_heuristic(*self.observables_for(day))
            estimates = np.broadcast_to(score[:, None], (score.size, self.window))
            qlev = np.broadcast_to(messaging.quantize_risk(score, self.thresholds)[:, None],
                                   estimates.shape)
        levels[self.app_ids] = app_levels
        return self._publish(qlev), levels, estimates

    def _app_pass_bct(self, day, positives):
        """Quarantine yesterday's flagged agents, then flag today's positives' contacts.

        A positive flags each (day, partner) pair of the window once; the
        flag quarantine itself is applied by the escalation layer via
        ``bct_until``, so the daily quarantine dropout can act on it.
        """
        self.bct_until[self.bct_flag] = day + QUARANTINE_DAYS
        flaggers = positives[self.app_ids]  # a positive result is final
        self.bct_flag = np.zeros(self.population, dtype=bool)
        for e in self.edges:
            self.bct_flag[self.app_ids[e.receiver[flaggers[e.sender]]]] = True
        return sum(int(e.degree[flaggers].sum()) for e in self.edges)

    def _publish(self, qlev):
        """Send each day's level where it differs from the level last sent.

        Slot k of an agent's history covers the day k days back, ``edges[-1 - k]``;
        a changed slot sends its new level to every partner the agent met that
        day, one message per edge, and that day's ``level`` takes it. A failed
        external prediction is yesterday's estimate moved one day older, which
        quantizes to what its partners hold, so it sends nothing.
        """
        messages = 0
        for k, e in enumerate(reversed(self.edges)):
            messages += int(np.einsum("i,i->", e.degree, qlev[:, k] != e.level, dtype=np.int64))
            e.level[:] = qlev[:, k]
        return messages

    def _snapshot_enc_windows(self):
        """Keep today's record and the levels held before today's sends, newest day first."""
        self.enc_windows.append((self.edges[-1], np.stack([e.level for e in reversed(self.edges)])))

    def _phase_levels(self, day, levels):
        """Escalate and drop out ``levels``, the policy's, in place; they are tomorrow's."""
        cfg = self.cfg
        rng = self.rng["behavior"]

        def drop_out(until, p):
            live = until > day  # the timer governs tomorrow
            if p > 0:
                idx = np.flatnonzero(live)
                quit_ = idx[rng.random(idx.size) < p]
                until[quit_] = -1
                live[quit_] = False
            return live

        iso_live = drop_out(self.iso_until, cfg.quarantine_dropout_test)
        hh_live = drop_out(self.hh_until, cfg.quarantine_dropout_household)
        bct_live = drop_out(self.bct_until, cfg.quarantine_dropout_test)

        levels[iso_live | hh_live] = 4
        levels[bct_live] = np.maximum(levels[bct_live], cfg.bct_quarantine_level)
        ignore = rng.random(self.population) < cfg.all_levels_dropout
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
    """Build a ready-to-run world for ``config``, a SimConfig checked when it was made."""
    _keep_heap()
    return WorldState(config)


def step_day(world: WorldState, observers=()) -> DayReport:
    """Advance the world by one day, passing y, the encounters, the positives and the
    policy levels from phase to phase, and return the day's counters.

    Once the report is appended, each observer is called as ``observer(world, report, estimates)``
    with the (n_app, window) float64 estimates the app pass quantized: pct's ``predict``, the
    heuristic's score on every slot (a read-only view), None under bct, no_tracing or no app agents.
    """
    cfg = world.cfg
    day = world.day
    if day >= cfg.num_days:
        raise RuntimeError(f"step_day past num_days={cfg.num_days}")
    q_mask = world.rec_level == 4  # today's levels; _phase_levels sets tomorrow's
    y = world._phase_progression(day)
    a, b, loc, encounters = world._phase_encounters()
    new_cases = world._phase_transmission(day, y, a, b, loc)
    tests_ordered, positives = world._phase_testing(day, y)
    messages, levels, estimates = world._phase_app_pass(day, a, b, positives)
    world._phase_levels(day, levels)

    counts = np.bincount(world.epi_state, minlength=4)
    healthy = (world.epi_state == STATE_S) | (world.epi_state == STATE_R)
    report = DayReport(
        day=day,
        s=int(counts[STATE_S]), e=int(counts[STATE_E]),
        i=int(counts[STATE_I]), r=int(counts[STATE_R]),
        new_cases=int(new_cases),
        cum_cases=world.n_infected,
        encounters=encounters,
        quarantined=int(q_mask.sum()),
        quarantined_healthy=int((q_mask & healthy).sum()),
        tests_ordered=int(tests_ordered),
        positives=int(np.count_nonzero(positives)),
        messages=int(messages),
    )
    world.day_reports.append(report)
    world.day += 1
    for observer in observers:
        observer(world, report, estimates)
    return report


def run(config: SimConfig, observers=()) -> WorldState:
    """Run a full simulation, passing ``observers`` to each ``step_day``; return the finished world."""
    world = init_world(config)
    for _ in range(world.num_days):
        step_day(world, observers)
    return world


class _TraceWriter:
    """``write_run``'s observer: the trace's header on day 0, then each day's line as it ends."""

    def __init__(self, fh):
        self.fh = fh

    def header(self, world):
        """Write the run's id, size, initial counts and config, and keep ``"y_hat"``'s keys, the
        app agents' ids, once a run; None on a run that writes no estimates."""
        recorded = world.cfg.record_estimates and world.cfg.policy in ("pct", "heuristic")
        self.keys = world.app_ids.astype(str).tolist() if recorded else None
        self.fh.write(canonical_json({
            "kind": "header", "schema_version": TRACE_SCHEMA_VERSION, "run_id": world.run_id,
            "population": world.population, "num_days": world.num_days,
            "initial_counts": world.initial_counts, "config": world.config}) + "\n")

    def __call__(self, world, report, estimates):
        """Write the report and, under the keys, each app agent's estimates (``{}`` for none) as
        float32 rounded as ``round(float(v), 6)``: float32 * 1e6 is exact, rint ties to even."""
        if report.day == 0:
            self.header(world)
        rec = {"kind": "day", **dataclasses.asdict(report)}
        if self.keys is not None:
            y_hat = np.asarray(() if estimates is None else estimates, np.float32).astype(np.float64)
            rec["y_hat"] = dict(zip(self.keys, (np.rint(y_hat * 1e6) / 1e6).tolist()))
        self.fh.write(canonical_json(rec) + "\n")


def write_run(config: SimConfig, trace_path, events_path) -> WorldState:
    """Run ``config``, writing its trace (a header, then a line as each day ends) and its events
    through ``metrics.replacing``, so a failed run leaves both paths as they were; return the world."""
    with replacing(trace_path, events_path) as (trace_part, events_part):
        with open(trace_part, "w") as fh:
            writer = _TraceWriter(fh)
            world = run(config, (writer,))
            if not world.num_days:  # no day wrote the header
                writer.header(world)
        with open(events_part, "w") as fh:
            # canonical_json of each row, formatted by hand; location names need no escaping
            fh.writelines('{"day":%d,"infectee":%d,"infector":%d,"location":"%s"}\n'
                          % (day, infectee, infector, EVENT_LOCATIONS[loc])
                          for day, infector, infectee, loc in world.events.tolist())
    return world


def ground_truth(world, agents, days) -> np.ndarray:
    """Ground-truth infectiousness y of ``agents`` (rows) on ``days`` (columns), float32.

    The progression phase's arithmetic: the EVL at the day's midpoint,
    ``d + 0.5 - exposure_day`` days after exposure, and 0 for an agent never
    exposed. It is 0 before exposure, on the exposure day (infectiousness
    onset is at least ``virology.ONSET_MIN`` = 0.5) and from recovery on, so
    it equals the y that day's progression phase returns wherever that computed it.
    """
    agents = np.asarray(agents, dtype=np.int64)
    days = np.asarray(days, dtype=np.int64)
    y = np.zeros((agents.size, days.size), dtype=np.float32)
    rows = np.flatnonzero(world.exposure_day[agents] >= 0)
    exposed = agents[rows, None]
    y[rows] = virology.evl_tent(days + 0.5 - world.exposure_day[exposed], world.onset[exposed],
                                world.peak[exposed], world.recovery[exposed],
                                world.peak_evl[exposed])
    return y


def epi_states(world, agents, days) -> np.ndarray:
    """End-of-day epidemic state of ``agents`` (rows) on ``days`` (columns), int8.

    S before exposure; E on a transmission's exposure day, as its progression ran first;
    else R from recovery, I from onset, else E, at the progression's ``d + 0.5 - exposure_day``
    (a seed, exposed before day 0's progression, from day 0). An agent never exposed is S
    by the first rule, so ``infector == EXTERNAL_SEED`` tells the seeds among the rest.
    """
    agents = np.asarray(agents, dtype=np.int64)
    exposure = world.exposure_day[agents, None]
    t = np.asarray(days, dtype=np.int64) + 0.5 - exposure
    seed = world.infector[agents, None] == EXTERNAL_SEED
    return np.select([(exposure < 0) | (t < 0), (t == 0.5) & ~seed,
                      t >= world.recovery[agents, None], t >= world.onset[agents, None]],
                     [STATE_S, STATE_E, STATE_R, STATE_I], STATE_E).astype(np.int8)


def predict(world, day) -> np.ndarray:
    """pct's (n_app, window) estimates on ``day``, newest-first.

    The oracle is the app agents' ``ground_truth`` over the window; the noisy oracle scales
    it by ``1 + N(0, mul_sigma)``, adds ``N(0, add_sigma)`` and clips to [0, 1], drawing
    both with numpy's ``normal`` from the world's ``"predictor"`` stream; the external
    predictor replays ``world.external``.
    """
    cfg = world.cfg
    if cfg.predictor == "external":
        return world.external.y_hat[day]
    # the app agents' y, newest-first, zero before day 0; only a course short of recovery at the
    # oldest day's midpoint can be nonzero (a never-exposed agent's NaN recovery compares false)
    app = world.app_ids
    y = np.zeros((app.size, world.window), dtype=np.float64)
    days = np.arange(day, max(day - world.window, -1), -1)
    live = np.flatnonzero(days[-1] + 0.5 - world.exposure_day[app] < world.recovery[app])
    y[live, :days.size] = ground_truth(world, app[live], days)
    if cfg.predictor == "noisy_oracle":
        y_hat = world.rng["predictor"].normal(0.0, cfg.predictor_mul_sigma, y.shape)
        y_hat += 1.0
        y_hat *= y
        y_hat += world.rng["predictor"].normal(0.0, cfg.predictor_add_sigma, y.shape)
        y = np.clip(y_hat, 0.0, 1.0, out=y_hat)
    return y


def agent_profile(world, agents) -> dict:
    """Exportable demographic profile g for each agent, keyed by agent id."""
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
            world.conditions[agents].tolist(), world.has_app[agents].tolist())
    }
