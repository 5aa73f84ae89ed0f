"""Per-agent disease course and transmission mechanics.

The course of an infection is summarized by an effective viral load (EVL)
curve, a piecewise-linear tent in [0, 1]: zero until infectiousness
onset, rising linearly to a per-agent peak located 0.7 days before
symptom onset, then falling linearly to zero at recovery. The EVL drives
both transmission probability and the ground-truth infectiousness target
y used by predictors: y for day d is the EVL at the day's midpoint,
d + 0.5 - exposure_day days after exposure, and 0 before exposure.
"""

from __future__ import annotations

import numpy as np

# Landmark constants for sampled courses (days unless noted).
INCUBATION_MEAN = 5.0
INCUBATION_SIGMA_LOG = 0.2  # lognormal sigma; small so ordering clamps stay rare
PEAK_BEFORE_SYMPTOMS = 0.7
ONSET_MEAN = 2.5
ONSET_SD = 0.5
ONSET_MIN = 0.5
RECOVERY_AFTER_SYMPTOMS_MEAN = 14.0
RECOVERY_AFTER_SYMPTOMS_SD = 2.0
RECOVERY_AFTER_SYMPTOMS_MIN = 1.0
PEAK_EVL_LOW, PEAK_EVL_HIGH = 0.5, 1.0
P_ASYMPTOMATIC = 0.25
# peak must strictly exceed infectiousness onset; symptom onset is pushed
# up to onset + PEAK_MARGIN when the raw draw lands too early (~2% of draws)
PEAK_MARGIN = 0.8

SYMPTOM_NAMES = ("fever", "cough", "fatigue", "anosmia", "other")
# Probability that a symptomatic course includes each flag; an empty draw
# falls back to "other".
SYMPTOM_PREVALENCE = (0.6, 0.6, 0.7, 0.25, 0.4)

TEST_NONE, TEST_PENDING, TEST_POSITIVE, TEST_NEGATIVE = 0, 1, 2, 3
TEST_CODE_NAMES = ("none", "pending", "positive", "negative")


def sample_disease_courses(n: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Vectorized course sampling for ``n`` newly exposed agents.

    Incubation (symptom onset) is lognormal with mean exactly 5 days;
    infectiousness onset is normal around 2.5 days clamped above 0.5;
    the EVL peak sits exactly 0.7 days before symptom onset; recovery is
    symptom onset plus a normal around 14 days clamped above 1. Symptom
    onset is clamped up to onset + 0.8 so that onset < peak < recovery
    holds for every sample.

    Returns a dict of arrays: infectiousness_onset_day, symptom_onset_day,
    peak_day, recovery_day (days after exposure), peak_evl,
    is_asymptomatic and symptom_mask (a bitmask over SYMPTOM_NAMES).
    """
    onset = np.maximum(rng.normal(ONSET_MEAN, ONSET_SD, n), ONSET_MIN)
    mu = np.log(INCUBATION_MEAN) - INCUBATION_SIGMA_LOG**2 / 2
    symptom = rng.lognormal(mu, INCUBATION_SIGMA_LOG, n)
    symptom = np.maximum(symptom, onset + PEAK_MARGIN)
    peak = symptom - PEAK_BEFORE_SYMPTOMS
    rec_delay = np.maximum(
        rng.normal(RECOVERY_AFTER_SYMPTOMS_MEAN, RECOVERY_AFTER_SYMPTOMS_SD, n),
        RECOVERY_AFTER_SYMPTOMS_MIN,
    )
    recovery = symptom + rec_delay
    peak_evl = rng.uniform(PEAK_EVL_LOW, PEAK_EVL_HIGH, n)
    asymptomatic = rng.random(n) < P_ASYMPTOMATIC

    flags = rng.random((n, len(SYMPTOM_NAMES))) < np.asarray(SYMPTOM_PREVALENCE)
    mask = np.packbits(flags, axis=1, bitorder="little")[:, 0]
    mask[mask == 0] = 1 << (len(SYMPTOM_NAMES) - 1)

    return {
        "infectiousness_onset_day": onset,
        "symptom_onset_day": symptom,
        "peak_day": peak,
        "recovery_day": recovery,
        "peak_evl": peak_evl,
        "is_asymptomatic": asymptomatic,
        "symptom_mask": mask,
    }


def evl_tent(t, onset, peak, recovery, peak_evl):
    """EVL at ``t`` days since exposure; all arguments broadcast together.

    Piecewise-linear tent: 0 for t <= onset, linear up to (peak, peak_evl),
    linear down to (recovery, 0), and 0 afterwards, clipped to [0, 1]. A
    scalar ``t`` with scalar landmarks returns an ``np.float64``.
    """
    t = np.asarray(t, dtype=np.float64)
    rising = peak_evl * (t - onset) / (peak - onset)
    falling = peak_evl * (recovery - t) / (recovery - peak)
    evl = np.where(t <= peak, rising, falling)
    evl = np.where((t <= onset) | (t >= recovery), 0.0, evl)
    return np.clip(evl, 0.0, 1.0)


def transmission_probability(infector_evl, base_rate, mobility_env, carefulness):
    """Per-encounter infection probability.

    p = base_rate * infector_evl * mobility_env * (1 - 0.5 * carefulness),
    clamped to [0, 1]. The 0.5 factor is the documented strength of the
    carefulness effect (mask wearing, distancing) on a qualifying contact.
    """
    p = base_rate * np.asarray(infector_evl) * mobility_env * (1.0 - 0.5 * carefulness)
    return np.clip(p, 0.0, 1.0)


def symptom_names_from_mask(mask: int) -> list[str]:
    return [name for bit, name in enumerate(SYMPTOM_NAMES) if mask >> bit & 1]
