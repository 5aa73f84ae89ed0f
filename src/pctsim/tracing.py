"""Tracing policies and infectiousness predictors.

Four policies are supported, all run by the engine in ``core`` over arrays
of app agents. No Tracing pins everyone at the baseline recommendation
level. Binary contact tracing quarantines on a positive test and flags
every app contact of the past d_max days, who quarantines from the next
day on. The heuristic applies the rule ladder :func:`policy_heuristic`
to three per-agent numbers the engine reads each day (a positive test in
the window, today's symptom count and the highest risk level received in
the window); it reads no profile.
During proactive contact tracing each app runs a predictor that
estimates the agent's own infectiousness history, maps today's quantized
estimate to a recommendation through the psi table, and sends update
messages when the quantized history changes.

Predictors estimate the d_max+1 day window newest-first. The oracle reads
the simulator's ground truth (never exported on the wire); the noisy
oracle corrupts it with multiplicative and additive Gaussian noise; an
external predictor replays predictions produced offline from exported
observables, read once into a (day, app agent) table so the day loop
indexes arrays. :func:`evaluate_predictor` scores prediction files
against exported records.
"""

from __future__ import annotations

import hashlib
import json
import numbers

import numpy as np

# Today's quantized risk level 0..15 -> recommendation level. Uniform
# quartiles by default; ships as config, not code.
DEFAULT_PSI = (1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4)


# The ladder's (score, level) for each 5-bit evidence code, bits from the
# highest: a positive test, two or more symptoms or a received level of 12 or
# more, a received level of 8 or more, a symptom, a received level of 4 or more
_POS, _STRONG, _MEDIUM, _SYMPTOM, _WEAK = (np.arange(32) >> np.arange(4, -1, -1)[:, None] & 1).astype(bool)
_SCORE = np.select([_POS, _STRONG, _MEDIUM, _SYMPTOM | _WEAK], [1.0, 0.75, 0.5, 0.25], 0.0)
_LEVEL = np.select([_POS, _STRONG, _MEDIUM | _SYMPTOM], [4, 3, 2], 1).astype(np.int8)


def policy_heuristic(has_positive_test, n_symptoms_today, max_received_level):
    """Rule ladder over per-agent evidence arrays.

    Returns (evidence score in [0, 1], recommendation level) per agent.
    Rules, from strongest: a positive test in the window gives level 4
    (score 1.0); two or more distinct symptoms today, or a received risk
    level of 12 or more, give level 3 (0.75); a received level of 8 or
    more gives level 2 (0.5); a single symptom gives level 2 at 0.25; a
    received level of 4 to 7 is weak evidence at level 1 (0.25). No
    evidence keeps the baseline level 1 at score 0. Each agent's evidence
    is packed into one 5-bit code and both answers are looked up.
    """
    n_sym = np.asarray(n_symptoms_today)
    top = np.asarray(max_received_level)
    code = (np.asarray(has_positive_test, dtype=bool) << 4 | ((n_sym >= 2) | (top >= 12)) << 3
            | (top >= 8) << 2 | (n_sym >= 1) << 1 | (top >= 4))
    return _SCORE[code], _LEVEL[code]


def _integer_key(rec, name, source, number):
    """``rec[name]`` as an int; a string, a bool or a fractional value is a ValueError
    naming ``rec`` as ``f"{source} {number}"``, a file line or a list entry."""
    value = rec[name]
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            or isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ValueError(f"{source} {number}: {name} must be an integer, got {value!r}")


def _entry(rec, values, source, number):
    """An entry's (agent_id, day) as ints. An entry that is not a dict holding agent_id,
    day and ``values`` is a ValueError naming it as ``f"{source} {number}"``, and so is
    an agent_id or day that ``_integer_key`` rejects."""
    if not isinstance(rec, dict) or not {"agent_id", "day", values} <= rec.keys():
        raise ValueError(f"{source} {number}: not a JSON object with agent_id, day and {values}")
    return _integer_key(rec, "agent_id", source, number), _integer_key(rec, "day", source, number)


def _y_hat(rec, name, source, number, null=True):
    """``rec[name]``, numbers of any shape, as a float64 array; where ``null``, a null reads as
    NaN. A bool, a string, an object, a ragged list or, where not ``null``, a null or a NaN or
    infinite value is a ValueError naming ``name`` and the entry as ``f"{source} {number}"``."""
    value = rec[name]
    try:  # not dtype=float64, which reads a numeric string as its number, a bool as 0 or 1
        pred = np.asarray(value)  # a ragged list raises
        # a bool among numbers reads as a number, so check the leaves' types; a flat
        # number list's leaves are its items
        leaves = (value if pred.dtype.kind in "iuf" and pred.ndim == 1
                  else np.asarray(value, dtype=object).flat)
        if not all(issubclass(t, numbers.Real) and t is not bool or null and t is type(None)
                   for t in set(map(type, leaves))):
            raise ValueError
        pred = pred.astype(np.float64)
        if not (null or np.isfinite(pred).all()):
            raise ValueError
    except (ValueError, OverflowError):  # OverflowError: an int too large for float64
        raise ValueError(f"{source} {number}: {name} must be "
                         f"{'null or ' if null else 'finite '}numbers, got {value!r}") from None
    return pred


def _key(rec, values, source, number):
    """An evaluated entry's (run_id, agent_id, day), checked as ``_entry`` checks it; a
    run_id is a string or absent (None), and any other value is a ValueError naming it."""
    agent, day = _entry(rec, values, source, number)  # before .get: rec may not be a dict
    if not isinstance(run_id := rec.get("run_id"), str) and "run_id" in rec:
        raise ValueError(f"{source} {number}: run_id must be a string, got {run_id!r}")
    return run_id, agent, day


class ExternalPredictor:
    """Replay predictions from a JSONL file, read once into two arrays.

    Each line carries agent_id, day and y_hat (a window-length list,
    newest-first). ``y_hat[day, i]`` is float64 ``(num_days, n_app,
    window)``: the estimate for app agent ``app_ids[i]`` on ``day``,
    clipped to [0, 1]. ``ok[day, i]`` marks the cells read from the file:
    the last line for an (agent, day) counts, and it must have a 1-D y_hat
    of ``window`` finite values. Lines for agents outside ``app_ids`` or
    days outside [0, num_days) are ignored. A line that is not a JSON object
    with the three keys, whose agent_id or day is not an integer (a string,
    a bool or a fractional value), or whose y_hat holds a bool, a string, an
    object or a ragged list, is a ValueError naming the line.
    A cell that is not ok, a failed prediction, holds the previous day's
    estimate moved one day older, its newest slot repeated (zeros on day 0):
    the levels its partners hold.
    ``sha256`` is the digest of the file's bytes.
    """

    def __init__(self, path, app_ids, num_days, window):
        row_of = {agent: i for i, agent in enumerate(np.asarray(app_ids).tolist())}
        self.y_hat = np.zeros((num_days, len(row_of), window))
        self.ok = np.zeros((num_days, len(row_of)), dtype=bool)
        digest, where = hashlib.sha256(), f"{path} line"
        with open(path, "rb") as fh:
            for line_no, line in enumerate(fh, 1):
                digest.update(line)
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line.decode())
                except ValueError:  # not UTF-8 or not JSON
                    rec = None
                agent, day = _entry(rec, "y_hat", where, line_no)
                i = row_of.get(agent)
                pred = _y_hat(rec, "y_hat", where, line_no)
                if i is None or not 0 <= day < num_days:
                    continue
                self.ok[day, i] = ok = pred.shape == (window,)
                if ok:
                    self.y_hat[day, i] = pred
        self.sha256 = digest.hexdigest()
        self.ok &= np.isfinite(self.y_hat).all(axis=2)
        self.y_hat[~self.ok] = 0.0
        np.clip(self.y_hat, 0.0, 1.0, out=self.y_hat)
        older = np.r_[0, :window - 1]
        for day in range(1, num_days):
            failed = ~self.ok[day]
            self.y_hat[day, failed] = self.y_hat[day - 1, failed][:, older]


def evaluate_predictor(records, predictions) -> float:
    """Mean window MSE between exported targets and predictions.

    ``records`` are exported training records (dicts with run_id,
    agent_id, day, targets); ``predictions`` are dicts with the same keys
    and y_hat. Every record must have a matching prediction of the same
    window length; extra predictions are ignored. An entry that is not a
    dict holding agent_id, day and its targets or y_hat, an agent_id or day
    that is not an integer (a string, a bool or a fractional value), or
    targets or a y_hat that are not finite numbers (a null, a NaN, an
    infinity, a bool, a string, an object or a ragged list), or a run_id
    that is present and not a string, is a ValueError naming the entry's
    index in its list, and the key if one is at fault.
    """
    table = {}
    for i, pred in enumerate(predictions):
        key = _key(pred, "y_hat", "prediction", i)
        table[key] = _y_hat(pred, "y_hat", "prediction", i, null=False)
    total = 0.0
    n = 0
    for i, rec in enumerate(records):
        key = _key(rec, "targets", "record", i)
        if key not in table:
            raise ValueError(f"missing prediction for record {key}")
        target = _y_hat(rec, "targets", "record", i, null=False)
        y_hat = table[key]
        if y_hat.shape != target.shape:
            raise ValueError(f"window length mismatch for record {key}")
        total += float(np.mean((target - y_hat) ** 2))
        n += 1
    if n == 0:
        raise ValueError("no records to evaluate")
    return total / n
