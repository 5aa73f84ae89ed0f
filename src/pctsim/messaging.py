"""Privacy-constrained risk-message protocol.

App users exchange anonymized risk information in two ways: at encounter
time they record each other's current quantized risk level, and whenever a
user's re-predicted infectiousness history changes on some past day they
send small update messages to the partners recorded for that day.

On the wire a message carries exactly three fields: an opaque rotating
sender token (fresh per sender per day, so repeats within a day are
linkable but days are not), the encounter day, and a 4-bit risk level.
Risk levels quantize a predicted infectiousness in [0, 1] into 16 bins
using 15 ascending cut points.

This module is the wire format and the reference semantics. The engine
in ``core`` simulates the delivery of exactly the messages
:func:`diff_and_emit` would send, on per-day arrays of directed app
contacts, where clustering by (day, sender) takes the place of
clustering by token; it takes only the quantizer and constants from here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

N_RISK_LEVELS = 16
TOKEN_BITS = 64

# Default cut points: 16 equal-width bins on [0, 1]. Deterministic
# bootstrap used until a calibration run supplies quantile thresholds.
DEFAULT_THRESHOLDS = tuple(k / N_RISK_LEVELS for k in range(1, N_RISK_LEVELS))


@dataclass(frozen=True)
class RiskMessage:
    """One update message: (rotating sender token, encounter day, level)."""

    sender_token: int
    encounter_day: int
    risk_level: int


def calibrate_thresholds(samples) -> np.ndarray:
    """Compute 15 ascending risk cut points from observed predictions.

    Cut points sit at the empirical k/16 quantiles of ``samples`` so that
    binning the calibration sample yields approximately uniform bin
    occupancy. Duplicate quantiles (degenerate samples) are spread by
    epsilon spacing so the result is strictly increasing.

    Args:
        samples: predicted infectiousness values in [0, 1], an array or a sequence.

    Returns:
        Array of 15 strictly increasing cut points.

    Raises:
        ValueError: on empty input or values outside [0, 1].
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("calibrate_thresholds: empty sample")
    if not (samples.min() >= 0.0 and samples.max() <= 1.0):  # NaN fails both
        raise ValueError("calibrate_thresholds: samples must lie in [0, 1]")
    qs = np.arange(1, N_RISK_LEVELS) / N_RISK_LEVELS
    cuts = np.quantile(samples, qs)
    eps = 1e-9
    for i in range(1, cuts.size):
        if cuts[i] <= cuts[i - 1]:
            cuts[i] = cuts[i - 1] + eps
    return cuts


def quantize_risk(y_hat, thresholds=DEFAULT_THRESHOLDS):
    """Map predicted infectiousness to a 4-bit risk level.

    The level is the number of cut points strictly below ``y_hat``, which
    makes quantization monotone and puts y_hat=0 in level 0. Values outside
    [0, 1] need no clipping: one at or below the lowest cut gives 0, one
    above the highest cut gives 15, and so does NaN, which no cut is at or
    above.

    Accepts a scalar or an array; returns an int for a scalar and an int8
    array of the same shape for an array.
    """
    cuts = np.asarray(thresholds, dtype=np.float64)
    if cuts.shape != (N_RISK_LEVELS - 1,):
        raise ValueError(f"expected {N_RISK_LEVELS - 1} thresholds, got {cuts.shape}")
    y = np.asarray(y_hat, dtype=np.float64)
    levels = np.full(y.shape, N_RISK_LEVELS - 1, dtype=np.int8)
    at_or_above = np.empty(y.shape, dtype=bool)
    for cut in cuts:  # one level less for every cut at or above y
        levels -= np.less_equal(y, cut, out=at_or_above).view(np.int8)
    if y.ndim == 0:
        return int(levels)
    return levels


def diff_and_emit(prev_hat, new_hat, contact_book, thresholds, *, day, own_tokens):
    """Emit update messages for days whose quantized estimate changed.

    Both estimate vectors are aligned newest-first over the same window
    [day - d_max, day] (slot k covers absolute day ``day - k``). For every
    slot where the quantized levels differ, one message per distinct
    partner token recorded on that day is produced, carrying the sender's
    rotating token for that day. Sub-bin changes emit nothing.

    Args:
        prev_hat: previous estimate, already aligned to today's window.
        new_hat: freshly predicted estimate for today's window.
        contact_book: mapping absolute day -> iterable of partner tokens
            (a mapping token -> count also works; keys are used).
        thresholds: 15 ascending cut points.
        day: absolute index of today (slot 0).
        own_tokens: mapping absolute day -> this agent's token that day.

    Returns:
        List of (recipient_token, RiskMessage) pairs. The recipient token
        is routing metadata, not part of the wire payload.
    """
    prev_hat = np.asarray(prev_hat, dtype=np.float64)
    new_hat = np.asarray(new_hat, dtype=np.float64)
    if prev_hat.shape != new_hat.shape:
        raise ValueError("diff_and_emit: window length mismatch")
    prev_q = quantize_risk(prev_hat, thresholds)
    new_q = quantize_risk(new_hat, thresholds)
    out = []
    for k in np.nonzero(prev_q != new_q)[0]:
        d_enc = day - int(k)
        partners = contact_book.get(d_enc)
        if not partners:
            continue
        token = own_tokens[d_enc]
        level = int(new_q[k])
        for rcpt in partners:
            out.append((rcpt, RiskMessage(token, d_enc, level)))
    return out


def cluster_inbox(inbox):
    """Cluster received messages into per-day (level, repeat count) pairs.

    Messages are grouped by (encounter day, risk level); within a group,
    messages bearing the same rotating token are treated as repeat
    encounters with one sender and collapse into a single entry with its
    repeat count incremented. Distinct tokens stay separate entries, so
    the sum of repeat counts always equals the inbox size.

    Returns:
        Dict mapping encounter day -> sorted tuple of (level, count).
    """
    groups: dict[int, dict[tuple[int, int], int]] = {}
    for msg in inbox:
        per_day = groups.setdefault(msg.encounter_day, {})
        key = (msg.risk_level, msg.sender_token)
        per_day[key] = per_day.get(key, 0) + 1
    return {
        d: tuple(sorted((lvl, n) for (lvl, _tok), n in per_day.items()))
        for d, per_day in groups.items()
    }


def pack_message(msg: RiskMessage, today: int) -> bytes:
    """Serialize a message to the 9-byte wire record.

    Layout (big-endian): 64-bit token, then one byte holding the day
    offset in the high nibble and the risk level in the low nibble. Both
    nibble fields are hard 4-bit: values outside 0..15 are rejected.
    """
    offset = today - msg.encounter_day
    if not 0 <= offset <= 15:
        raise ValueError(f"day offset {offset} does not fit in 4 bits")
    if not 0 <= msg.risk_level <= 15:
        raise ValueError(f"risk level {msg.risk_level} does not fit in 4 bits")
    if not 0 <= msg.sender_token < (1 << TOKEN_BITS):
        raise ValueError("token does not fit in 64 bits")
    return ((msg.sender_token << 8) | (offset << 4) | msg.risk_level).to_bytes(9, "big")


def unpack_message(payload: bytes, today: int) -> RiskMessage:
    """Inverse of :func:`pack_message` relative to the same ``today``."""
    if len(payload) != 9:
        raise ValueError(f"wire record must be 9 bytes, got {len(payload)}")
    raw = int.from_bytes(payload, "big")
    return RiskMessage(
        sender_token=raw >> 8,
        encounter_day=today - ((raw >> 4) & 0xF),
        risk_level=raw & 0xF,
    )
