"""Message protocol unit tests: quantization, thresholds, diff, cluster, wire."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pctsim import core, messaging
from pctsim.messaging import (
    DEFAULT_THRESHOLDS,
    N_RISK_LEVELS,
    RiskMessage,
    calibrate_thresholds,
    cluster_inbox,
    diff_and_emit,
    pack_message,
    quantize_risk,
    unpack_message,
)


class TestQuantize:
    def test_boundaries(self):
        assert quantize_risk(0.0) == 0
        assert quantize_risk(1.0) == 15

    def test_equal_width_example(self):
        assert quantize_risk(0.47, DEFAULT_THRESHOLDS) == 7

    def test_level_is_count_of_cuts_strictly_below(self):
        # exactly on a cut point belongs to the lower bin
        assert quantize_risk(1 / 16) == 0
        assert quantize_risk(1 / 16 + 1e-12) == 1

    def test_array_input(self):
        levels = quantize_risk(np.array([0.0, 0.25, 0.5, 0.99]))
        assert levels.tolist() == [0, 3, 7, 15]

    def test_rejects_bad_threshold_count(self):
        with pytest.raises(ValueError):
            quantize_risk(0.5, [0.5])

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_monotone(self, y1, y2):
        lo, hi = min(y1, y2), max(y1, y2)
        assert quantize_risk(lo) <= quantize_risk(hi)

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=40), st.floats(0, 1))
    @settings(max_examples=200)
    def test_monotone_under_random_thresholds(self, raw, y):
        rng = np.random.default_rng(sum(int(v * 1000) for v in raw) % 2**32)
        cuts = np.sort(rng.random(15))
        cuts = calibrate_thresholds(cuts) if len(set(cuts)) < 15 else cuts
        lv = quantize_risk(y, cuts)
        assert 0 <= lv <= 15
        if y < cuts[0]:
            assert lv == 0


CONFIG_CUTS = core.load_config(
    Path(__file__).resolve().parents[1] / "configs" / "default.yaml").risk_thresholds
OUTSIDE = (-1e-300, -0.5, np.nextafter(1.0, 2.0), 2.0, np.inf, -np.inf, np.nan)


def _reference_levels(y, cuts):
    """The documented rule by binary search: the count of cuts strictly below y."""
    levels = np.searchsorted(np.asarray(cuts, dtype=np.float64),
                             np.asarray(y, dtype=np.float64), side="left")
    return int(levels) if np.ndim(y) == 0 else levels.astype(np.int8)


def _assert_quantizer_matches(cuts, extra=()):
    """quantize_risk(y, cuts) gives the reference's levels, dtype and shape."""
    c = np.asarray(cuts, dtype=np.float64)
    probes = np.concatenate([c, np.nextafter(c, -np.inf), np.nextafter(c, np.inf),
                             [0.0, -0.0, 5e-324, np.nextafter(1.0, 0.0), 1.0],
                             np.asarray(extra, dtype=np.float64)])
    inside = probes[(probes >= 0.0) & (probes <= 1.0)]
    cases = [inside, np.stack([inside, inside[::-1]]), np.zeros((0, 15)),
             *(np.append(inside, v) for v in OUTSIDE)]
    for y in cases:
        got, want = quantize_risk(y, cuts), _reference_levels(y, cuts)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    for v in (*probes.tolist(), *OUTSIDE):
        got = quantize_risk(v, cuts)
        assert type(got) is int and got == _reference_levels(v, cuts)


class TestQuantizeReference:
    def test_default_thresholds(self):
        _assert_quantizer_matches(DEFAULT_THRESHOLDS)

    def test_config_thresholds(self):
        _assert_quantizer_matches(CONFIG_CUTS)

    @given(st.lists(st.floats(0, 1), min_size=15, max_size=15, unique=True),
           st.lists(st.floats(0, 1), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_random_increasing_thresholds(self, raw, extra):
        _assert_quantizer_matches(sorted(raw), extra)

    @pytest.mark.parametrize("sample", [[0.5] * 100, [0.0] * 40, [1.0] * 40,
                                        [0.2] * 90 + [0.7] * 10])
    def test_degenerate_calibration(self, sample):
        _assert_quantizer_matches(calibrate_thresholds(sample))


class TestCalibrateThresholds:
    def test_uniform_samples_recover_equal_width(self):
        rng = np.random.default_rng(0)
        cuts = calibrate_thresholds(rng.random(10**6))
        expected = np.arange(1, 16) / 16
        assert np.all(np.abs(cuts - expected) < 0.01)

    def test_degenerate_sample_makes_epsilon_ladder(self):
        cuts = calibrate_thresholds([0.5] * 100)
        assert len(cuts) == 15
        assert np.all(np.diff(cuts) > 0)
        assert np.all(np.abs(cuts - 0.5) < 1e-6)

    def test_rebinning_is_uniform(self):
        rng = np.random.default_rng(1)
        samples = rng.beta(0.4, 3.0, 10**5)
        cuts = calibrate_thresholds(samples)
        levels = quantize_risk(samples, cuts)
        occupancy = np.bincount(levels, minlength=16) / samples.size
        assert np.all(np.abs(occupancy - 1 / 16) < 0.01)

    def test_strictly_increasing_always(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = rng.integers(16, 500)
            samples = np.round(rng.random(n), rng.integers(0, 3))
            cuts = calibrate_thresholds(samples)
            assert np.all(np.diff(cuts) > 0)

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            calibrate_thresholds([])
        with pytest.raises(ValueError):
            calibrate_thresholds([0.2, 1.4])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                calibrate_thresholds([0.1, bad, 0.5, 0.7])


class TestDiffAndEmit:
    BOOK = {9: {111: 2}, 10: {222: 1, 333: 1}}
    TOKENS = {d: 1000 + d for d in range(0, 11)}

    def _emit(self, prev, new):
        return diff_and_emit(prev, new, self.BOOK, DEFAULT_THRESHOLDS,
                             day=10, own_tokens=self.TOKENS)

    def test_no_change_no_traffic(self):
        y = np.linspace(0, 0.9, 15)
        assert self._emit(y, y.copy()) == []

    def test_single_day_change_fans_out_to_partners(self):
        prev = np.zeros(15)
        new = np.zeros(15)
        new[1] = 0.8  # slot 1 covers day 9, which has one partner token
        out = self._emit(prev, new)
        assert len(out) == 1
        rcpt, msg = out[0]
        assert rcpt == 111
        assert msg.encounter_day == 9
        assert msg.sender_token == self.TOKENS[9]
        assert msg.risk_level == quantize_risk(0.8)

    def test_three_partner_fanout(self):
        book = {7: {1: 1, 2: 3, 3: 1}}
        out = diff_and_emit(np.zeros(15), np.full(15, 0.9), book,
                            DEFAULT_THRESHOLDS, day=7,
                            own_tokens={d: 50 + d for d in range(-8, 8)})
        assert len(out) == 3
        assert all(m.encounter_day == 7 for _, m in out)

    def test_sub_bin_change_is_silent(self):
        prev = np.full(15, 0.51)
        new = np.full(15, 0.53)  # same bin under equal-width thresholds
        assert quantize_risk(0.51) == quantize_risk(0.53)
        assert self._emit(prev, new) == []

    def test_days_without_partners_emit_nothing(self):
        prev = np.zeros(15)
        new = np.full(15, 1.0)
        out = self._emit(prev, new)
        # only days 9 and 10 have recorded partners: 1 + 2 messages
        assert len(out) == 3

    def test_window_mismatch_rejected(self):
        with pytest.raises(ValueError):
            self._emit(np.zeros(15), np.zeros(14))


class TestClusterInbox:
    def test_same_token_collapses_with_count(self):
        inbox = [RiskMessage(7, 3, 5)] * 5
        assert cluster_inbox(inbox) == {3: ((5, 5),)}

    def test_levels_separate_clusters(self):
        inbox = [RiskMessage(7, 3, 3), RiskMessage(7, 3, 9)]
        assert cluster_inbox(inbox) == {3: ((3, 1), (9, 1))}

    def test_distinct_tokens_stay_separate(self):
        inbox = [RiskMessage(1, 3, 5), RiskMessage(2, 3, 5)]
        assert cluster_inbox(inbox) == {3: ((5, 1), (5, 1))}

    def test_empty(self):
        assert cluster_inbox([]) == {}

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 6),
                              st.integers(0, 15)), max_size=60))
    def test_count_conservation(self, raw):
        inbox = [RiskMessage(tok, day, lvl) for tok, day, lvl in raw]
        clustered = cluster_inbox(inbox)
        total = sum(n for entries in clustered.values() for _, n in entries)
        assert total == len(inbox)


class TestWireFormat:
    @given(st.integers(0, 2**64 - 1), st.integers(0, 15), st.integers(0, 15))
    def test_roundtrip_and_width(self, token, offset, level):
        today = 20
        msg = RiskMessage(token, today - offset, level)
        payload = pack_message(msg, today)
        assert len(payload) == 9
        assert payload[:8] == token.to_bytes(8, "big")
        assert payload[8] == (offset << 4) | level
        assert unpack_message(payload, today) == msg

    def test_rejects_out_of_range_fields(self):
        with pytest.raises(ValueError):
            pack_message(RiskMessage(1, 0, 16), 0)
        with pytest.raises(ValueError):
            pack_message(RiskMessage(1, 0, 5), 16)
        with pytest.raises(ValueError):
            pack_message(RiskMessage(2**64, 0, 5), 0)
        with pytest.raises(ValueError):
            unpack_message(b"\x00" * 8, 0)

    def test_level_field_is_four_bits(self):
        for level in range(16):
            payload = pack_message(RiskMessage(0, 0, level), 0)
            assert payload[8] & 0xF == level
            assert payload[:8] == b"\x00" * 8


def test_default_thresholds_shape():
    assert len(DEFAULT_THRESHOLDS) == N_RISK_LEVELS - 1
    assert all(b > a for a, b in zip(DEFAULT_THRESHOLDS, DEFAULT_THRESHOLDS[1:]))
