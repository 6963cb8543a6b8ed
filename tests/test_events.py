"""Tests for detection-event simulation, binning, and extraction."""

import math
import re
import tracemalloc

import numpy as np
import pytest

import oracles
from pathqrng import events


def make_stream(timestamps, channels, duration_s=1.0, bin_width_us=1.0):
    header = events.StreamHeader(phi=0.0, theta=0.0, duration_s=duration_s,
                                 bin_width_us=bin_width_us, seed=0)
    return events.EventStream(header, np.asarray(timestamps, dtype=np.int64),
                              np.asarray(channels, dtype=np.uint8))


class TestSimulateEvents:
    def test_zero_rate_gives_empty_stream(self):
        s = events.simulate_events((0.25, 0.25, 0.25, 0.25), rate_hz=0.0, duration_s=1.0)
        assert len(s) == 0
        assert s.timestamps_ns.dtype == np.int64
        assert s.channels.dtype == np.uint8

    def test_degenerate_distribution_fires_one_channel(self):
        s = events.simulate_events((1.0, 0.0, 0.0, 0.0), rate_hz=5e4, duration_s=0.1, seed=3)
        assert len(s) > 0
        assert np.all(s.channels == 0)

    def test_timestamps_are_bin_starts_within_duration(self):
        s = events.simulate_events((0.5, 0.0, 0.0, 0.5), rate_hz=1e5, duration_s=0.01,
                                   bin_width_us=2.0, seed=7)
        assert np.all(s.timestamps_ns % 2000 == 0)
        assert np.all(np.diff(s.timestamps_ns) >= 0)
        assert s.timestamps_ns[-1] < 0.01 * 1e9

    def test_counts_match_binomial_at_120khz(self):
        s = events.simulate_events((0.5, 0.0, 0.0, 0.5), rate_hz=1.2e5, duration_s=1.0, seed=11)
        total = len(s)
        # Poisson(120000) total, then a fair UF/DN split
        assert 120000 - 4 * math.sqrt(120000) < total < 120000 + 4 * math.sqrt(120000)
        lo, hi = oracles.binomial_bounds(total, 0.5)
        n_uf = int(np.sum(s.channels == 0))
        assert lo <= n_uf <= hi
        assert not np.any((s.channels == 1) | (s.channels == 2))

    def test_same_seed_reproduces_stream(self):
        a = events.simulate_events((0.4, 0.1, 0.2, 0.3), 1e5, 0.05, seed=21)
        b = events.simulate_events((0.4, 0.1, 0.2, 0.3), 1e5, 0.05, seed=21)
        c = events.simulate_events((0.4, 0.1, 0.2, 0.3), 1e5, 0.05, seed=22)
        assert np.array_equal(a.timestamps_ns, b.timestamps_ns)
        assert np.array_equal(a.channels, b.channels)
        assert not (np.array_equal(a.timestamps_ns, c.timestamps_ns)
                    and np.array_equal(a.channels, c.channels))

    def test_metadata_is_carried(self):
        s = events.simulate_events((1.0, 0.0, 0.0, 0.0), 1e4, 0.01, seed=5,
                                   phi=-0.576, theta=-1.11)
        assert s.header.phi == -0.576 and s.header.theta == -1.11
        assert s.header.rate_hz == 1e4 and s.header.seed == 5

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            events.simulate_events((1.0, 0.0, 0.0, 0.0), rate_hz=-1.0, duration_s=1.0)

    @pytest.mark.parametrize("rate_hz", [math.nan, math.inf])
    def test_non_finite_rate_rejected(self, rate_hz):
        with pytest.raises(ValueError, match="finite and non-negative"):
            events.simulate_events((1.0, 0.0, 0.0, 0.0), rate_hz=rate_hz, duration_s=1.0)

    def test_saturated_bins_rejected(self):
        with pytest.raises(ValueError, match="< 1"):
            events.simulate_events((1.0, 0.0, 0.0, 0.0), rate_hz=1e6, duration_s=1.0,
                                   bin_width_us=1.0)

    def test_duration_below_one_bin_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            events.simulate_events((1.0, 0.0, 0.0, 0.0), rate_hz=1e3, duration_s=5e-7)

    @pytest.mark.parametrize("duration_s, bin_width_us", [(math.inf, 1.0), (math.nan, 1.0),
                                                          (1.0, math.inf)])
    def test_non_finite_duration_rejected(self, duration_s, bin_width_us):
        with pytest.raises(ValueError, match="positive and finite"):
            events.simulate_events((1.0, 0.0, 0.0, 0.0), rate_hz=0.0, duration_s=duration_s,
                                   bin_width_us=bin_width_us)

    def test_bad_distribution_rejected(self):
        with pytest.raises(ValueError):
            events.simulate_events((0.9, 0.0, 0.0, 0.3), rate_hz=1e3, duration_s=0.01)
        with pytest.raises(ValueError):
            events.simulate_events((-0.1, 0.5, 0.3, 0.3), rate_hz=1e3, duration_s=0.01)

    @staticmethod
    def duration_of(n_bins):
        # half a bin past n_bins whole 1 us bins, so float rounding cannot move the count
        duration_s = (n_bins * 1000 + 500) / 1e9
        assert int(duration_s * 1e9) // 1000 == n_bins
        return duration_s

    @pytest.mark.parametrize("extra", [-1, 0, 1, None], ids=["chunk-1", "chunk", "chunk+1",
                                                             "3chunk+5"])
    def test_chunked_draws_match_one_shot_oracle(self, extra):
        chunk = events._SIM_CHUNK
        n_bins = 3 * chunk + 5 if extra is None else chunk + extra
        dist = np.array([0.4, 0.1, 0.2, 0.3])
        for rate_hz, seed in ((1.2e5, 1), (9e5, 7), (0.0, 2)):
            s = events.simulate_events(dist, rate_hz, self.duration_of(n_bins), seed=seed)
            ts, ch = oracles.simulate_events_one_shot(dist, rate_hz, self.duration_of(n_bins),
                                                      seed=seed)
            assert s.timestamps_ns.dtype == np.int64 and s.channels.dtype == np.uint8
            assert np.array_equal(s.timestamps_ns, ts) and np.array_equal(s.channels, ch)
            assert (len(s) == 0) == (rate_hz == 0.0)

    def test_chunks_without_records_match_one_shot_oracle(self):
        # about 2.4 records over four chunks: whole chunks draw no record
        chunk = events._SIM_CHUNK
        duration_s = self.duration_of(3 * chunk + 5)
        s = events.simulate_events((0.25,) * 4, 3.0, duration_s, seed=4)
        ts, ch = oracles.simulate_events_one_shot((0.25,) * 4, 3.0, duration_s, seed=4)
        assert np.array_equal(s.timestamps_ns, ts) and np.array_equal(s.channels, ch)
        filled = np.unique(s.timestamps_ns // 1000 // chunk)
        assert 0 < filled.size < 4

    def test_memory_grows_with_records_not_bins(self):
        # 5,000,000 bins and about 5,000 records: drawing every bin at once
        # peaks near 80 MB traced, one chunk at a time near 5 MB
        tracemalloc.start()
        try:
            s = events.simulate_events((0.25,) * 4, 1e3, 5.0, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 4000 < len(s) < 6000
        assert peak < 16e6, f"traced peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("rate_hz, duration_s, bin_width_us, message", [
        (0.0, 1e7, 1.0, "more than 1e+11 bins"),
        (0.0, 1e300, 1.0, "int64 nanosecond range"),
        (0.0, 1e10, 1e6, "int64 nanosecond range"),
        (5e5, 1e4, 1.0, "more than 1e+09 records"),
        (0.0, 1.0, 1e306, "int64 nanosecond range"),
    ], ids=["1e13-bins", "overflowing-duration", "1e10-bins-beyond-int64", "5e9-records",
            "overflowing-bin"])
    def test_oversized_stream_refused_before_any_draw(self, monkeypatch, rate_hz, duration_s,
                                                      bin_width_us, message):
        def no_draw(*args, **kwargs):
            raise AssertionError("a generator was made before the stream size was checked")
        monkeypatch.setattr(events.np.random, "default_rng", no_draw)
        with pytest.raises(ValueError, match=re.escape(message)):
            events.simulate_events((0.25,) * 4, rate_hz, duration_s, bin_width_us=bin_width_us)


class TestEventStream:
    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError, match="matching"):
            make_stream([0, 1000], [0])

    def test_decreasing_timestamps_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            make_stream([2000, 1000], [0, 1])

    def test_timestamp_beyond_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            make_stream([0, 2_000_000_000], [0, 1], duration_s=1.0)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            make_stream([], [], duration_s=0.0)
        with pytest.raises(ValueError, match="positive"):
            make_stream([], [], bin_width_us=-1.0)
        for field in ("duration_s", "bin_width_us"):
            for value in (math.inf, math.nan):
                with pytest.raises(ValueError, match="positive and finite"):
                    make_stream([0, 1000], [0, 1], **{field: value})

    def test_duration_beyond_int64_nanoseconds_rejected(self):
        # ceil(duration * 1e9) would overflow to an OverflowError
        for duration_s in (1e300, 9.3e9):
            with pytest.raises(ValueError, match="int64 nanosecond range"):
                make_stream([0], [0], duration_s=duration_s)
        with pytest.raises(ValueError, match="int64 nanosecond range"):
            make_stream([0], [0], bin_width_us=1e306)
        assert len(make_stream([0], [0], duration_s=9.2e9)) == 1

    def test_bin_width_below_1_ns_rejected(self):
        # the same rule as simulate_events: the width is whole nanoseconds
        for width_us in (1e-4, 4e-4, 5e-4):
            with pytest.raises(ValueError, match="below 1 ns"):
                make_stream([0], [0], bin_width_us=width_us)
            with pytest.raises(ValueError, match="below 1 ns"):
                events.simulate_events((1.0, 0.0, 0.0, 0.0), 1e3, 0.01, bin_width_us=width_us)
        assert make_stream([0], [0], bin_width_us=6e-4).header.bin_width_ns == 1

    def test_order_check_makes_no_difference_array(self):
        # np.diff made an int64 temporary of every record (5.4 MB traced here)
        ts = np.arange(600_000, dtype=np.int64) * 1000
        ch = np.zeros(ts.size, dtype=np.uint8)
        tracemalloc.start()
        try:
            make_stream(ts, ch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6, f"traced peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("duration_s, bin_width_us", [(0.0, 1.0), (-1.0, 1.0),
                                                          (1.0, -1.0)])
    def test_simulation_shares_the_stream_timing_checks(self, duration_s, bin_width_us):
        for build in (lambda: make_stream([], [], duration_s, bin_width_us),
                      lambda: events.simulate_events((0.25,) * 4, 0.0, duration_s,
                                                     bin_width_us=bin_width_us)):
            with pytest.raises(ValueError, match="positive and finite"):
                build()

    def test_meta_fields_coerced(self):
        s = events.StreamHeader(phi=np.float64(0.1), theta=0, duration_s=1,
                                bin_width_us=np.int32(1), seed=np.int64(9))
        assert isinstance(s.phi, float) and isinstance(s.duration_s, float)
        assert isinstance(s.seed, int) and s.seed == 9
        assert s.bin_width_ns == 1000

    @pytest.mark.parametrize("channels", [[256, 3], [1.7, 3.2], [-1, 0], [0, 4]])
    def test_channels_must_be_codes(self, channels):
        # a cast to uint8 would wrap 256 to 0 and truncate 1.7 to 1
        header = make_stream([], []).header
        with pytest.raises(ValueError, match="0..3"):
            events.EventStream(header, np.array([0, 5]), np.array(channels))

    @pytest.mark.parametrize("timestamps", [[0.5, 5.9], [0.0, 5.0]])
    def test_timestamps_must_be_integers(self, timestamps):
        # a cast to int64 would truncate 0.5 to 0 and 5.9 to 5
        header = make_stream([], []).header
        with pytest.raises(ValueError, match="integer nanoseconds"):
            events.EventStream(header, np.array(timestamps), np.array([0, 3]))

    def test_integer_records_of_any_width_are_kept(self):
        s = events.EventStream(make_stream([], []).header, np.array([0, 5], dtype=np.uint32),
                               np.array([3, 1], dtype=np.int64))
        assert s.timestamps_ns.dtype == np.int64 and s.timestamps_ns.tolist() == [0, 5]
        assert s.channels.dtype == np.uint8 and s.channels.tolist() == [3, 1]


class TestStreamHeader:
    @pytest.mark.parametrize("field, value, message", [
        ("phi", math.inf, "must be finite"),
        ("phi", math.nan, "must be finite"),
        ("theta", -math.inf, "must be finite"),
        ("rate_hz", math.inf, "finite and non-negative"),
        ("rate_hz", -math.inf, "finite and non-negative"),
        ("rate_hz", math.nan, "finite and non-negative"),
        ("rate_hz", -1.0, "finite and non-negative"),
    ])
    def test_bad_value_rejected(self, field, value, message):
        fields = dict(phi=0.0, theta=0.0, duration_s=1.0, bin_width_us=1.0, seed=0, rate_hz=1.0)
        with pytest.raises(ValueError, match=message):
            events.StreamHeader(**{**fields, field: value})

    def test_rate_may_be_zero_or_absent(self):
        assert events.StreamHeader(0.0, 0.0, 1.0, 1.0, 0, 0.0).rate_hz == 0.0
        assert events.StreamHeader(0.0, 0.0, 1.0, 1.0, 0).rate_hz is None

    def test_fields_coerced_from_text(self):
        h = events.StreamHeader(phi="0.5", theta="-1", duration_s="2", bin_width_us="1.0",
                                seed="7", rate_hz="1e5")
        assert h == events.StreamHeader(0.5, -1.0, 2.0, 1.0, 7, 100000.0)
        assert isinstance(h.seed, int) and isinstance(h.theta, float)


class TestBinAndResolve:
    def test_singleton_bins_pass_through(self):
        s = make_stream([0, 1000, 2000, 7000], [0, 3, 1, 2])
        out = events.bin_and_resolve(s)
        assert out.dtype == np.uint8 and out.tolist() == [0, 3, 1, 2]

    def test_empty_stream_gives_empty_outcomes(self):
        s = make_stream([], [])
        assert events.bin_and_resolve(s).size == 0

    def test_fired_ties_split_evenly(self):
        # 20000 bins, each holding one UF and one DN record
        n = 20000
        ts = np.repeat(np.arange(n, dtype=np.int64) * 1000, 2)
        ch = np.tile([0, 3], n)
        out = events.bin_and_resolve(make_stream(ts, ch), tie_seed=40)
        assert out.size == n
        assert set(out.tolist()) == {0, 3}
        lo, hi = oracles.binomial_bounds(n, 0.5)
        assert lo <= int(np.sum(out == 0)) <= hi

    def test_fired_never_invents_channels(self):
        n = 500
        ts = np.repeat(np.arange(n, dtype=np.int64) * 1000, 3)
        ch = np.tile([0, 0, 1], n)
        out = events.bin_and_resolve(make_stream(ts, ch), tie_seed=1)
        assert set(out.tolist()) <= {0, 1}

    def test_uniform4_ties_cover_all_channels(self):
        n = 40000
        ts = np.repeat(np.arange(n, dtype=np.int64) * 1000, 2)
        ch = np.tile([0, 3], n)
        out = events.bin_and_resolve(make_stream(ts, ch), tie_seed=2, mode="uniform4")
        lo, hi = oracles.binomial_bounds(n, 0.25)
        for c in range(4):
            assert lo <= int(np.sum(out == c)) <= hi

    def test_tie_seed_determinism(self):
        s = events.simulate_events((0.25, 0.25, 0.25, 0.25), 3e5, 0.05, seed=8)
        a = events.bin_and_resolve(s, tie_seed=5)
        b = events.bin_and_resolve(s, tie_seed=5)
        c = events.bin_and_resolve(s, tie_seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            events.bin_and_resolve(make_stream([0], [0]), mode="first")

    @pytest.mark.parametrize("mode", ["fired", "uniform4"])
    @pytest.mark.parametrize("dist, rate_hz, seed", [
        ((0.4, 0.1, 0.2, 0.3), 1.2e5, 61),      # the paper's rate, ~6% multi-click bins
        ((0.25, 0.25, 0.25, 0.25), 9e5, 62),    # multi-click heavy
        ((0.85, 0.05, 0.1, 0.0), 9e5, 63),      # many ties inside one channel
        ((0.25, 0.25, 0.25, 0.25), 0.0, 64),    # empty
    ])
    def test_matches_loop_oracle(self, mode, dist, rate_hz, seed):
        s = events.simulate_events(dist, rate_hz, 0.2, seed=seed)
        for tie_seed in (0, seed):
            got = events.bin_and_resolve(s, tie_seed=tie_seed, mode=mode)
            want = oracles.bin_and_resolve_loop(s, tie_seed=tie_seed, mode=mode)
            assert got.dtype == want.dtype and np.array_equal(got, want)


class TestEstimateProbabilities:
    def test_half_half(self):
        p = oracles.estimate_probabilities([0, 0, 3, 3])
        assert p.shape == (4,) and p.tolist() == [0.5, 0.0, 0.0, 0.5]

    def test_single_outcome(self):
        p = oracles.estimate_probabilities(np.array([0], dtype=np.uint8))
        assert p[0] == 1.0 and p.sum() == 1.0

    def test_integer_codes_accepted(self):
        p = oracles.estimate_probabilities(np.array([0, 1, 1, 3], dtype=np.int64))
        assert p[1] == 0.5 and p[3] == 0.25

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no outcomes"):
            oracles.estimate_probabilities([])

    def test_unknown_label_rejected(self):
        # outcomes are channel codes; labels exist only in the CLI's files
        with pytest.raises(ValueError, match="0..3"):
            oracles.estimate_probabilities(["UF", "XX"])
        with pytest.raises(ValueError, match="0..3"):
            oracles.estimate_probabilities([0, 4])

    def test_large_sample_recovers_distribution(self):
        d = (0.4, 0.1, 0.2, 0.3)
        s = events.simulate_events(d, 1e5, 1.0, seed=13)
        p = oracles.estimate_probabilities(s.channels)
        for c, target in enumerate(d):
            lo, hi = oracles.binomial_bounds(len(s), target)
            assert lo <= p[c] * len(s) <= hi + 0.5


class TestResolvedDistribution:
    def test_small_mean_reduces_to_input(self):
        d = (0.4, 0.1, 0.2, 0.3)
        for mode in ("fired", "uniform4"):
            out = events.resolved_distribution(d, 1e-6, mode=mode)
            assert out.shape == (4,) and np.allclose(out, d, atol=1e-5)

    def test_fired_two_channel_closed_form(self):
        lam = 0.3
        d = (0.5, 0.0, 0.0, 0.5)
        f = -math.expm1(-lam / 2.0)
        occupied = -math.expm1(-lam)
        # UF alone, DN alone, or both fire and the tie splits evenly
        expect_uf = (f * (1.0 - f) + f * f / 2.0) / occupied
        out = events.resolved_distribution(d, lam)
        assert out[0] == pytest.approx(expect_uf, abs=1e-14)
        assert out[3] == pytest.approx(expect_uf, abs=1e-14)
        assert out[1] == 0.0 and out[2] == 0.0

    def test_uniform4_closed_form(self):
        lam = 0.5
        single = lam * math.exp(-lam)
        occupied = -math.expm1(-lam)
        multi = occupied - single
        out = events.resolved_distribution((1.0, 0.0, 0.0, 0.0), lam, mode="uniform4")
        assert out[0] == pytest.approx((single + multi / 4.0) / occupied, abs=1e-14)
        assert out[3] == pytest.approx(multi / 4.0 / occupied, abs=1e-14)

    def test_sums_to_one(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            d = rng.dirichlet(np.ones(4))
            lam = float(rng.uniform(0.01, 0.9))
            for mode in ("fired", "uniform4"):
                out = events.resolved_distribution(d, lam, mode=mode)
                assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_monte_carlo(self):
        d = (0.5, 0.2, 0.2, 0.1)
        lam = 0.3
        for mode, seed in (("fired", 31), ("uniform4", 32)):
            target = events.resolved_distribution(d, lam, mode=mode)
            s = events.simulate_events(d, 3e5, 1.0, seed=seed)
            out = events.bin_and_resolve(s, tie_seed=seed, mode=mode)
            n = out.size
            for c in range(4):
                lo, hi = oracles.binomial_bounds(n, target[c])
                assert lo <= int(np.sum(out == c)) <= hi

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            events.resolved_distribution((1.0, 0.0, 0.0, 0.0), 0.0)
        with pytest.raises(ValueError, match="mode"):
            events.resolved_distribution((1.0, 0.0, 0.0, 0.0), 0.1, mode="last")
        with pytest.raises(ValueError, match="sum to 1"):
            events.resolved_distribution((0.7, 0.0, 0.0, 0.7), 0.1)


class TestWindowedTraces:
    @staticmethod
    def constant_streams(channel_by_stream, duration_s=1.0, per_window=3):
        streams = []
        window_ns = 50_000_000
        n_win = int(duration_s * 1e9) // window_ns
        for ch in channel_by_stream:
            ts = np.sort(np.concatenate(
                [np.arange(per_window, dtype=np.int64) * 1000 + k * window_ns
                 for k in range(n_win)]))
            streams.append(make_stream(ts, np.full(ts.size, ch), duration_s=duration_s))
        return streams

    def test_window_count_and_shapes(self):
        streams = self.constant_streams([0, 0, 0, 0])
        tr = events.windowed_traces(streams, window_s=0.05)
        assert tr.n_windows == 20
        assert tr.probabilities.shape == (4, 20, 4)
        assert tr.chi_values.shape == (20,)
        assert np.allclose(tr.probabilities.sum(axis=2), 1.0, atol=1e-9)

    def test_constant_streams_give_zero_width_interval(self):
        # all-UF streams pin every correlation at +1, so chi = 2 exactly
        tr = events.windowed_traces(self.constant_streams([0, 0, 0, 0]))
        assert np.allclose(tr.chi_values, 2.0)
        assert tr.chi_mean == pytest.approx(2.0)
        assert tr.ci_low == pytest.approx(2.0) and tr.ci_high == pytest.approx(2.0)

    def test_minus_sign_sits_on_second_setting(self):
        # UN records give E = -1; placing them on stream 1 flips its sign
        tr = events.windowed_traces(self.constant_streams([0, 1, 0, 0]))
        assert tr.chi_mean == pytest.approx(4.0)

    def test_interval_uses_normal_quantile(self):
        rng = np.random.default_rng(23)
        streams = []
        for i in range(4):
            s = events.simulate_events((0.4, 0.1, 0.2, 0.3), 1e5, 1.0, seed=int(rng.integers(1e6)))
            streams.append(s)
        tr = events.windowed_traces(streams, window_s=0.05, confidence=0.99)
        half = 2.5758293035489004 * float(np.std(tr.chi_values, ddof=1)) / math.sqrt(20)
        assert tr.ci_high - tr.chi_mean == pytest.approx(half, rel=1e-12)
        assert tr.chi_mean - tr.ci_low == pytest.approx(half, rel=1e-12)

    def test_too_few_windows_rejected(self):
        streams = self.constant_streams([0, 0, 0, 0], duration_s=0.05)
        with pytest.raises(ValueError, match="two windows"):
            events.windowed_traces(streams, window_s=0.05)

    def test_empty_window_rejected(self):
        good = self.constant_streams([0, 0, 0, 0])
        gap = make_stream([0, 1000, 2000], [0, 0, 0], duration_s=1.0)
        with pytest.raises(ValueError, match="empty"):
            events.windowed_traces([good[0], good[1], good[2], gap])

    def test_sub_ns_window_rejected(self):
        streams = self.constant_streams([0, 0, 0, 0])
        with pytest.raises(ValueError, match="below 1 ns"):
            events.windowed_traces(streams, window_s=4e-10)

    @pytest.mark.filterwarnings("error")
    def test_window_beyond_int64_nanoseconds_rejected(self):
        # 1e300 s is finite, but as nanoseconds it is no int64 width
        streams = self.constant_streams([0, 0, 0, 0])
        with pytest.raises(ValueError, match="window 1e[+]300 s exceeds the int64 nanosecond"):
            events.windowed_traces(streams, window_s=1e300)

    @pytest.mark.parametrize("window_s", [math.inf, math.nan, -0.05])
    def test_non_finite_or_negative_window_rejected(self, window_s):
        streams = self.constant_streams([0, 0, 0, 0])
        with pytest.raises(ValueError, match="positive and finite"):
            events.windowed_traces(streams, window_s=window_s)

    def test_more_windows_than_records_rejected_before_sizing(self):
        # 1000 s in 1 ns windows would be 4e12 cells; three records per
        # stream cannot fill 1e12 windows, so some window is empty
        long = [make_stream([0, 1000, 2000], [0, 0, 0], duration_s=1000.0)] * 4
        with pytest.raises(ValueError, match="empty"):
            events.windowed_traces(long, window_s=1e-9)

    def test_stream_count_and_confidence_validated(self):
        streams = self.constant_streams([0, 0, 0, 0])
        with pytest.raises(ValueError, match="four"):
            events.windowed_traces(streams[:3])
        with pytest.raises(ValueError, match="confidence"):
            events.windowed_traces(streams, confidence=1.0)


class TestRawBits:
    def test_channel_codes(self):
        assert events.raw_bits([0]).tolist() == [0, 0]
        assert events.raw_bits([3, 1]).tolist() == [1, 1, 0, 1]
        bits = events.raw_bits(np.array([0, 1, 2, 3], dtype=np.uint8))
        assert bits.dtype == np.uint8 and bits.tolist() == [0, 0, 0, 1, 1, 0, 1, 1]
        empty = events.raw_bits([])
        assert empty.dtype == np.uint8 and empty.size == 0

    def test_out_of_range_code_rejected(self):
        with pytest.raises(ValueError, match="0..3"):
            events.raw_bits(np.array([0, 4]))

    def test_unknown_label_rejected(self):
        # outcomes are channel codes; labels exist only in the CLI's files
        with pytest.raises(ValueError, match="0..3"):
            events.raw_bits(["UF", "XX"])

    def test_length_is_twice_occupied_bins(self):
        s = events.simulate_events((0.25, 0.25, 0.25, 0.25), 3e5, 0.1, seed=41)
        out = events.bin_and_resolve(s, tie_seed=41)
        bits = events.raw_bits(out)
        occupied = np.unique(s.timestamps_ns // s.header.bin_width_ns).size
        assert len(bits) == 2 * occupied


class TestToeplitzExtract:
    @staticmethod
    def random_bits(n, seed):
        return np.random.default_rng(seed).integers(0, 2, size=n).astype(np.uint8)

    def test_output_length(self):
        bits = self.random_bits(512, 1)
        out = events.toeplitz_extract(bits, 0.33, seed=3)
        # floor(256 * 0.33) - 2 * 32
        assert out.dtype == np.uint8 and len(out) == 20

    def test_matches_row_by_row_multiplication(self):
        bits = self.random_bits(512, 2)
        out = events.toeplitz_extract(bits, 0.33, seed=3)
        assert np.array_equal(out, oracles.toeplitz_rows_extract(bits, len(out), seed=3))

    def test_longer_block_matches_oracle(self):
        bits = self.random_bits(2000, 5)
        out = events.toeplitz_extract(bits, 0.5, seed=11)
        assert len(out) == 436
        assert np.array_equal(out, oracles.toeplitz_rows_extract(bits, 436, seed=11))

    @pytest.mark.parametrize("h_min", [0.2444, 0.9])
    @pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (3, 5)],
                             ids=["L-1", "L", "L+1", "3L+5"])
    def test_blocks_match_one_shot_oracle(self, blocks, extra, h_min):
        # m = floor(n / 2 * h) - 64 is below the block length L except at
        # 3L + 5 bits and h = 0.9, where it is about 1.35 L
        n = blocks * events._TOEPLITZ_BLOCK + extra
        bits = self.random_bits(n, n)
        out = events.toeplitz_extract(bits, h_min, seed=17)
        assert np.array_equal(out, oracles.toeplitz_extract_one_shot(bits, h_min, seed=17))

    @pytest.mark.parametrize("block", [1, 7, 64, 599, 600])
    def test_small_blocks_match_row_by_row_multiplication(self, monkeypatch, block):
        # 600 bits at h = 0.5 give m = 86 sums: blocks shorter and longer
        # than m, a short last block, and one block of the whole input
        monkeypatch.setattr(events, "_TOEPLITZ_BLOCK", block)
        bits = self.random_bits(600, 9)
        out = events.toeplitz_extract(bits, 0.5, seed=13)
        assert len(out) == 86
        assert np.array_equal(out, oracles.toeplitz_rows_extract(bits, 86, seed=13))

    def test_memory_is_blocked(self):
        # the raw bits of a 5 s paper-rate stream at h = 0.2444 (m = 138,300):
        # one transform of all of them peaked at about 31 MB traced, blocks
        # of 2^18 bits at about 19 MB
        bits = self.random_bits(1_132_282, 21)
        tracemalloc.start()
        try:
            out = events.toeplitz_extract(bits, 0.2444, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == 138_300
        assert peak < 24e6, f"traced peak {peak / 1e6:.1f} MB"

    def test_one_inverse_transform_per_hash(self, monkeypatch):
        # 3L + 5 bits are four blocks: two forward transforms each, and the
        # summed spectrum goes through one inverse transform
        calls = {"rfft": 0, "irfft": 0}
        for name in calls:
            def counted(*args, _name=name, _f=getattr(np.fft, name), **kwargs):
                calls[_name] += 1
                return _f(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        n = 3 * events._TOEPLITZ_BLOCK + 5
        out = events.toeplitz_extract(self.random_bits(n, 4), 0.9, seed=2)
        assert len(out) == math.floor(n // 2 * 0.9) - 64
        assert calls == {"rfft": 8, "irfft": 1}

    @pytest.mark.parametrize("block", [3, 7, 16, 40])
    def test_short_last_block_is_padded_to_the_common_offset(self, monkeypatch, block):
        # 37 bits: a short last block of 1, 2, 5 or, at 40, one block of all
        # of them; patterned inputs make a block at the wrong offset change the sums
        monkeypatch.setattr(events, "_TOEPLITZ_BLOCK", block)
        n, m = 37, 11
        x = (np.arange(n) % 3 != 1).astype(np.uint8)
        t = np.arange(n + m - 1, dtype=np.uint32) % 5
        got = np.rint(events._toeplitz_sums(t, x, m))
        assert np.array_equal(got, np.convolve(t, x)[n - 1 : n - 1 + m])

    def test_fft_size_is_smallest_5_smooth_cover(self):
        def smooth(k):
            for p in (2, 3, 5):
                while k % p == 0:
                    k //= p
            return k == 1
        for n in range(1, 3000):
            size = events._fft_size(n)
            assert size >= n and smooth(size)
            assert not any(smooth(k) for k in range(n, size))

    def test_valid_part_has_no_wraparound(self):
        # all-ones inputs make every aliased term show up in the sums
        for n in range(1, 60):
            for m in (1, 2, 5, 17):
                t, x = np.ones(n + m - 1, dtype=np.uint32), np.ones(n, dtype=np.uint8)
                got = np.rint(events._toeplitz_sums(t, x, m))
                assert np.array_equal(got, np.convolve(t, x)[n - 1 : n - 1 + m]), (n, m)

    def test_padded_circular_convolution_matches_oracle(self):
        # n + m - 1 = 1530 + 318 - 1 = 1847 is prime, so the FFT runs at a
        # padded length
        bits = self.random_bits(1530, 8)
        out = events.toeplitz_extract(bits, 0.5, seed=12)
        n, m = len(bits), len(out)
        assert n + m - 1 == 1847 and events._fft_size(n + m - 1) > n + m - 1
        assert np.array_equal(out, oracles.toeplitz_rows_extract(bits, m, seed=12))

    def test_seed_determinism(self):
        bits = self.random_bits(1024, 7)
        assert np.array_equal(events.toeplitz_extract(bits, 0.33, seed=4),
                              events.toeplitz_extract(bits, 0.33, seed=4))
        assert not np.array_equal(events.toeplitz_extract(bits, 0.33, seed=4),
                                  events.toeplitz_extract(bits, 0.33, seed=5))

    def test_hash_is_linear_over_xor(self):
        rng = np.random.default_rng(9)
        x = rng.integers(0, 2, size=512)
        y = rng.integers(0, 2, size=512)
        hx = events.toeplitz_extract(x, 0.5, seed=6)
        hy = events.toeplitz_extract(y, 0.5, seed=6)
        hxy = events.toeplitz_extract(x ^ y, 0.5, seed=6)
        assert np.array_equal(hxy, np.array([int(a) ^ int(b) for a, b in zip(hx, hy)]))

    def test_insufficient_entropy_rejected(self):
        with pytest.raises(ValueError, match="insufficient"):
            events.toeplitz_extract(self.random_bits(128, 3), 0.33)

    def test_parameters_validated(self):
        bits = self.random_bits(512, 4)
        with pytest.raises(ValueError, match="entropy per event"):
            events.toeplitz_extract(bits, 0.0)
        with pytest.raises(ValueError, match="entropy per event"):
            events.toeplitz_extract(bits, 1.5)
        with pytest.raises(ValueError, match="security"):
            events.toeplitz_extract(bits, 0.5, security_eps=1.0)
        with pytest.raises(ValueError, match="0/1"):
            events.toeplitz_extract(np.array([0, 1, 0, 2] * 128), 0.5)
        with pytest.raises(ValueError, match="0/1"):  # 0/1 text is a file format, not bits
            events.toeplitz_extract("01" * 256, 0.5)


class TestPipeline:
    def test_simulate_resolve_estimate_consistency(self):
        d = (0.4, 0.1, 0.2, 0.3)
        s = events.simulate_events(d, 1.2e5, 1.0, seed=53)
        out = events.bin_and_resolve(s, tie_seed=53)
        target = events.resolved_distribution(d, 0.12)
        est = oracles.estimate_probabilities(out)
        n = out.size
        for c in range(4):
            lo, hi = oracles.binomial_bounds(n, target[c])
            assert lo <= est[c] * n <= hi + 0.5
