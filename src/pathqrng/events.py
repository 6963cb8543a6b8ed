"""Detection-event simulation, binning, and randomness extraction.

Arrivals in each time bin are Poisson, and each arrival lands in one of
the four detector channels according to the chip's output distribution.
Streams are drawn per occupied bin, not per bin: the gaps between occupied
bins are geometric and each occupied bin's count is zero-truncated
Poisson, the same law at about one draw per record.  Bit extraction takes
one outcome per occupied bin, the channel of the bin's first record: one
photon's outcome, drawn from the chip's distribution however many records
share the bin.  Bell statistics use all the raw records.

A stream is a :class:`StreamHeader`, which holds and checks its scalars,
plus its records as blocks of (timestamps, channels); a consumer reads only
``stream.header`` and ``stream.blocks()``.  :func:`simulate_blocks` draws
the blocks ``_SIM_CHUNK`` bins at a time, records and channels together, so
a simulation holds one block; :func:`bin_and_resolve` and
:func:`windowed_traces` reduce any stream block by block, so a file read
block by block is never held whole.  An :class:`EventStream` holds a
header and all its records.

Every stream time (duration, bin width, window) passes one check: positive,
finite and, before it is scaled, below the int64 nanosecond range of the
timestamps.  Bin widths and windows are then whole nanoseconds, at least 1.
The records pass one check too, :func:`checked_blocks`, block by block:
timestamps non-negative, non-decreasing across block edges as well, and
below the duration.

The extractor is a seeded Toeplitz hash, computed as an FFT convolution
reduced mod 2, so that megabit inputs stay fast without any matrix
materialization.  The input is hashed in blocks of L = ``_TOEPLITZ_BLOCK``
bits (overlap-add): each block's share of the m output sums is the valid
part of its convolution with an (m + L - 1)-bit slice of the one seed
row.  A short last block is padded on the left to L bits, which puts its
valid part at the same offset as every other block's, so the blocks'
spectra add up into one, and a single inverse transform gives all m sums
before the reduction mod 2.  The transforms are sized by the block, not
the whole input: the linear convolution at the valid indices has no
wrap-around partner in a circular convolution of any length >= m + L - 1,
so each FFT runs at the smallest 2^a 3^b 5^c length that covers m + L - 1.

Channels are basis indices throughout: streams and their outcomes hold
``uint8`` codes 0..3, distributions are float arrays in basis order, and
raw and extracted bits are ``uint8`` arrays of 0 and 1.  Labels and 0/1
text exist only in the files ``pathqrng.formats`` reads and writes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Iterable, Iterator, Sequence

import numpy as np

from .bell import chi_from_coefficients, correlation_coefficient


def _distribution(p: Sequence[float] | np.ndarray) -> np.ndarray:
    """A 4-outcome distribution in basis order as a float array.

    It must have 4 entries, none negative, summing to 1 within 1e-9; it is
    not renormalized here, since the sampler's CDF is scaled to end at 1.
    """
    arr = np.asarray(p, dtype=float)
    if arr.shape != (4,):
        raise ValueError(f"distribution must have 4 entries, got shape {arr.shape}")
    if not (arr.min() >= 0.0 and abs(float(arr.sum()) - 1.0) <= 1e-9):
        raise ValueError("distribution must be non-negative and sum to 1")
    return arr


#: bins per block of :func:`simulate_blocks`, whose records and draws are all
#: that a simulation holds
_SIM_CHUNK = 1 << 16
#: the most bins and expected records one simulated stream may hold, checked
#: before any draw: 1e11 bins is about a day at 1 us bins, and 1e9 records
#: take about 9 GB as timestamps and channels
_MAX_BINS = 1e11
_MAX_RECORDS = 1e9
#: nanosecond counts from here on do not fit an int64 timestamp
_INT64_LIMIT_NS = 2.0 ** 63
#: nanoseconds per unit of the times the streams are given in
_UNIT_NS = {"s": 1e9, "us": 1e3}


def _ns(name: str, value: float, unit: str) -> float:
    """A time in nanoseconds, as a float, once it is checked positive, finite and
    below the int64 nanosecond range; the range is checked on ``value`` itself,
    so a product that would overflow to inf is never formed."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} {value!r} {unit} must be positive and finite")
    if value >= _INT64_LIMIT_NS / _UNIT_NS[unit]:
        raise ValueError(f"{name} {value!r} {unit} exceeds the int64 nanosecond range")
    return value * _UNIT_NS[unit]


def _whole_ns(name: str, value: float, unit: str) -> int:
    """:func:`_ns` rounded to whole nanoseconds; a result below 1 ns is rejected."""
    ns = int(round(_ns(name, value, unit)))
    if ns < 1:
        raise ValueError(f"{name} {value!r} {unit} is below 1 ns")
    return ns


#: a block of records: int64 timestamps and uint8 channel codes of one length
Block = tuple[np.ndarray, np.ndarray]


def record_block(timestamps: Sequence[int] | np.ndarray,
                 channels: Sequence[int] | np.ndarray) -> Block:
    """A block of records as int64 timestamps and uint8 channel codes,
    converted by value: matching 1-d arrays or sequences, the timestamps
    integers below 2^63 ns, the channels codes 0..3."""
    ts, ch = np.asarray(timestamps), np.asarray(channels)
    if ts.shape != ch.shape or ts.ndim != 1:
        raise ValueError("timestamps and channels must be matching 1-d arrays")
    if ts.size and ts.dtype.kind not in "iu":
        raise ValueError(f"timestamps must be integer nanoseconds, not {ts.dtype}")
    if ts.dtype == np.uint64 and ts.size and ts.max() >= 2 ** 63:
        raise ValueError("timestamp beyond the int64 nanosecond range")
    return ts.astype(np.int64, copy=False), _check_codes(ch)


def checked_blocks(blocks: Iterable[Block], header: StreamHeader) -> Iterator[Block]:
    """The blocks, passed on as they come, held to the record rules of the
    stream ``header`` describes: timestamps non-negative and non-decreasing,
    across block edges too, and the last below ``header.duration_ns``.  A
    break is raised only after the last block, so that whatever the blocks'
    source checks on the way, such as a file's grammar, is reported first."""
    last, ordered = 0, True
    for ts, ch in blocks:
        if ts.size:
            # a comparison of neighbours, with no int64 temporary of differences
            ordered = ordered and not (ts[0] < last or (ts[1:] < ts[:-1]).any())
            last = int(ts[-1])
        yield ts, ch
    if not ordered:
        raise ValueError("timestamps must be non-negative and non-decreasing")
    if last >= int(math.ceil(header.duration_ns)):
        raise ValueError("timestamp beyond the stream duration")


@dataclass(frozen=True)
class StreamHeader:
    """The scalars of one angle setting's stream, each coerced to its type
    and checked here, once.

    The angles must be finite, the duration and bin width pass the stream
    time checks, and the rate, which a stream may leave out, must be finite
    and non-negative.  The times are kept as ``duration_ns`` (a float) and
    ``bin_width_ns`` (whole), which every consumer reads; they are not
    fields, since the fields are the keys of an event file's header.
    """

    phi: float
    theta: float
    duration_s: float
    bin_width_us: float
    seed: int
    rate_hz: float | None = None

    def __post_init__(self) -> None:
        for name in ("phi", "theta", "duration_s", "bin_width_us"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "seed", int(self.seed))
        if self.rate_hz is not None:
            object.__setattr__(self, "rate_hz", float(self.rate_hz))
        if not (math.isfinite(self.phi) and math.isfinite(self.theta)):
            raise ValueError(f"angles phi={self.phi!r}, theta={self.theta!r} must be finite")
        object.__setattr__(self, "duration_ns", _ns("duration", self.duration_s, "s"))
        object.__setattr__(self, "bin_width_ns", _whole_ns("bin width", self.bin_width_us, "us"))
        if self.rate_hz is not None and not 0.0 <= self.rate_hz < math.inf:
            raise ValueError(f"rate {self.rate_hz!r} Hz must be finite and non-negative")


@dataclass(frozen=True)
class EventStream:
    """A stream held whole: its header and all its records.

    Timestamps are bin start times in integer nanoseconds, non-decreasing
    and below the duration; ``channels`` holds detector indices 0..3 in the
    fixed channel order.
    """

    header: StreamHeader
    timestamps_ns: np.ndarray
    channels: np.ndarray

    def __post_init__(self) -> None:
        ts, ch = record_block(self.timestamps_ns, self.channels)
        object.__setattr__(self, "timestamps_ns", ts)
        object.__setattr__(self, "channels", ch)
        for _ in checked_blocks(self.blocks(), self.header):
            pass

    def __len__(self) -> int:
        return int(self.timestamps_ns.size)

    def blocks(self) -> Iterator[Block]:
        """The records as one block, the form every block consumer reads."""
        yield self.timestamps_ns, self.channels


def simulate_blocks(header: StreamHeader,
                    distribution: Sequence[float] | np.ndarray) -> Iterator[Block]:
    """Monte Carlo detection stream of ``header`` for one output
    distribution, as an iterator of record blocks.

    The header gives the times, the rate, which it must hold, and the seed.
    Each of the ``duration / bin_width`` time bins receives a Poisson number
    of records with mean ``lam = rate * bin_width`` (which must stay below
    one record per bin for the model to make sense), and every record picks
    a channel independently from ``distribution`` (4,), in basis order.

    Only occupied bins are drawn, with the same law: the gaps between them
    are Geometric(q), q = 1 - e^-lam, as ``1 + floor(-log1p(-U) / lam)``,
    each clipped to the stream before its int64 cast; an occupied bin's
    count is zero-truncated Poisson(lam), one uniform's place in a CDF table
    that ends where the tail is below 2^-53 (:func:`_counts`); and each
    record's channel is one uniform's place in the channel CDF
    (:func:`_channels`).  Each block is the
    ``_SIM_CHUNK`` bins from ``lo``, one per chunk, empty ones too, and draws
    its gaps (sized to its expected occupied bins and a margin), then its
    counts, then its channels, as it is taken; so the iterator holds one
    block.  A stream of more than ``_MAX_BINS`` bins or ``_MAX_RECORDS``
    expected records is refused first.
    """
    p = _distribution(distribution)
    if header.rate_hz is None:
        raise ValueError("a simulated stream needs a rate")
    rate_hz, duration_s, bin_ns = header.rate_hz, header.duration_s, header.bin_width_ns
    mean_per_bin = rate_hz * header.bin_width_us * 1e-6
    if mean_per_bin >= 1.0:
        raise ValueError(f"mean records per bin {mean_per_bin!r} must be < 1; "
                         "shrink the bin or the rate")
    # compared as floats, before any int() of a product that may overflow
    if header.duration_ns / bin_ns > _MAX_BINS:
        raise ValueError(f"duration {duration_s!r} s gives more than {_MAX_BINS:g} bins "
                         f"of {header.bin_width_us!r} us")
    if rate_hz * duration_s > _MAX_RECORDS:
        raise ValueError(f"rate {rate_hz!r} Hz x duration {duration_s!r} s expects more "
                         f"than {_MAX_RECORDS:g} records")
    n_bins = int(header.duration_ns) // bin_ns
    if n_bins < 1:
        raise ValueError("duration shorter than one bin")

    def blocks() -> Iterator[Block]:
        rng = np.random.default_rng(header.seed)
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        counts_cdf = _count_cdf(mean_per_bin)
        occupied = -math.expm1(-mean_per_bin)
        # occupied bins drawn and not yet taken, and the last one drawn; at rate 0
        # the last one lies past the stream, so no gap is drawn
        ahead, last = np.empty(0, dtype=np.int64), -1 if mean_per_bin else n_bins
        for lo in range(0, n_bins, _SIM_CHUNK):
            hi = min(lo + _SIM_CHUNK, n_bins)
            while last < hi:  # gaps for this block's expected occupied bins, and a margin
                want = occupied * (hi - last)
                e = rng.random(int(want + 4.0 * math.sqrt(want)) + 16)
                np.negative(e, out=e)
                np.log1p(e, out=e)
                # max(log1p(-U), -cap) / -lam is min(-log1p(-U), cap) / lam exactly: the
                # gap clipped to n_bins + 1 bins before the cast, however small lam is
                np.maximum(e, -mean_per_bin * (n_bins + 1), out=e)
                e /= -mean_per_bin
                gaps = e.astype(np.int64)
                gaps += 1
                gaps[0] += last  # the cumulative sum then starts from the last bin drawn
                np.cumsum(gaps, out=gaps)
                ahead = np.concatenate((ahead, gaps)) if ahead.size else gaps
                last = int(ahead[-1])
            k = int(ahead.searchsorted(hi))
            ts = np.repeat(ahead[:k] * bin_ns, _counts(rng.random(k), counts_cdf))
            ahead = ahead[k:]
            yield ts, _channels(rng.random(ts.size), cdf)

    return blocks()


@functools.lru_cache
def _count_cdf(mean_per_bin: float) -> np.ndarray:
    """The zero-truncated Poisson law of mean ``mean_per_bin`` as a CDF on k = 1, 2, ...:
    p_1 = lam / (e^lam - 1), then p_k = p_(k-1) lam / k, up to the first term
    below 2^-53, scaled to end at exactly 1.  It depends on lam alone, so a
    scan's streams share one table; it is read-only."""
    terms = [mean_per_bin / math.expm1(mean_per_bin) if mean_per_bin else 1.0]
    while terms[-1] >= 2.0 ** -53:
        terms.append(terms[-1] * mean_per_bin / (len(terms) + 1))
    counts_cdf = np.cumsum(terms)
    counts_cdf /= counts_cdf[-1]
    counts_cdf.flags.writeable = False
    return counts_cdf


def _counts(u: np.ndarray, counts_cdf: np.ndarray) -> np.ndarray:
    """Records of each occupied bin, 1 + ``counts_cdf.searchsorted(u, side="right")``.

    ``counts_cdf`` is the zero-truncated Poisson CDF on 1, 2, ..., ending at
    exactly 1, and each ``u`` is a uniform in [0, 1).  Most occupied bins
    hold one record, so only the uniforms at or past the first entry are
    searched.
    """
    counts = np.ones(u.size, dtype=np.int64)
    more = u >= counts_cdf[0]
    counts[more] += counts_cdf.searchsorted(u[more], side="right")
    return counts


def _channels(u: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """uint8 channel of each uniform ``u`` in [0, 1), ``cdf.searchsorted(u, side="right")``.

    ``cdf`` is the 4-channel CDF, whose last entry is exactly 1, so the
    channel is the number of its first three entries at or below ``u``:
    three comparisons, which cost less than numpy's binary search.
    """
    channels = (u >= cdf[0]).view(np.uint8)
    channels += u >= cdf[1]
    channels += u >= cdf[2]
    return channels


def simulate_events(distribution: Sequence[float] | np.ndarray, rate_hz: float,
                    duration_s: float, bin_width_us: float = 1.0, seed: int = 0,
                    phi: float = 0.0, theta: float = 0.0) -> EventStream:
    """The stream of :func:`simulate_blocks` for these header values, as one block."""
    header = StreamHeader(phi, theta, duration_s, bin_width_us, seed, rate_hz)
    ts, ch = zip(*simulate_blocks(header, distribution))
    return EventStream(header, np.concatenate(ts), np.concatenate(ch))


def bin_and_resolve(stream: EventStream) -> np.ndarray:
    """The channel of each occupied bin's first record, in bin order.

    "First" is stream order, which is file order where timestamps are
    equal.  A bin's records draw their channels independently, so the first
    one's channel is one photon's outcome, with the chip's distribution
    that ``bell-scan`` estimates, however many records share the bin.

    ``stream`` is an :class:`EventStream` or any stream with a ``header``
    and ``blocks()``, such as an event file read block by block.  The only
    state carried across a block edge is the previous block's last bin.
    Returns the outcomes' channel codes (``uint8``).
    """
    width = stream.header.bin_width_ns
    parts, last = [np.empty(0, dtype=np.uint8)], -1  # timestamps are non-negative
    for ts, ch in stream.blocks():
        if not ts.size:
            continue
        bins = ts // width
        # firsts[i]: record i opens its bin
        firsts = np.empty(bins.size, dtype=bool)
        firsts[0] = bins[0] != last
        np.not_equal(bins[1:], bins[:-1], out=firsts[1:])
        parts.append(ch[firsts])
        last = int(bins[-1])
    return np.concatenate(parts)


def _check_codes(outcomes: Sequence[int] | np.ndarray) -> np.ndarray:
    """The channel codes of an integer sequence, flat; codes outside 0..3 are rejected."""
    codes = np.asarray(outcomes).ravel()
    if codes.size and (codes.dtype.kind not in "iu" or codes.max() > 3
                       or codes.dtype.kind == "i" and codes.min() < 0):
        raise ValueError("channel codes must be integers 0..3")
    return codes.astype(np.uint8, copy=False)


@dataclass(frozen=True)
class WindowedTrace:
    """Per-window channel probabilities and Bell value over four streams.

    ``probabilities`` has shape (4 settings, n_windows, 4 channels), in the
    CHSH setting order (phi,theta), (phi,theta'), (phi',theta),
    (phi',theta'), and ``correlations`` (4 settings, n_windows) holds each
    window's E.  ``chi_values`` applies the minus sign to the second
    setting.  The confidence interval is the normal-approximation interval
    for the mean of the per-window Bell values.
    """

    window_s: float
    confidence: float
    probabilities: np.ndarray
    correlations: np.ndarray
    chi_values: np.ndarray
    chi_mean: float
    ci_low: float
    ci_high: float

    @property
    def n_windows(self) -> int:
        return int(self.chi_values.size)


def windowed_traces(streams: Iterable[EventStream], window_s: float = 0.05,
                    confidence: float = 0.99) -> WindowedTrace:
    """Slice four CHSH streams into common windows and trace the Bell value.

    Counts every raw record.  Window k holds the records in
    [k w, (k + 1) w) for the integer width w = round(window_s * 1e9) ns,
    which must be at least 1 ns, and a stream has floor(duration / w) whole
    windows, both in nanoseconds.  Needs at least two full windows and at
    least one record per stream in every window.  ``streams`` may be any
    iterable of :class:`EventStream` or of streams with a ``header`` and
    ``blocks()``, such as event files read block by block: each stream is
    reduced to its per-window counts, one block at a time, before the next
    is taken, so a caller that keeps no other reference holds one block at
    a time.  A stream with fewer records than windows is rejected before
    the common windows are sized.  This is the one windowing routine.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    width_ns = _whole_ns("window", window_s, "s")
    windows, records, counts = [], [], []
    for s in streams:
        n_own = int(s.header.duration_ns) // width_ns
        c, n = _window_counts(s, n_own, width_ns)
        counts.append(c)
        windows.append(n_own)
        records.append(n)
        del s  # free this stream before the iterable yields the next
    if len(counts) != 4:
        raise ValueError("need the four CHSH streams in setting order")
    n_win = min(windows)
    if n_win < 2:
        raise ValueError("need at least two windows; shrink the window or extend the run")
    for i in range(4):
        if records[i] < n_win:  # then a window must be empty; say so before sizing them
            raise ValueError(f"stream {i} has an empty {window_s} s window")
    probs = np.empty((4, n_win, 4))
    for i in range(4):
        c = counts[i][:4 * n_win].reshape(n_win, 4).astype(float)
        totals = c.sum(axis=1)
        if np.any(totals == 0):
            raise ValueError(f"stream {i} has an empty {window_s} s window")
        probs[i] = c / totals[:, None]
    es = correlation_coefficient(probs)
    chis = chi_from_coefficients(*es)
    mean = float(chis.mean())
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    half = z * float(chis.std(ddof=1)) / math.sqrt(n_win)
    return WindowedTrace(window_s=window_s, confidence=confidence, probabilities=probs,
                         correlations=es, chi_values=chis, chi_mean=mean,
                         ci_low=mean - half, ci_high=mean + half)


def _window_counts(stream: EventStream, n_own: int, width_ns: int) -> tuple[np.ndarray, int]:
    """Counts per (window, channel), flat, over the first min(n_own, records)
    windows of ``width_ns``, and the stream's record count.

    A record is counted only in the windows before its stream's record
    count so far: in a sorted stream a record past that leaves an earlier
    window empty, which :func:`windowed_traces` refuses anyway.  So the
    counts never outgrow the records, whatever the duration says.
    """
    n, counts = 0, np.zeros(0, dtype=np.int64)
    for ts, ch in stream.blocks():
        n += ts.size
        inside = ts < min(n_own, n) * width_ns
        keys = ts[inside] // width_ns * 4 + ch[inside]
        if keys.size:
            lo = int(keys.min())
            part = np.bincount(keys - lo)
            counts = _grown(counts, lo + part.size)
            counts[lo : lo + part.size] += part
    return _grown(counts, 4 * min(n_own, n)), n


def _grown(counts: np.ndarray, size: int) -> np.ndarray:
    """``counts`` padded with zeros to ``size`` entries, if it has fewer."""
    if counts.size >= size:
        return counts
    return np.concatenate((counts, np.zeros(size - counts.size, dtype=counts.dtype)))


def raw_bits(outcomes: Sequence[int] | np.ndarray) -> np.ndarray:
    """Two bits per outcome (``uint8`` 0/1): the channel code in binary.

    UF -> 00, UN -> 01, DF -> 10, DN -> 11; the first bit is the absolute
    position (U/D), the second the relative one (F/N).
    """
    codes = _check_codes(outcomes)
    pairs = np.empty((codes.size, 2), dtype=np.uint8)
    pairs[:, 0] = codes >> 1
    pairs[:, 1] = codes & 1
    return pairs.ravel()


#: raw bits per overlap-add block of :func:`_toeplitz_sums`, and seed-row
#: bits per draw; the transforms run at a length that covers
#: m + _TOEPLITZ_BLOCK - 1, whatever the input
_TOEPLITZ_BLOCK = 1 << 17


def toeplitz_extract(bits: Sequence[int] | np.ndarray, h_min_bits_per_event: float,
                     security_eps: float = 2.0 ** -32, seed: int = 0) -> np.ndarray:
    """Seeded Toeplitz extraction of the certified entropy from raw bits.

    Each outcome, one photon's, is one certified event: it contributes two
    raw bits but only ``h_min_bits_per_event`` certified ones, so
    ``n = len(bits)`` raw bits hold ``k = n // 2`` events' worth of
    entropy.  The output length is

        m = floor(k * h_min) - ceil(2 * log2(1 / eps)),

    the leftover-hash length at distinguishing advantage ``security_eps``.
    ``bits`` and the result are 1-d arrays of 0 and 1, the result ``uint8``.
    The Toeplitz matrix is generated from ``seed``; same seed, same input,
    same output.  The input is hashed ``_TOEPLITZ_BLOCK`` bits at a time: the
    blocks' spectra are summed and one inverse transform gives the m sums,
    which are rounded, checked for lost integer precision and reduced mod 2
    once, so the output is that of one product with the whole matrix.
    """
    if not 0.0 < h_min_bits_per_event <= 1.0:
        raise ValueError("certified entropy per event must lie in (0, 1]")
    if not 0.0 < security_eps < 1.0:
        raise ValueError("security parameter must lie in (0, 1)")
    x = np.asarray(bits)
    if x.ndim != 1 or (x.size and (x.dtype.kind not in "biu" or x.min() < 0 or x.max() > 1)):
        raise ValueError("raw bits must be a 1-d array of 0/1 values")
    x = x.astype(np.uint8, copy=False)
    n = x.size
    k = n // 2
    # -log2(eps) stays finite where 1 / eps overflows, as for subnormal eps
    m = math.floor(k * h_min_bits_per_event) - math.ceil(-2.0 * math.log2(security_eps))
    if m <= 0:
        raise ValueError(f"insufficient certified entropy ({k} events) for the "
                         f"security parameter; need a longer run")

    # the seed row is drawn as uint32, whose draws fix its bits, a block at a
    # time, and kept as uint8
    rng = np.random.default_rng(seed)
    t = np.empty(n + m - 1, dtype=np.uint8)
    for lo in range(0, t.size, _TOEPLITZ_BLOCK):
        t[lo : lo + _TOEPLITZ_BLOCK] = rng.integers(0, 2, size=min(_TOEPLITZ_BLOCK, t.size - lo),
                                                    dtype=np.uint32)
    # each sum is at most n, far below 2^53, so the FFT convolution rounds
    # back to the exact integers
    sums = _toeplitz_sums(t, x, m)
    ints = np.rint(sums)
    if float(np.max(np.abs(sums - ints), initial=0.0)) > 0.25:
        raise RuntimeError("convolution lost integer precision")
    return (ints.astype(np.int64) & 1).astype(np.uint8)


def _fft_size(n: int) -> int:
    """Smallest 2^a 3^b 5^c that is >= n."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # smallest p35 * 2^a >= n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _toeplitz_sums(t: np.ndarray, x: np.ndarray, m: int) -> np.ndarray:
    """y_i = sum_j t[i - j + n - 1] x_j for i < m, in floating point.

    These are the m valid outputs of the linear convolution t * x, with
    len(t) = n + m - 1.  x is taken L = min(``_TOEPLITZ_BLOCK``, n) bits at a
    time: block [lo, hi) reads only t[n - hi : n - lo + m - 1], and in a
    circular convolution of any length >= m + L - 1 its share of the sums
    sits unaliased at offset L - 1, a short last block's too once it is
    padded on the left to L bits.  So the blocks' spectra add up, and one
    inverse transform gives all m sums.
    """
    n = x.size
    block = min(_TOEPLITZ_BLOCK, n)
    size = _fft_size(m + block - 1)
    spectrum = np.zeros(size // 2 + 1, dtype=complex)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        xb = x[lo:hi]
        if hi - lo < block:
            xb = np.concatenate((np.zeros(block - (hi - lo), dtype=x.dtype), xb))
        part = np.fft.rfft(t[n - hi : n - lo + m - 1], size)
        part *= np.fft.rfft(xb, size)
        spectrum += part
    return np.fft.irfft(spectrum, size)[block - 1 : block - 1 + m]
