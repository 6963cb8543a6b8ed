"""Hand-rolled reference implementations used to pin the fast production code.

Everything in this file is deliberately written the slow, obvious way
(index loops, generic matrix exponentials, off-the-shelf optimizers) so
the vectorized paths in the package are checked against code that shares
no structure with them.
"""

import cmath
import math
import re
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy import linalg, optimize, stats

from pathqrng import bell, certify, chip, events, formats
from pathqrng.bell import ChiResult
from pathqrng.cli import CalibrationError
from pathqrng.formats import CalibrationFit, ValidationError

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
P1 = np.diag([1.0, 0.0]).astype(complex)
P2 = np.diag([0.0, 1.0]).astype(complex)

INV_SQRT2 = 2.0 ** -0.5


def random_unitary(dim, rng):
    """QR of a complex Gaussian, phases fixed so the factor is unique."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def random_pure_state(dim, rng):
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return z / np.linalg.norm(z)


def kron_by_hand(a, b):
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    rows_b, cols_b = b.shape
    out = np.zeros((a.shape[0] * rows_b, a.shape[1] * cols_b), dtype=complex)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            for k in range(rows_b):
                for m in range(cols_b):
                    out[rows_b * i + k, cols_b * j + m] = a[i, j] * b[k, m]
    return out


def is_unitary(m, tol=1e-12):
    """Whether max |M^dag M - I| is within ``tol``."""
    m = np.asarray(m, dtype=complex)
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) <= tol)


def pauli_exponential(varphi, vartheta, n):
    """e^{i varphi} (cos vartheta I + i sin vartheta n.sigma) for a real unit 3-vector n.

    The general parameterization of U(2); ``certify.FactorizedApprox``
    reports its single-qubit factor in these parameters.
    """
    n = np.asarray(n, dtype=float)
    if n.shape != (3,) or abs(np.linalg.norm(n) - 1.0) > 1e-9:
        raise ValueError(f"n must be a real unit 3-vector, got {n!r}")
    ns = n[0] * SX + n[1] * SY + n[2] * SZ
    return np.exp(1j * varphi) * (np.cos(vartheta) * ID2 + 1j * np.sin(vartheta) * ns)


def pauli_exponential_expm(varphi, vartheta, n):
    ns = n[0] * SX + n[1] * SY + n[2] * SZ
    return linalg.expm(1j * (varphi * ID2 + vartheta * ns))


def born_by_loops(state, projector):
    """Tr[rho P] by explicit index sums; accepts a pure vector or a density."""
    rho = np.asarray(state, dtype=complex)
    if rho.ndim == 1:
        rho = np.outer(rho, rho.conj())
    total = 0.0 + 0.0j
    for i in range(rho.shape[0]):
        for j in range(rho.shape[0]):
            total += rho[i, j] * projector[j, i]
    return total.real


def mzi_by_product(z1, z2, t=INV_SQRT2, r=INV_SQRT2):
    """Splitter, doubled-phase shifter, splitter, multiplied out step by step."""
    mmi = np.array([[t, 1j * r], [1j * r, t]], dtype=complex)
    ps = np.array([[np.exp(2j * z1), 0.0], [0.0, np.exp(2j * z2)]], dtype=complex)
    return mmi @ (ps @ mmi)


def stage_block(d, base=0.0):
    """One stage with per-arm shifter offsets d and a base angle on the
    first shifter of both arms; the arm interferometers sit on the second
    tensor factor."""
    m_top = mzi_by_product(base + d[0], d[1])
    m_bot = mzi_by_product(base + d[2], d[3])
    return kron_by_hand(P1, m_top) + kron_by_hand(P2, m_bot)


def hs_error_bound(epsilon, stages=1):
    """First-order bound on the distance to the nearest factorized operator.

    4 epsilon for a single stage, 8 sqrt(2) epsilon for the composed
    two-stage rotation, with epsilon the largest error magnitude.
    """
    if epsilon < 0.0:
        raise ValueError("epsilon must be non-negative")
    if stages == 1:
        return 4.0 * epsilon
    if stages == 2:
        return 8.0 * math.sqrt(2.0) * epsilon
    raise ValueError("stages must be 1 or 2")


def factorized_distance_svd(d):
    """Nearest identity-times-single-qubit operator via unitary Procrustes.

    min over unitary B of sum_k ||M_k - B||_F^2 equals
    8 - 2 * (nuclear norm of M_1 + M_2).
    """
    msum = mzi_by_product(d[0], d[1]) + mzi_by_product(d[2], d[3])
    sv = np.linalg.svd(msum, compute_uv=False)
    return math.sqrt(max(8.0 - 2.0 * float(sv.sum()), 0.0))


def factorized_optimum_svd(d):
    """The arg-min single-qubit factor from the same Procrustes problem."""
    msum = mzi_by_product(d[0], d[1]) + mzi_by_product(d[2], d[3])
    u, _, vh = np.linalg.svd(msum)
    return u @ vh


def factorized_distance_bruteforce(d, restarts=8, seed=0):
    """Multi-start Nelder-Mead over global phase, rotation angle and axis.

    The stage is block diagonal in the branch, diag(M_1, M_2), so its
    squared Frobenius distance to I (x) B is ||M_1 - B||^2 + ||M_2 - B||^2.
    For unitary M_1, M_2 and B = e^{i varphi} (cos vartheta I + i sin vartheta
    n.sigma) that is 8 - 2 Re tr(B^dag S) with S = M_1 + M_2, so each cost
    is scalar arithmetic on tr S and tr(sigma_k S).
    """
    s = mzi_by_product(d[0], d[1]) + mzi_by_product(d[2], d[3])
    tr_s = complex(np.trace(s))
    tr_sigma_s = [complex(np.trace(sigma @ s)) for sigma in (SX, SY, SZ)]

    def cost(p):
        varphi, vartheta, polar, azim = p
        axis = (
            math.sin(polar) * math.cos(azim),
            math.sin(polar) * math.sin(azim),
            math.cos(polar),
        )
        tr_ns = sum(a * t for a, t in zip(axis, tr_sigma_s))
        tr_bs = cmath.exp(-1j * varphi) * (math.cos(vartheta) * tr_s
                                            - 1j * math.sin(vartheta) * tr_ns)
        return math.sqrt(max(8.0 - 2.0 * tr_bs.real, 0.0))

    rng = np.random.default_rng(seed)
    best = math.inf
    for _ in range(restarts):
        p0 = rng.uniform(0.0, math.pi, size=4) * np.array([2.0, 2.0, 1.0, 2.0])
        res = optimize.minimize(
            cost,
            p0,
            method="Nelder-Mead",
            options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 4000},
        )
        best = min(best, float(res.fun))
    return best


def rotation_by_hand(phi_shifts, theta_shifts, mzi_tr=None):
    """Both rotation stages as sums of Kronecker products, multiplied out.

    phi_shifts and theta_shifts are the total phases of the four shifters
    of each stage, in arm order (top first, top second, bottom first,
    bottom second).  mzi_tr optionally gives the (t, r) of each MZI in the
    order phi top, phi bottom, theta far, theta near; ideal 50:50 otherwise.
    """
    if mzi_tr is None:
        mzi_tr = [(INV_SQRT2, INV_SQRT2)] * 4
    m_u = mzi_by_product(phi_shifts[0], phi_shifts[1], *mzi_tr[0])
    m_d = mzi_by_product(phi_shifts[2], phi_shifts[3], *mzi_tr[1])
    u_phi = kron_by_hand(P1, m_u) + kron_by_hand(P2, m_d)

    m_f = mzi_by_product(theta_shifts[0], theta_shifts[1], *mzi_tr[2])
    m_n = mzi_by_product(theta_shifts[2], theta_shifts[3], *mzi_tr[3])
    u_theta = kron_by_hand(m_f, P1) + kron_by_hand(m_n, P2)
    return u_theta @ u_phi


def detection_by_hand(t_gen, r_gen, xi, phi_shifts, theta_shifts, mzi_tr=None):
    """Full transfer-matrix pipeline with every step written out.

    phi_shifts, theta_shifts and mzi_tr are as in rotation_by_hand.
    """
    norm = math.hypot(t_gen, r_gen)
    amps = np.array([t_gen, 0.0, 0.0, 1j * r_gen * np.exp(1j * xi)], dtype=complex) / norm

    out = rotation_by_hand(phi_shifts, theta_shifts, mzi_tr) @ amps
    p = np.abs(out) ** 2
    return p / p.sum()


def alpha_angles(alpha):
    """(phi, phi', theta, theta') realizing chi(alpha) on the ideal chip.

    With E = cos 2(phi - theta) the tuple below gives coefficients
    (cos a, cos 3a, cos a, cos a), whose CHSH combination is exactly
    3 cos(alpha) - cos(3 alpha).
    """
    return (-alpha / 2.0, alpha / 2.0, 0.0, alpha)


SQRT6 = math.sqrt(6.0)


def unbalanced_correlation(phi, theta, eta=1.0 / 3125.0):
    """Closed-form E(phi, theta) for a chip whose splitters are all 40:60.

    ``eta`` is an overall visibility scale; 1/3125 normalizes the loss-free
    transfer-matrix model, while a fitted value absorbs experimental
    visibility reduction.  Term by term:

        eta * ( 5 - 48 sqrt6
                - 24 (5 + 2 sqrt6) cos 2phi
                - 24 (5 + 2 sqrt6) cos 2theta
                + 48 (30 - 13 sqrt6) cos 2(phi + theta)
                + 288 (5 + 2 sqrt6) cos 2(phi - theta) )
    """
    return eta * (5.0 - 48.0 * SQRT6
                  - 24.0 * (5.0 + 2.0 * SQRT6) * math.cos(2.0 * phi)
                  - 24.0 * (5.0 + 2.0 * SQRT6) * math.cos(2.0 * theta)
                  + 48.0 * (30.0 - 13.0 * SQRT6) * math.cos(2.0 * (phi + theta))
                  + 288.0 * (5.0 + 2.0 * SQRT6) * math.cos(2.0 * (phi - theta)))


def binomial_bounds(n, p):
    """Central three-sigma acceptance interval for a binomial count."""
    lo = stats.binom.ppf(0.0013499, n, p)
    hi = stats.binom.ppf(0.9986501, n, p)
    return float(lo), float(hi)


def toeplitz_rows_extract(bits, m, seed):
    """Row-by-row GF(2) Toeplitz product; the matrix rows are slices of the
    seed stream t with row i reading t[i + n - 1 - j] at column j.  Returns
    the m output bits as a uint8 array."""
    n = len(bits)
    x = np.array([int(c) for c in bits], dtype=np.int64)
    t = np.random.default_rng(seed).integers(
        0, 2, size=n + m - 1, dtype=np.uint32
    ).astype(np.int64)
    cols = np.arange(n)
    out = []
    for i in range(m):
        row = t[i + n - 1 - cols]
        out.append(int(row @ x) & 1)
    return np.array(out, dtype=np.uint8)


def toeplitz_extract_one_shot(bits, h_min_bits_per_event, security_eps=2.0 ** -32, seed=0):
    """The extractor as one FFT convolution of all n raw bits with the whole
    (n + m - 1)-bit seed row, at a transform length that grows with n."""
    x = np.asarray(bits, dtype=np.uint8)
    n = x.size
    m = math.floor(n // 2 * h_min_bits_per_event) - math.ceil(-2.0 * math.log2(security_eps))
    t = np.random.default_rng(seed).integers(0, 2, size=n + m - 1, dtype=np.uint32)
    size = events._fft_size(n + m - 1)
    conv = np.fft.irfft(np.fft.rfft(t, size) * np.fft.rfft(x, size), size)[n - 1 : n - 1 + m]
    ints = np.rint(conv)
    assert float(np.max(np.abs(conv - ints))) <= 0.25
    return (ints.astype(np.int64) & 1).astype(np.uint8)


def simulate_events_one_shot(distribution, rate_hz, duration_s, bin_width_us=1.0, seed=0):
    """(timestamps, channel codes) of a stream drawn in one Poisson call over
    every bin, with the timestamps of all bins built and repeated; memory
    grows with the bins, not the records."""
    bin_ns = int(round(bin_width_us * 1000.0))
    n_bins = int(duration_s * 1e9) // bin_ns
    rng = np.random.default_rng(seed)
    counts = rng.poisson(rate_hz * bin_width_us * 1e-6, size=n_bins)
    p = np.asarray(distribution, dtype=float)
    channels = rng.choice(4, size=int(counts.sum()), p=p / p.sum()).astype(np.uint8)
    timestamps = np.repeat(np.arange(n_bins, dtype=np.int64) * bin_ns, counts)
    return timestamps, channels


def simulated_law_failures(timestamps, channels, distribution, rate_hz, duration_s,
                           bin_width_us=1.0, z_max=5.0, p_min=1e-6):
    """The ways a simulated stream breaks the law of per-bin Poisson counts
    with independent channel draws, as messages; an empty list is a pass.

    Checked: records sorted, at bin starts and below the duration; the
    occupied-bin count against Binomial(n_bins, q), q = 1 - e^-lam; the
    multi-click share of the occupied bins against 1 - lam e^-lam / q; a
    chi-square test of the records per occupied bin against the
    zero-truncated Poisson law, its tail cells pooled to an expectation of at
    least 5; and each channel's count against Binomial(records, p_c).  The
    z-tests pass at |z| <= ``z_max``, the chi-square test at p >= ``p_min``.
    """
    bin_ns = int(round(bin_width_us * 1000.0))
    n_bins = int(duration_s * 1e9) // bin_ns
    lam = rate_hz * bin_width_us * 1e-6
    ts, ch = np.asarray(timestamps), np.asarray(channels)
    failures = []
    if ts.size and (ts[0] < 0 or np.any(np.diff(ts) < 0) or ts[-1] >= n_bins * bin_ns
                    or np.any(ts % bin_ns)):
        failures.append("records not sorted bin starts within the duration")

    def z_test(name, count, n, p):
        sd = math.sqrt(n * p * (1.0 - p))
        if (count != n * p) if sd == 0.0 else abs(count - n * p) > z_max * sd:
            failures.append(f"{name} {count} vs {n * p:.2f} +- {sd:.2f}")

    _, per_bin = np.unique(ts, return_counts=True)
    q = -math.expm1(-lam)
    z_test("occupied bins", per_bin.size, n_bins, q)
    if per_bin.size:
        z_test("multi-click bins", int(np.sum(per_bin > 1)), per_bin.size,
               1.0 - lam * math.exp(-lam) / q)
        k_max = int(per_bin.max()) + 1
        pmf = np.array([stats.poisson.pmf(k, lam) for k in range(1, k_max + 1)]) / q
        pmf[-1] = 1.0 - pmf[:-1].sum()  # the last cell holds the whole tail
        observed = np.bincount(per_bin, minlength=k_max + 1)[1:].astype(float)
        expected = per_bin.size * pmf
        while expected.size > 1 and expected[-1] < 5.0:
            observed[-2] += observed[-1]
            expected[-2] += expected[-1]
            observed, expected = observed[:-1], expected[:-1]
        if expected.size > 1:
            p_value = stats.chisquare(observed, expected).pvalue
            if p_value < p_min:
                failures.append(f"records per occupied bin: chi-square p = {p_value:.2e}")
    d = np.asarray(distribution, dtype=float)
    d = d / d.sum()
    counts = np.bincount(ch, minlength=4)
    for c in range(4):
        z_test(f"channel {c}", int(counts[c]), ts.size, float(d[c]))
    return failures


def estimate_probabilities(outcomes):
    """Channel frequencies (4,) of a sequence of channel codes, in basis order."""
    codes = events._check_codes(outcomes)
    if codes.size == 0:
        raise ValueError("no outcomes to estimate from")
    return np.bincount(codes, minlength=4) / codes.size


def chi_stderr(streams, subinterval_s=0.2):
    """Standard error of chi from the scatter over time subintervals.

    Splits the four aligned streams (in CHSH setting order) into the
    consecutive windows of :func:`events.windowed_traces`, takes chi in
    each from the raw channel frequencies, and returns the Bessel-corrected
    sample standard deviation divided by sqrt(N).
    """
    chis = events.windowed_traces(streams, subinterval_s).chi_values
    return float(np.std(chis, ddof=1) / math.sqrt(len(chis)))


def with_labels(stream, labels, seed=0):
    """The stream as simulated ("fired"), or ("uniform4") with every record's
    channel redrawn uniformly over all four, so the records that share a bin
    mostly carry distinct channels.  The timestamps are kept."""
    if labels == "fired":
        return stream
    if labels != "uniform4":
        raise ValueError(f"unknown labels {labels!r}")
    channels = np.random.default_rng(seed).integers(4, size=len(stream)).astype(np.uint8)
    return events.EventStream(stream.header, stream.timestamps_ns, channels)


def bin_and_resolve_loop(stream):
    """The channel of each occupied bin's first record, one record at a time
    in stream order.  Returns the uint8 channel codes."""
    width = stream.header.bin_width_ns
    out, last = [], None
    for t, c in zip(stream.timestamps_ns.tolist(), stream.channels.tolist()):
        if t // width != last:
            out.append(c)
            last = t // width
    return np.array(out, dtype=np.uint8)


def event_file_text_by_lines(stream):
    """An event file built line by line with str formatting."""
    h = stream.header
    lines = ["# pathqrng-events v1",
             f"# phi={h.phi!r}",
             f"# theta={h.theta!r}",
             f"# duration_s={h.duration_s!r}",
             f"# bin_width_us={h.bin_width_us!r}",
             f"# seed={h.seed}"]
    if h.rate_hz is not None:
        lines.append(f"# rate_hz={h.rate_hz!r}")
    lines.append("timestamp_ns\tchannel")
    labels = ("UF", "UN", "DF", "DN")
    lines.extend(f"{int(t)}\t{labels[c]}" for t, c in zip(stream.timestamps_ns, stream.channels))
    return "\n".join(lines) + "\n"


def event_records_by_lines(text):
    """(meta, timestamps, channel codes) of an event file, one line at a time."""
    head, _, body = text.partition("timestamp_ns\tchannel\n")
    meta = dict(line[2:].partition("=")[::2] for line in head.splitlines()[1:])
    return (meta, *parse_records_by_lines(body.encode("utf-8"), "oracle"))


_RECORD = re.compile(rb"([0-9]+)\t(UF|UN|DF|DN)")


def parse_records_by_lines(body, path):
    """Timestamps and channel codes of ``body``'s record lines, one regex match per line.

    Raises the parser's messages at the first bad line in file order; a last
    line without its newline is bad.
    """
    def reject(line, what="malformed record"):
        return ValidationError(f"{path}: {what} {line.decode('utf-8', errors='replace')!r}")

    *lines, tail = bytes(body).split(b"\n")
    ts, ch = [], []
    for line in lines:
        match = _RECORD.fullmatch(line)
        if match is None:
            raise reject(line)
        ts.append(int(match[1]))
        if ts[-1] > 2 ** 63 - 1:
            raise reject(line, "timestamp out of range in record")
        ch.append(formats.CHANNELS.index(match[2].decode()))
    if tail:
        raise reject(tail)
    return np.array(ts, dtype=np.int64), np.array(ch, dtype=np.uint8)


def best_combination_search_loop(grid):
    """The exhaustive CHSH search as a loop over quads and minus placements.

    Evaluates chi for all ordered pairs (phi, phi') and (theta, theta')
    with distinct entries, which covers all four placements of the minus
    sign via relabeling.  Cells with NaN are excluded.  Returns the global
    maximum and minimum; exact ties are broken toward the lexicographically
    smallest (phi, phi', theta, theta') tuple.
    """
    ph = np.asarray(grid.phi_values, dtype=float)
    th = np.asarray(grid.theta_values, dtype=float)
    if ph.size < 2 or th.size < 2:
        raise ValueError("the search needs at least 2 phi values and 2 theta values")
    e = grid.e

    best: dict[str, tuple[float, tuple[float, float, float, float], float] | None] = {
        "max": None, "min": None}

    def consider(chi: float, angles: tuple[float, float, float, float], se: float) -> None:
        for sign, better in (("max", lambda a, b: a > b), ("min", lambda a, b: a < b)):
            cur = best[sign]
            if cur is None or better(chi, cur[0]) or (chi == cur[0] and angles < cur[1]):
                best[sign] = (chi, angles, se)

    # Unordered pairs with all four minus placements enumerate the same set
    # as ordered pairs with a fixed minus position; evaluate the four
    # placements explicitly and relabel so the minus lands on (phi, theta').
    for ia, ib in combinations(range(ph.size), 2):
        for jc, jd in combinations(range(th.size), 2):
            quad = (e[ia, jc], e[ia, jd], e[ib, jc], e[ib, jd])
            if any(not np.isfinite(q) for q in quad):
                continue
            eac, ead, ebc, ebd = quad
            total = eac + ead + ebc + ebd
            se = 0.0
            if grid.stderr is not None:
                ses = (grid.stderr[ia, jc], grid.stderr[ia, jd],
                       grid.stderr[ib, jc], grid.stderr[ib, jd])
                # the same 4 independent cells enter every minus placement
                se = float(np.sqrt(np.nansum(np.square(ses))))
            # minus on (a, c) | (a, d) | (b, c) | (b, d), relabeled tuples
            consider(total - 2.0 * eac, (ph[ia], ph[ib], th[jd], th[jc]), se)
            consider(total - 2.0 * ead, (ph[ia], ph[ib], th[jc], th[jd]), se)
            consider(total - 2.0 * ebc, (ph[ib], ph[ia], th[jd], th[jc]), se)
            consider(total - 2.0 * ebd, (ph[ib], ph[ia], th[jc], th[jd]), se)

    if best["max"] is None or best["min"] is None:
        raise ValueError("grid has no complete angle combination without missing data")
    vmax, amax, semax = best["max"]
    vmin, amin, semin = best["min"]
    return (ChiResult(vmax, amax, stderr=semax, sign="max"),
            ChiResult(vmin, amin, stderr=semin, sign="min"))


# ---------------------------------------------------------------------------
# the correction terms: deviation operators and a seeded search, one start
# and one correlation term at a time
# ---------------------------------------------------------------------------

def chsh_phases(angles, errors):
    """``certify._stage_phases`` of (phi, phi', theta, theta') ``angles`` (..., 4).

    The phi phases are (2, 2, 1, ..., 4) over (ideal, real) x (phi, phi')
    and the theta phases (2, 1, 2, ..., 4) over (ideal, real) x (theta,
    theta'); each stage keeps its own shape and the kernels broadcast them.
    """
    return certify._stage_phases(np.stack([angles[..., 0], angles[..., 1]])[:, None],
                                 np.stack([angles[..., 2], angles[..., 3]])[None], errors)


def chi_deviation_operator(angles, errors, tr):
    """Hermitian operator whose expectation is chi_ideal - chi_real.

    ``angles`` has shape (..., 4) holding (phi, phi', theta, theta').  All
    four correlation terms carry the same fixed error set.  One kernel call
    gives the (2, 2, 2, ...) operators over (ideal, real) x (phi, phi') x
    (theta, theta'), each U^dag ZZ U.
    """
    u = chip.rotation_matrix(*tr, *chsh_phases(angles, errors))
    zz = zz_in_frame(u)
    delta = np.zeros(angles.shape[:-1] + (4, 4), dtype=complex)
    for sign, term in zip(bell.CHSH_SIGNS, (zz[0] - zz[1]).reshape((4,) + zz.shape[3:])):
        delta += sign * term
    return delta


def chi_deviation_operator_loop(angles, errors, tr):
    """chi_ideal - chi_real as an operator, one kernel call per CHSH term."""
    phi, phip, th, thp = (angles[..., k] for k in range(4))
    delta = np.zeros(angles.shape[:-1] + (4, 4), dtype=complex)
    pairs = ((phi, th), (phi, thp), (phip, th), (phip, thp))
    for sign, (p, q) in zip((1.0, -1.0, 1.0, 1.0), pairs):
        ui, ur = chip.rotation_matrix(*tr, *certify._stage_phases(p, q, errors))
        delta += sign * (zz_in_frame(ui) - zz_in_frame(ur))
    return delta


def zz_in_frame(u):
    """U^dag (Z (x) Z) U for batched U."""
    return (np.conj(np.swapaxes(u, -1, -2)) * certify._ZZ_DIAG) @ u


def outcome_deviations(angles, errors, tr):
    """(4, ..., 4, 4): Pi_ideal - Pi_real of each outcome c at (phi, theta).

    U^dag |c><c| U is the outer product of U's row c with itself.
    """
    ui, ur = chip.rotation_matrix(*tr, *certify._stage_phases(angles[..., 0], angles[..., 1],
                                                              errors))
    return np.stack([np.conj(ui[..., c, :, None]) * ui[..., c, None, :]
                     - np.conj(ur[..., c, :, None]) * ur[..., c, None, :] for c in range(4)])


def spectral_norm_hermitian(h):
    w = np.linalg.eigvalsh(h)
    return np.maximum(np.abs(w[..., 0]), np.abs(w[..., -1]))


def norms_below_stacked(h, tau):
    """``certify._norms_below`` on matrices last, (..., 4, 4), over one stacked copy.

    Stacks tau I - h and tau I + h and takes their LDL^H pivots a column at
    a time over the whole trailing square: the same per-entry arithmetic as
    the batch-last kernel, which updates only the lower triangle.
    """
    m = np.stack([-h, h])
    m[..., range(4), range(4)] += tau
    ok = np.ones(m.shape[:-2], dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(4):
            pivot = m[..., k, k].real
            ok &= pivot > 0.0
            col = m[..., k + 1:, k]
            m[..., k + 1:, k + 1:] -= (col / pivot[..., None])[..., :, None] * \
                np.conj(col)[..., None, :]
    return ok[0] & ok[1]


def random_pure_states(rng, count):
    """Unit 4-vectors from 6 real parameters, first amplitude real."""
    a, b, c = (rng.uniform(0.0, math.pi / 2.0, size=count) for _ in range(3))
    p1, p2, p3 = (rng.uniform(0.0, 2.0 * math.pi, size=count) for _ in range(3))
    sin_a = np.sin(a)
    sin_ab = sin_a * np.sin(b)
    psi = np.empty((count, 4), dtype=complex)
    psi[:, 0] = np.cos(a)
    psi[:, 1] = sin_a * np.cos(b) * np.exp(1j * p1)
    psi[:, 2] = sin_ab * np.cos(c) * np.exp(1j * p2)
    psi[:, 3] = sin_ab * np.sin(c) * np.exp(1j * p3)
    return psi


@dataclass(frozen=True)
class SearchResult:
    """The best deviation a seeded search found: a floor under the true maximum."""

    value: float
    converged: bool
    angles: tuple
    probe_best: float


def coordinate_ascent_sequential(f, x0, step0=0.4, step_min=1e-4):
    """Greedy pattern search from one start, halving the step on stalls."""
    ndim = x0.size
    x = x0.copy()
    fx = float(f(x[None, :])[0])
    step = step0
    eye = np.eye(ndim)
    while step >= step_min:
        moves = np.concatenate([x + step * eye, x - step * eye]) % math.pi
        vals = f(moves)
        k = int(np.argmax(vals))
        if vals[k] > fx:
            x = moves[k]
            fx = float(vals[k])
        else:
            step *= 0.5
    return x, fx


def maximize_deviation_sequential(operator_fn, objective, ndim, starts, probes, seed,
                                  step_min):
    """The multi-start search one start after another, probes through a 4x4 operator.

    ``operator_fn`` maps (n, ndim) angles to (n, 4, 4) deviation operators;
    each probe is |<psi| op |psi>| for its random pure state.
    """
    if starts < 2:
        raise ValueError("need at least 2 starts")
    ss = np.random.SeedSequence(seed)
    rng_starts, rng_probes = (np.random.default_rng(s) for s in ss.spawn(2))

    x0s = rng_starts.uniform(0.0, math.pi, size=(starts, ndim))
    best_val = -np.inf
    best_half = -np.inf
    best_x = x0s[0]
    for i, x0 in enumerate(x0s):
        x, fx = coordinate_ascent_sequential(objective, x0, step_min=step_min)
        if fx > best_val:
            best_val, best_x = fx, x
        if i == starts // 2 - 1:
            best_half = best_val
    converged = (best_val - best_half) < 1e-3

    probe_best = 0.0
    chunk = 20000
    for lo in range(0, probes, chunk):
        n = min(chunk, probes - lo)
        ang = rng_probes.uniform(0.0, math.pi, size=(n, ndim))
        psi = random_pure_states(rng_probes, n)
        dev = operator_fn(ang)
        vals = np.abs(np.einsum("ni,nij,nj->n", np.conj(psi), dev, psi).real)
        if n:
            probe_best = max(probe_best, float(np.max(vals)))

    return SearchResult(value=float(max(best_val, probe_best)), converged=converged,
                        angles=tuple(float(v) for v in best_x), probe_best=probe_best)


def e_chi_sequential(errors, mmis=None, starts=64, probes=100_000, seed=20240,
                     step_min=1e-4):
    tr = certify._resolve_mmis(mmis)

    def op(ang):
        return chi_deviation_operator_loop(ang, errors, tr)

    def obj(ang):
        return spectral_norm_hermitian(op(ang))

    return maximize_deviation_sequential(op, obj, 4, starts, probes, seed, step_min)


def e_p_sequential(errors, mmis=None, starts=64, probes=100_000, seed=20240,
                   step_min=1e-4):
    """Probes use, per angle pair, the outcome whose operator norm eigvalsh ranks first."""
    tr = certify._resolve_mmis(mmis)

    def obj(ang):
        return np.max(spectral_norm_hermitian(outcome_deviations(ang, errors, tr)), axis=0)

    def op(ang):
        stack = outcome_deviations(ang, errors, tr)
        pick = np.argmax(spectral_norm_hermitian(stack), axis=0)
        return stack[pick, np.arange(stack.shape[1])]

    return maximize_deviation_sequential(op, obj, 2, starts, probes, seed, step_min)


def _fringe_model(port):
    if port == 1:
        return lambda w, a, b, c, d: a * np.cos(b * w + d) ** 2 + c
    return lambda w, a, b, c, d: a * np.sin(b * w + d) ** 2 + c


def fit_mzi_calibration_curve_fit(samples, port=1):
    """The fringe fit by a Python-loop frequency scan and a 4-parameter ``curve_fit``.

    Same validation, messages and canonical signs as ``cli.fit_mzi_calibration``;
    the stderrs are curve_fit's default s^2 (J^T J)^-1 with a finite-difference J.
    """
    if port not in (1, 2):
        raise ValidationError("port must be 1 or 2")
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValidationError("samples must be (power, intensity) pairs")
    if arr.shape[0] < 8:
        raise ValidationError(f"need >= 8 samples, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("samples must be finite")
    w, inten = arr[:, 0], arr[:, 1]
    span = float(np.ptp(w))
    if span <= 0.0:
        raise CalibrationError("all samples at the same power; no fringe to fit")
    if np.ptp(inten) <= 1e-12 * max(1.0, float(np.abs(inten).max())):
        raise CalibrationError("constant intensity data; no fringe to fit")

    # coarse frequency scan: I ~ off + P cos(omega w) + Q sin(omega w),
    # linear in (off, P, Q); omega = 2b
    gaps = np.diff(np.sort(w))
    min_gap = float(gaps[gaps > 0].min())
    omegas = np.linspace(math.pi / span, math.pi / min_gap, 2048)
    best = None
    for omega in omegas:
        design = np.column_stack([np.ones_like(w), np.cos(omega * w), np.sin(omega * w)])
        coef, res, rank, _ = np.linalg.lstsq(design, inten, rcond=None)
        rss = float(res[0]) if res.size else float(np.sum((design @ coef - inten) ** 2))
        if best is None or rss < best[0]:
            best = (rss, omega, coef)
    _, omega0, (off0, p0c, q0c) = best
    amp0 = math.hypot(p0c, q0c)
    psi0 = math.atan2(-q0c, p0c)
    # port 1: a cos^2 = a/2 cos(2bW + 2d) + a/2;  port 2 flips the cosine sign
    a0 = 2.0 * amp0
    b0 = omega0 / 2.0
    c0 = off0 - amp0
    d0 = psi0 / 2.0 if port == 1 else (psi0 - math.pi) / 2.0

    model = _fringe_model(port)
    try:
        popt, pcov = optimize.curve_fit(model, w, inten, p0=(a0, b0, c0, d0), maxfev=20000)
    except RuntimeError as exc:
        raise CalibrationError(f"fringe fit did not converge: {exc}") from exc
    a, b, c, d = (float(v) for v in popt)
    if a < 0.0:  # a cos^2 + c = |a| cos^2(. - pi/2) + (c - |a|), same for sin^2
        a, c, d = -a, c + a, d - math.pi / 2.0
    if b < 0.0:  # both models are even under (b, d) -> (-b, -d)
        b, d = -b, -d
    d = d % math.pi
    if abs(b) * span < math.pi / 2.0:
        raise CalibrationError("samples span less than half a fringe; fit underdetermined")
    residual = float(np.sqrt(np.mean((model(w, a, b, c, d) - inten) ** 2)))
    with np.errstate(invalid="ignore"):
        perr = np.sqrt(np.diag(pcov))
    stderr = tuple(float(v) for v in perr) if np.all(np.isfinite(perr)) else None
    return CalibrationFit(a, b, c, d, residual, port, stderr)
