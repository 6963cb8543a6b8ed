"""Hand-rolled reference implementations used to pin the fast production code.

Everything in this file is deliberately written the slow, obvious way
(index loops, generic matrix exponentials, off-the-shelf optimizers) so
the vectorized paths in the package are checked against code that shares
no structure with them.
"""

import math

import numpy as np
from scipy import linalg, optimize, stats

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


def random_density(dim, rng):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = z @ z.conj().T
    return rho / np.trace(rho).real


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
    """Multi-start Nelder-Mead over global phase, rotation angle and axis."""
    target = stage_block(d)

    def cost(p):
        varphi, vartheta, polar, azim = p
        axis = (
            math.sin(polar) * math.cos(azim),
            math.sin(polar) * math.sin(azim),
            math.cos(polar),
        )
        b = pauli_exponential_expm(varphi, vartheta, axis)
        return float(np.linalg.norm(target - np.kron(ID2, b)))

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


def detection_by_hand(t_gen, r_gen, xi, comp_far, comp_near,
                      phi_shifts, theta_shifts, mzi_tr=None):
    """Full transfer-matrix pipeline with every step written out.

    phi_shifts, theta_shifts and mzi_tr are as in rotation_by_hand.
    """
    norm = math.hypot(t_gen, r_gen)
    amps = np.array(
        [
            t_gen * np.exp(1j * comp_far),
            0.0,
            0.0,
            1j * r_gen * np.exp(1j * (xi + comp_near)),
        ],
        dtype=complex,
    ) / norm

    out = rotation_by_hand(phi_shifts, theta_shifts, mzi_tr) @ amps
    p = np.abs(out) ** 2
    return p / p.sum()


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


def bin_and_resolve_loop(stream, tie_seed=0, mode="fired"):
    """Tie resolution one multi-click bin at a time, in bin order: a draw
    from the sorted distinct channels that fired, or from all four.  Returns
    the uint8 channel codes."""
    if len(stream) == 0:
        return np.empty(0, dtype=np.uint8)
    bins = stream.timestamps_ns // stream.bin_width_ns
    starts = np.flatnonzero(np.r_[True, np.diff(bins) > 0])
    ends = np.r_[starts[1:], len(stream)]
    out_idx = stream.channels[starts].astype(np.int64)
    rng = np.random.default_rng(tie_seed)
    for k in np.flatnonzero(ends - starts > 1):
        group = stream.channels[starts[k] : ends[k]]
        if mode == "fired":
            options = np.unique(group)
            out_idx[k] = int(options[rng.integers(len(options))])
        else:
            out_idx[k] = int(rng.integers(4))
    return out_idx.astype(np.uint8)


def event_file_text_by_lines(stream):
    """An event file built line by line with str formatting."""
    lines = ["# pathqrng-events v1",
             f"# phi={stream.phi!r}",
             f"# theta={stream.theta!r}",
             f"# duration_s={stream.duration_s!r}",
             f"# bin_width_us={stream.bin_width_us!r}",
             f"# seed={stream.seed}"]
    if stream.rate_hz is not None:
        lines.append(f"# rate_hz={stream.rate_hz!r}")
    lines.append("timestamp_ns\tchannel")
    labels = ("UF", "UN", "DF", "DN")
    lines.extend(f"{int(t)}\t{labels[c]}" for t, c in zip(stream.timestamps_ns, stream.channels))
    return "\n".join(lines) + "\n"


def event_records_by_lines(text):
    """(meta, timestamps, channel codes) of an event file, one line at a
    time with int(); raises ValueError on a record it cannot split."""
    lines = text.splitlines()
    meta = {}
    body = lines.index("timestamp_ns\tchannel") + 1
    for line in lines[1 : body - 1]:
        key, _, value = line[2:].partition("=")
        meta[key] = value
    index = {c: i for i, c in enumerate(("UF", "UN", "DF", "DN"))}
    ts, ch = [], []
    for line in lines[body:]:
        t_str, c_str = line.split("\t")
        ts.append(int(t_str))
        ch.append(index[c_str])
    return meta, np.array(ts, dtype=np.int64), np.array(ch, dtype=np.uint8)
