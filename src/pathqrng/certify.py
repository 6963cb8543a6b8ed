"""Certification mathematics: factorization bounds, correction terms, min-entropy.

Independent phase-shifter errors make each rotation stage a block-diagonal
operator that is no longer a product of single-qubit rotations.  The chain
of results implemented here:

* ``nearest_factorized`` gives, in closed form, the product operator
  closest (Hilbert-Schmidt) to an error-afflicted stage, absorbing the
  common-mode part of the errors into a shifted rotation angle and a
  global phase;
* ``e_chi`` and ``e_p`` bound the worst-case effect of the remaining
  non-factorized part on the CHSH function and on individual outcome
  probabilities, maximized over measurement angles and input states;
* ``guessing_probability`` turns a measured violation, corrected by those
  two terms, into a bound on an adversary's best guess of the outcome, and
  ``min_entropy`` converts that into certified bits per detection event.

The correction terms are proven bounds, not search results.  Both are
maxima of an operator norm: the objective is linear in the input density
operator, so the best state is an extreme point and the inner maximum over
all states is the spectral norm of a Hermitian 4x4 deviation operator.

Both bounds start from angle coefficients built once per error set, so
``chip.rotate`` (through ``chip.rotation_matrix``), the kernel that also
simulates the chip, stays the only place rotations are built.  A set
angle p enters its stage only through z = e^{2ip}, and linearly, so each
rotation is U(p, q) = sum_ab U_ab z_p^a z_q^b with a, b in {0, 1}.  One
kernel call at z = +-1 and a 2x2 DFT per angle give the U_ab of the ideal
and the real rotation; a CHSH term's deviation operator is then
sum_ab C_ab z_p^a z_q^b with a, b in {-1, 0, 1}.  The expansion is exact
up to rounding because ``shifter_phases`` puts the set angle on each
branch's first shifter only and the bounds work at scale 1 (the design
wavelength, no dispersion).

The structure that makes the bounds search-free holds for lossless
splitters matched within each stage, the only ones ``_resolve_mmis``
accepts.  An MZI is MMI . PS . MMI, and the nearest factorized stage
differs from the real one only in its diagonal phase screens PS, which
commute.  So the real rotation is U_r = Theta_i(theta) K Phi_i(phi) for
the ideal stages Theta_i, Phi_i and a constant unitary K fixed by the
error set:

* ``e_p`` does not depend on phi.  For fixed theta it is
  sqrt(1 - |<c|U_i U_r^dag|c>|^2), a trigonometric polynomial of degree 2
  in 2 theta under the root, bounded in closed form from a grid plus its
  second-derivative margin (gap about 1e-9 on the paper chip);
* ``e_chi`` depends on phi only through phi - phi', since a common phi
  shift conjugates the deviation by one unitary.  A branch and bound over
  (phi', theta, theta') at phi = 0 then proves it to within 5e-4: the
  deviation is affine in each z, so a cell's maximum sits at the vertices
  of the triangles that contain its arcs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bell import CHSH_SIGNS
from .chip import (_NO_ERRORS, PhaseErrorSet, _check_errors, _mzi_amplitudes, rotation_matrix,
                   shifter_phases)
from .optics import DESIGN_WAVELENGTH_NM, IDEAL_MMI, MmiParams

_ZZ_DIAG = np.array([1.0, -1.0, -1.0, 1.0])


@dataclass(frozen=True)
class FactorizedApprox:
    """Nearest product-form stage operator, e^{i varphi} R(vartheta, n)."""

    varphi: float
    vartheta: float
    n: tuple[float, float, float]
    distance: float


def nearest_factorized(d: Sequence[float]) -> FactorizedApprox:
    """Closed-form nearest factorized operator for one stage's 4 offsets.

    For a stage whose branches carry shifter errors (d1, d2) and (d3, d4),
    the closest operator of product form has rotation axis z,

        varphi = (d1 + d2 + d3 + d4) / 2,
        vartheta = (d1 + d3 - d2 - d4) / 2,

    i.e. the common-mode error moves the rotation angle by vartheta and the
    global phase by varphi.  The residual distance is

        sqrt(8 - 8 cos A cos B),  A = (d1-d3)/2 + (d2-d4)/2,
                                  B = (d1-d3)/2 - (d2-d4)/2,

    which vanishes exactly when the two branches see the same errors.
    """
    d1, d2, d3, d4 = _check_errors(tuple(d), "stage offsets")
    varphi = 0.5 * (d1 + d2 + d3 + d4)
    vartheta = 0.5 * (d1 + d3 - d2 - d4)
    a = 0.5 * (d1 - d3) + 0.5 * (d2 - d4)
    b = 0.5 * (d1 - d3) - 0.5 * (d2 - d4)
    distance = math.sqrt(max(8.0 - 8.0 * math.cos(a) * math.cos(b), 0.0))
    return FactorizedApprox(varphi, vartheta, (0.0, 0.0, 1.0), distance)


# ---------------------------------------------------------------------------
# angle coefficients of the rotations and the deviation operators
# ---------------------------------------------------------------------------

def _resolve_mmis(mmis: Sequence[MmiParams] | None) -> tuple[np.ndarray, np.ndarray]:
    """Validate the four MZI splitters and return their (t, r) at 730 nm, each (4,).

    The bounds require unitary splitters (the state maximization relies on
    the objective being linear in rho, and the structure below on
    MMI^-1 = MMI^dag) and matched splitters within each stage (the
    factorization argument conjugates both branches by the same MMI).
    """
    if mmis is None:
        mmis = (IDEAL_MMI, IDEAL_MMI, IDEAL_MMI, IDEAL_MMI)
    if len(mmis) != 4:
        raise ValueError("mmis needs exactly 4 entries")
    t, r = _mzi_amplitudes(tuple(mmis), DESIGN_WAVELENGTH_NM)
    if np.any(np.abs(t * t + r * r - 1.0) > 1e-9):
        raise ValueError("correction-term bounds need unitary (lossless) splitters")
    if np.any(t[0::2] != t[1::2]) or np.any(r[0::2] != r[1::2]):
        raise ValueError("correction-term bounds need matched splitters within each stage")
    return t, r


def _stage_phases(phi: np.ndarray, theta: np.ndarray,
                  errors: PhaseErrorSet) -> tuple[np.ndarray, np.ndarray]:
    """(2, ..., 4) phi and theta shifter phases: nearest factorized, then real.

    Both sit at the same nominal angles.  The real stage carries the error
    set.  The factorized one is, per stage, the closed-form nearest product
    operator: no errors, the rotation angle shifted by the stage's
    common-mode vartheta.  Its global phases e^{i varphi} are dropped since
    every use conjugates by this operator.
    """
    shift_phi = nearest_factorized(errors.dphi).vartheta
    shift_theta = nearest_factorized(errors.dtheta).vartheta
    phis = np.stack([shifter_phases(phi + shift_phi, _NO_ERRORS),
                     shifter_phases(phi, errors.dphi)])
    thetas = np.stack([shifter_phases(theta + shift_theta, _NO_ERRORS),
                       shifter_phases(theta, errors.dtheta)])
    return phis, thetas


#: the angles p = 0 and pi/2, where z = e^{2ip} is 1 and -1, and the
#: inverse of the matrix [[1, 1], [1, -1]] of their powers z^0, z^1
_NODES = np.array([0.0, math.pi / 2.0])
_NODES_INV = np.array([[0.5, 0.5], [0.5, -0.5]])


def _powers(z: np.ndarray) -> np.ndarray:
    """(..., 3) powers (z^-1, 1, z) of points z, with z^-1 read as conj(z).

    On the unit circle, where z = e^{2ip} for an angle p, the two agree.
    Off it, conj(z) keeps every operator built from these powers Hermitian
    and real-affine in z, which the cell bound of :func:`e_chi` needs.
    """
    z = np.asarray(z, dtype=complex)
    return np.stack([np.conj(z), np.ones_like(z), z], axis=-1)


def _rotation_coefficients(errors: PhaseErrorSet,
                           tr: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """(2, 2, 2, 4, 4) U_ab over (ideal, real) x a x b, a and b in {0, 1}.

    The (ideal, real) rotation at angles (p, q) of :func:`_stage_phases` is
    sum_ab U_ab z_p^a z_q^b.  One kernel call evaluates it at the 2 x 2
    angle nodes, and the inverse of the nodes' power matrix on each angle
    axis recovers the coefficients.
    """
    u = rotation_matrix(*tr, *_stage_phases(_NODES[:, None], _NODES[None, :], errors))
    return np.einsum("ai,bj,sij...->sab...", _NODES_INV, _NODES_INV, u)


def _chi_coefficients(u: np.ndarray) -> np.ndarray:
    """(3, 3, 4, 4) C_ab, a and b in {-1, 0, 1}, of one CHSH term's deviation.

    U_i^dag ZZ U_i - U_r^dag ZZ U_r at (p, q) is sum_ab C_ab z_p^a z_q^b for
    the :func:`_rotation_coefficients` ``u``: on |z| = 1 the conjugate of
    z^x is z^-x, so each product of two coefficients lands on the exponent
    difference.  Index a + 1 holds exponent a, and C_{-a,-b} = C_ab^dag.
    """
    g = np.einsum("sxyki,k,sabkj->sxyabij", np.conj(u), _ZZ_DIAG, u)
    g = g[0] - g[1]
    c = np.zeros((3, 3, 4, 4), dtype=complex)
    for x, y, a, b in itertools.product(range(2), repeat=4):
        c[a - x + 1, b - y + 1] += g[x, y, a, b]
    return c


# ---------------------------------------------------------------------------
# the correction terms as proven bounds
# ---------------------------------------------------------------------------

#: absolute allowance on a computed operator norm for rounding in the
#: coefficients (about 2e-15), their sums and the 4x4 pivots
_FLOAT_MARGIN = 1e-12
#: grid points of e_p on x = 2 theta in [0, 2 pi); the f'' margin then adds
#: about 1.5e-9 to e_p on the paper chip
_EP_GRID = 4096
#: e_chi's branch and bound: cells per angle axis at the start, the gap
#: UB - LB it closes to, and cells per vertex block (27 4x4 operators each)
_CHI_GRID = 8
_CHI_GAP = 5e-4
_CELL_BLOCK = 128
#: cells e_chi may test before it stops and reports the proof unconverged
_MAX_CELLS = 100_000


@dataclass(frozen=True)
class CorrectionEstimate:
    """A correction term bracketed by a proof: ``lower`` <= max <= ``upper``.

    ``lower`` is the deviation at ``angles``, attained by the chip;
    ``upper`` is proven, and ``value`` (= ``upper``) is what the
    certificate uses.  ``gap`` is ``upper - lower``.  ``cells`` counts the
    branch-and-bound cells tested (``e_chi``) or the grid points
    (``e_p``).  ``converged`` is False only when ``e_chi`` reached its cell
    cap before closing the gap; ``upper`` is then still proven, but looser.
    """

    value: float
    lower: float
    upper: float
    gap: float
    cells: int
    angles: tuple[float, ...]
    converged: bool


def _estimate(lower: float, upper: float, cells: int, angles: Sequence[float],
              converged: bool = True) -> CorrectionEstimate:
    return CorrectionEstimate(value=upper, lower=lower, upper=upper, gap=upper - lower,
                              cells=cells, angles=tuple(float(a) for a in angles),
                              converged=converged)


def e_p(errors: PhaseErrorSet, mmis: Sequence[MmiParams] | None = None) -> CorrectionEstimate:
    """Worst-case single-outcome probability deviation, max |P_ideal - P_real|.

    The maximum runs over (phi, theta), all four outcomes c and all input
    states.  For unit vectors a and b, || |a><a| - |b><b| || is
    sqrt(1 - |<a|b>|^2), so the state maximum of outcome c is
    sqrt(f_c), f_c = 1 - |<c|U_i U_r^dag|c>|^2, with no eigensolver.
    U_i U_r^dag does not depend on phi: with lossless, matched splitters
    the phi stages of both rotations differ only in their diagonal phase
    screens, which commute, so the set angle cancels.  Hence phi = 0.

    At phi = 0 the rows of both rotations are affine in z = e^{2i theta},
    and Lagrange's identity writes f_c as the sum of |m_kl(z)|^2 over the
    2x2 minors m_kl of the two rows, a trigonometric polynomial of degree
    2 in x = 2 theta with no cancellation near |<a|b>| = 1.  On a grid of
    spacing h its maximum exceeds the grid maximum by at most
    max|f''| h^2 / 8 <= sum_d d^2 |b_d| h^2 / 8 for its coefficients b_d.
    ``lower`` is the best grid point; ``upper`` adds that margin.
    """
    tr = _resolve_mmis(mmis)
    u = np.sum(_rotation_coefficients(errors, tr), axis=1)  # (2, 2, 4, 4): z_phi = 1
    rows = np.einsum("xck,ycl->cxykl", u[0], u[1])  # row c of U_i times row c of U_r
    i, j = np.triu_indices(4, 1)
    minors = rows[..., i, j] - rows[..., j, i]
    mu = np.stack([minors[:, 0, 0], minors[:, 0, 1] + minors[:, 1, 0], minors[:, 1, 1]],
                  axis=1)  # (4, 3, 6): outcome, exponent of z 0..2, minor
    h = 2.0 * math.pi / _EP_GRID
    x = np.arange(_EP_GRID) * h
    m = np.einsum("cem,en->cmn", mu, np.exp(1j * np.outer(np.arange(3), x)))
    f = np.sum(m.real ** 2 + m.imag ** 2, axis=1)  # (4, grid)
    auto = np.einsum("cem,cgm->ceg", mu, np.conj(mu))  # b_d: sum over e - g = d
    d2b = 2.0 * (np.abs(auto[:, 1, 0] + auto[:, 2, 1]) + 4.0 * np.abs(auto[:, 2, 0]))
    f_max = np.max(f, axis=1)
    f_upper = f_max + d2b * h * h / 8.0
    c = int(np.argmax(f_max))
    upper = math.sqrt(float(np.max(f_upper))) + _FLOAT_MARGIN
    return _estimate(math.sqrt(float(f_max[c])), upper, _EP_GRID,
                     (0.0, x[int(np.argmax(f[c]))] / 2.0))


def _chi_operators(c: np.ndarray, zw: np.ndarray, zu: np.ndarray,
                   zv: np.ndarray) -> np.ndarray:
    """(4, 4, n, I * J * K) chi deviation operators at phi = 0 over all point triples.

    ``zw``, ``zu`` and ``zv`` (n, I), (n, J), (n, K) hold points for
    z_phi', z_theta and z_theta', and ``c`` is :func:`_chi_coefficients`.
    Term (i, j) of the CHSH sum, with sign s_ij, is sum_ab C_ab
    z_phi_i^a z_theta_j^b, and z_phi = 1, so the operator is
    sum_j sum_ab C_ab (s_0j + s_1j z_phi'^a) z_theta_j^b.  The batch is
    last, so each operator entry is one contiguous vector over the batch.
    """
    s = CHSH_SIGNS.reshape(2, 2)
    pw = _powers(zw)
    terms = []
    for j, zq in enumerate((zu, zv)):
        lam = s[0, j] + s[1, j] * pw  # (n, I, 3) over a
        term = (lam @ c.reshape(3, 48)).reshape(lam.shape[:2] + (3, 16))
        terms.append(np.moveaxis(_powers(zq)[:, None] @ term, -1, 0))  # (16, n, I, J or K)
    out = terms[0][..., None] + terms[1][:, :, :, None, :]
    return out.reshape(4, 4, len(zw), -1)


def _spectral_norms(h: np.ndarray) -> np.ndarray:
    """Largest |eigenvalue| of each Hermitian matrix in ``h`` (4, 4, ...)."""
    w = np.linalg.eigvalsh(np.moveaxis(h, (0, 1), (-2, -1)))
    return np.maximum(-w[..., 0], w[..., -1])


def _norms_below(h: np.ndarray, tau: float) -> np.ndarray:
    """Whether tau I - h and tau I + h are both positive definite, per ``h`` (4, 4, ...).

    That is, whether every eigenvalue of ``h`` lies in (-tau, tau).  The
    test takes the LDL^H pivots of each matrix, all positive exactly when
    a Hermitian matrix is positive definite.  It eliminates one column at
    a time over the lower triangle, m[i, j] -= m[i, k] / pivot_k
    conj(m[j, k]) for i >= j > k, each entry a vector over the whole batch.
    """
    ok = np.ones(h.shape[2:], dtype=bool)
    lower = [[h[i, j] for j in range(i + 1)] for i in range(4)]
    with np.errstate(divide="ignore", invalid="ignore"):
        for m in ([[-e for e in row] for row in lower], lower):  # tau I - h, then tau I + h
            for k in range(4):
                m[k][k] = m[k][k] + tau
            for k in range(4):
                pivot = m[k][k].real
                ok &= pivot > 0.0
                f = {i: m[i][k] / pivot for i in range(k + 1, 4)}
                for j in range(k + 1, 4):
                    conj = np.conj(m[j][k])
                    for i in range(j, 4):
                        m[i][j] = m[i][j] - f[i] * conj
    return ok


def _arc_points(lo: np.ndarray, width: np.ndarray) -> np.ndarray:
    """(..., 3) triangle around each arc of z = e^{2ip}, p in [lo, lo + width].

    The two endpoints and their tangent apex, e^{i(2 lo + width)} / cos(width),
    span a triangle that contains the arc whenever width < pi/2.
    """
    mid = np.exp(1j * (2.0 * lo + width))
    return np.stack([np.exp(2j * lo), np.exp(2j * (lo + width)), mid / np.cos(width)], axis=-1)


def _vertex_operators(c: np.ndarray, lo: np.ndarray, width: np.ndarray) -> np.ndarray:
    """(4, 4, n, 27) operators at the vertex triples of cells ``lo`` + [0, ``width``] (n, 3)."""
    return _chi_operators(c, *np.moveaxis(_arc_points(lo, width), -2, 0))


def _blocks(n: int):
    return (slice(lo, lo + _CELL_BLOCK) for lo in range(0, n, _CELL_BLOCK))


def _kept(c: np.ndarray, lo: np.ndarray, width: np.ndarray, apex: np.ndarray,
          threshold: float) -> np.ndarray:
    """Whether a vertex norm of each cell ``lo`` + [0, ``width``] (n, 3) reaches ``threshold``.

    ``apex`` (4, 4, n) holds each cell's operator at its all-apex vertex,
    the vertex farthest out on all three arcs.  A cell whose apex fails the
    norm test is kept with no further work; only the others get all 27
    vertex operators, ``_CELL_BLOCK`` cells at a time.
    """
    keep = ~_norms_below(apex, threshold)
    (rest,) = np.nonzero(~keep)
    for b in _blocks(len(rest)):
        cells = rest[b]
        ops = _vertex_operators(c, lo[cells], width[cells])
        keep[cells] = ~np.all(_norms_below(ops, threshold), axis=-1)
    return keep


def e_chi(errors: PhaseErrorSet, mmis: Sequence[MmiParams] | None = None) -> CorrectionEstimate:
    """Worst-case CHSH deviation between the real chip and its nearest ideal.

    Bounds |chi_ideal - chi_real| over all angle tuples (phi, phi', theta,
    theta') and all input states, where chi_real uses the error-afflicted
    rotation operators (the same fixed error set in all four correlation
    terms) and chi_ideal the closed-form nearest factorized operators.  The
    state maximum is the operator norm of the Hermitian deviation Delta.

    The proof uses two facts.  A common shift t of phi and phi' right-
    multiplies every rotation, ideal and real, by the same unitary
    I (x) MMI^dag diag(e^{2it}, 1) MMI (lossless, matched splitters), so
    it conjugates Delta and leaves ||Delta|| unchanged: phi = 0 loses
    nothing, and three angles remain.  And Delta is real-affine in each of
    z_phi', z_theta, z_theta' (z = e^{2ip}, with z^-1 = conj(z)), so
    ||Delta|| is convex in each; over a cell, a box of three arcs, each
    arc inside the triangle of its endpoints and tangent apex, the maximum
    is at most the largest norm at the 27 vertex triples.

    The branch and bound starts from ``_CHI_GRID`` cells per axis.  Each
    round, ``lower`` is the largest norm at a cell centre so far and
    tau = lower + ``_CHI_GAP``; a cell whose 27 vertex operators all have
    norm below tau - ``_FLOAT_MARGIN`` is pruned, and the others are split
    in two along their widest arc.  The all-apex vertex, built in the same
    call as the centres, is tested first: a cell it fails is kept with no
    further work, and only the rest get all 27 vertex operators (1,560 of
    2,320 cells on the paper chip).  That apex operator may differ from the
    vertex block's in the last bits; a cell kept on such a rounding tie is
    only split further, so ``upper`` stays proven.
    When no cell is left, ``upper`` is tau.
    If the next round would pass ``_MAX_CELLS``, the proof stops
    unconverged, and ``upper`` is the larger of tau and the remaining
    cells' vertex maxima.  Either way ``upper`` is capped by the triangle
    inequality, 4 sum_ab ||C_ab||, which is 0 on an error-free chip.
    """
    c = _chi_coefficients(_rotation_coefficients(errors, _resolve_mmis(mmis)))
    crude = 4.0 * float(np.sum(np.linalg.norm(c, axis=(-2, -1)))) + _FLOAT_MARGIN
    axis = np.arange(_CHI_GRID) * (math.pi / _CHI_GRID)
    lo = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    width = np.full_like(lo, math.pi / _CHI_GRID)
    lower, best, cells = 0.0, np.zeros(3), 0
    while lo.size:
        if cells + len(lo) > _MAX_CELLS:
            top = max(float(np.max(_spectral_norms(_vertex_operators(c, lo[b], width[b]))))
                      for b in _blocks(len(lo)))
            upper = max(lower + _CHI_GAP, top + _FLOAT_MARGIN)
            return _estimate(lower, min(upper, crude), cells, (0.0, *best), converged=False)
        cells += len(lo)
        apex = np.empty((4, 4, len(lo)), dtype=complex)
        for b in _blocks(len(lo)):
            centre = lo[b] + 0.5 * width[b]
            points = np.concatenate([np.exp(2j * centre), _arc_points(lo[b], width[b])[..., 2]])
            ops = _chi_operators(c, *points.T[..., None])[..., 0]  # centres, then apexes
            norms = _spectral_norms(ops[:, :, :len(centre)])
            apex[:, :, b] = ops[:, :, len(centre):]
            k = int(np.argmax(norms))
            if norms[k] > lower:
                lower, best = float(norms[k]), centre[k]
        keep = _kept(c, lo, width, apex, lower + _CHI_GAP - _FLOAT_MARGIN)
        lo, width = lo[keep], width[keep]
        rows, split = np.arange(len(lo)), np.argmax(width, axis=1)
        width[rows, split] *= 0.5
        upper_half = lo.copy()
        upper_half[rows, split] += width[rows, split]
        lo, width = np.concatenate([lo, upper_half]), np.concatenate([width, width])
    return _estimate(lower, min(lower + _CHI_GAP, crude), cells, (0.0, *best))


# ---------------------------------------------------------------------------
# guessing probability and min-entropy
# ---------------------------------------------------------------------------

def guessing_curve(x: float | np.ndarray) -> np.ndarray:
    """f(x) = 1/2 + 1/2 sqrt(2 - x^2/4), the violation-to-guessing map, elementwise.

    Decreasing and concave on [2, 2 sqrt(2)], with f(2) = 1 (no certification
    at the classical boundary) and f(2 sqrt 2) = 1/2; 1/2 beyond 2 sqrt(2).
    The domain is not checked.
    """
    x = np.asarray(x, dtype=float)
    return 0.5 + 0.5 * np.sqrt(np.maximum(2.0 - x * x / 4.0, 0.0))


def guessing_probability(chi_real: float, e_chi: float, e_p: float) -> float:
    """Upper bound on the adversary's guessing probability.

    The violation is first reduced by the CHSH correction term; if the
    remainder x = max(|chi_real| - e_chi, 0) does not beat the classical
    bound 2, nothing is certified and the bound is 1.  Otherwise

        P_guess <= min(1, 1/2 + 1/2 sqrt(2 - x^2/4) + e_p),

    with the square-root argument clamped at 0 when x exceeds 2 sqrt(2).
    """
    if not (0.0 <= e_chi < math.inf and 0.0 <= e_p < math.inf):
        raise ValueError("correction terms must be finite and non-negative")
    x = max(abs(chi_real) - e_chi, 0.0)
    if x <= 2.0:
        return 1.0
    return min(1.0, float(guessing_curve(x)) + e_p)


def min_entropy(p_guess: float) -> tuple[float, float]:
    """(bits, percent) of H_min = -log2(P_guess), certified randomness per event.

    The percentage expresses the bits against 1 bit per event.
    """
    if not 0.0 < p_guess <= 1.0:
        raise ValueError(f"p_guess must lie in (0, 1], got {p_guess!r}")
    bits = -math.log2(p_guess)
    return bits, 100.0 * bits


def certified_rate(event_rate_hz: float, h_min_bits: float) -> float:
    """Certified random bit rate, events per second times bits per event."""
    if not (0.0 <= event_rate_hz < math.inf and 0.0 <= h_min_bits < math.inf):
        raise ValueError("rate and entropy must be finite and non-negative")
    return event_rate_hz * h_min_bits


@dataclass(frozen=True)
class CertificationResult:
    """One certificate: the violation, its corrections and the min-entropy.

    ``certified_rate_hz`` is the event rate given, the rate of detection
    records, times ``h_min_bits``.  Extraction takes one outcome per occupied
    bin, and fewer bins than records are occupied (5.8 % fewer at 0.12
    records per bin), so the bits it can extract per second are fewer.
    """

    chi_real: float
    e_chi: float
    e_p: float
    p_guess: float
    h_min_bits: float
    h_min_percent: float
    certified_rate_hz: float | None = None


def certification_result(chi_real: float, e_chi: float, e_p: float,
                         event_rate_hz: float | None = None) -> CertificationResult:
    """Assemble the full certification chain for one measured violation."""
    pg = guessing_probability(chi_real, e_chi, e_p)
    bits, percent = min_entropy(pg)
    rate = None if event_rate_hz is None else certified_rate(event_rate_hz, bits)
    return CertificationResult(chi_real, e_chi, e_p, pg, bits, percent, rate)
