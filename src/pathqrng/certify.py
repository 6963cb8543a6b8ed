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

Every rotation the search compares goes through ``chip.rotate``, the one
kernel that also simulates the chip: one call per angle batch yields the
nearest factorized and the real rotation side by side.  The objectives
take the operator as ``chip.rotation_matrix``, the rotated basis states;
the probes need only the states U psi.

The correction-term maximization exploits that the objective is linear in
the input density operator: for fixed angles the best state is an extreme
point, and the exact inner maximum over all states is the spectral norm of
a Hermitian 4x4 operator.  The outer angle search is a seeded multi-start
coordinate refinement with its starts in lockstep, cross-checked by a large
pass of random probes over explicit pure states, scored from U psi without
building U.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .chip import (_NO_ERRORS, PhaseErrorSet, _check_errors, rotate, rotation_matrix,
                   shifter_phases)
from .optics import DESIGN_WAVELENGTH_NM, IDEAL_MMI, MmiParams

SQRT2 = math.sqrt(2.0)

_ZZ_DIAG = np.array([1.0, -1.0, -1.0, 1.0])
_CHSH_SIGNS = np.array([1.0, -1.0, 1.0, 1.0])  # minus on the (phi, theta') term


@dataclass(frozen=True)
class FactorizedApprox:
    """Nearest product-form stage operator, e^{i varphi} R(vartheta, n)."""

    varphi: float
    vartheta: float
    n: tuple[float, float, float]
    distance: float

    def __post_init__(self) -> None:
        if abs(np.linalg.norm(self.n) - 1.0) > 1e-9:
            raise ValueError("n must be a unit vector")
        if self.distance < 0.0:
            raise ValueError("distance must be non-negative")


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
# batched operator construction for the correction-term search
# ---------------------------------------------------------------------------

def _resolve_mmis(mmis: Sequence[MmiParams] | None) -> tuple[np.ndarray, np.ndarray]:
    """Validate the four MZI splitters and return their (t, r), each of shape (4,).

    The search requires unitary splitters (the state maximization relies on
    the objective being linear in rho) and matched splitters within each
    stage (the factorization argument conjugates both branches by the same
    MMI).
    """
    if mmis is None:
        mmis = (IDEAL_MMI, IDEAL_MMI, IDEAL_MMI, IDEAL_MMI)
    if len(mmis) != 4:
        raise ValueError("mmis needs exactly 4 entries")
    vals = [m.resolve(DESIGN_WAVELENGTH_NM if m.table is not None else None) for m in mmis]
    for t, r in vals:
        if abs(t * t + r * r - 1.0) > 1e-9:
            raise ValueError("correction-term search needs unitary (lossless) splitters")
    if vals[0] != vals[1] or vals[2] != vals[3]:
        raise ValueError("correction-term search needs matched splitters within each stage")
    return np.array([v[0] for v in vals]), np.array([v[1] for v in vals])


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


def _chsh_phases(angles: np.ndarray,
                 errors: PhaseErrorSet) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_stage_phases` of (phi, phi', theta, theta') ``angles`` (..., 4).

    The phi phases are (2, 2, 1, ..., 4) over (ideal, real) x (phi, phi')
    and the theta phases (2, 1, 2, ..., 4) over (ideal, real) x (theta,
    theta'); each stage keeps its own shape and the kernels broadcast them.
    """
    return _stage_phases(np.stack([angles[..., 0], angles[..., 1]])[:, None],
                         np.stack([angles[..., 2], angles[..., 3]])[None], errors)


def _chi_deviation_operator(angles: np.ndarray, errors: PhaseErrorSet,
                            tr: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Hermitian operator whose expectation is chi_ideal - chi_real.

    ``angles`` has shape (..., 4) holding (phi, phi', theta, theta').  All
    four correlation terms carry the same fixed error set.  One kernel call
    gives the (2, 2, 2, ...) operators over (ideal, real) x (phi, phi') x
    (theta, theta'), each U^dag ZZ U.
    """
    u = rotation_matrix(*tr, *_chsh_phases(angles, errors))
    zz = (np.conj(np.swapaxes(u, -1, -2)) * _ZZ_DIAG) @ u
    delta = np.zeros(angles.shape[:-1] + (4, 4), dtype=complex)
    for sign, term in zip(_CHSH_SIGNS, (zz[0] - zz[1]).reshape((4,) + zz.shape[3:])):
        delta += sign * term
    return delta


def _spectral_norm_hermitian(h: np.ndarray) -> np.ndarray:
    w = np.linalg.eigvalsh(h)
    return np.maximum(np.abs(w[..., 0]), np.abs(w[..., -1]))


def _outcome_deviations(angles: np.ndarray, errors: PhaseErrorSet,
                        tr: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """(4, ..., 4, 4): Pi_ideal - Pi_real of each outcome c at (phi, theta).

    U^dag |c><c| U is the outer product of U's row c with itself.
    """
    ui, ur = rotation_matrix(*tr, *_stage_phases(angles[..., 0], angles[..., 1], errors))
    return np.stack([np.conj(ui[..., c, :, None]) * ui[..., c, None, :]
                     - np.conj(ur[..., c, :, None]) * ur[..., c, None, :] for c in range(4)])


# ---------------------------------------------------------------------------
# derivative-free maximization
# ---------------------------------------------------------------------------

#: rotation operators repeat after pi (up to global phase), so every angle
#: lives on [0, pi)
_ANGLE_PERIOD = math.pi
#: a start stops once its step halves below this, so each angle it
#: returns is resolved to about 1e-4 rad
_STEP_MIN = 1e-4
_START_BLOCK = 256  # starts per lockstep pass, bounding the objective batch
_PROBE_DRAW, _PROBE_BLOCK = 20_000, 5_000  # probe rows per random draw, per kernel call


def _coordinate_ascent(f: Callable[[np.ndarray], np.ndarray], x0s: np.ndarray,
                       step0: float = 0.4) -> tuple[np.ndarray, np.ndarray]:
    """Greedy pattern search on the angle torus for (starts, ndim) points in lockstep.

    Each round evaluates the 2*ndim single-coordinate moves of every start
    still at step >= ``_STEP_MIN`` in one objective call.  A start takes its
    best move (the first on ties) only on a strict gain and otherwise halves
    its own step, so it follows the path it would follow alone.
    """
    x, fx = np.array(x0s, dtype=float), np.array(f(x0s), dtype=float)
    step = np.full(len(x), step0)
    eye = np.eye(x.shape[1])
    active = np.flatnonzero(step >= _STEP_MIN)
    while active.size:
        xa, sa = x[active, None, :], step[active, None, None]
        moves = np.concatenate([xa + sa * eye, xa - sa * eye], axis=1) % _ANGLE_PERIOD
        vals = f(moves.reshape(-1, x.shape[1])).reshape(moves.shape[:2])
        k = np.argmax(vals, axis=1)
        top = vals[np.arange(active.size), k]
        up = top > fx[active]
        x[active[up]], fx[active[up]] = moves[up, k[up]], top[up]
        step[active[~up]] *= 0.5
        active = active[step[active] >= _STEP_MIN]
    return x, fx


@dataclass(frozen=True)
class CorrectionEstimate:
    """Result of one correction-term maximization.

    ``value`` is the largest deviation found; ``converged`` records whether
    doubling the number of starts from half the budget changed the result
    by less than 1e-3.  Probes never found the optimum on their own in any
    observed run, but ``probe_best`` is kept for diagnostics.
    """

    value: float
    converged: bool
    starts: int
    probes: int
    seed: int
    angles: tuple[float, ...]
    probe_best: float


def _random_pure_states(rng: np.random.Generator, count: int) -> np.ndarray:
    """Unit 4-vectors from 6 real parameters, first amplitude real."""
    a, b, c = (rng.uniform(0.0, math.pi / 2.0, size=count) for _ in range(3))
    p1, p2, p3 = (rng.uniform(0.0, 2.0 * math.pi, size=count) for _ in range(3))
    psi = np.empty((count, 4), dtype=complex)
    psi[:, 0] = np.cos(a)
    psi[:, 1] = np.sin(a) * np.cos(b) * np.exp(1j * p1)
    psi[:, 2] = np.sin(a) * np.sin(b) * np.cos(c) * np.exp(1j * p2)
    psi[:, 3] = np.sin(a) * np.sin(b) * np.sin(c) * np.exp(1j * p3)
    return psi


def _maximize_deviation(probe: Callable[[np.ndarray, np.ndarray], np.ndarray],
                        objective: Callable[[np.ndarray], np.ndarray], ndim: int,
                        starts: int, probes: int, seed: int) -> CorrectionEstimate:
    """Multi-start coordinate refinement plus a random-probe verification pass.

    The coordinate search maximizes the exact state maximum (spectral norm)
    over angles, its starts climbing in lockstep blocks.  The probe pass then
    scores random angles with random explicit pure states, ``probe(angles,
    psi)`` in blocks of state vectors U psi, each scored stage by stage with
    ``chip.rotate`` and no 4x4 operator; it can only confirm, never exceed,
    the spectral-norm maximum, and serves as an independent floor.
    """
    if starts < 2:
        raise ValueError("need at least 2 starts")
    if probes < 0:
        raise ValueError(f"probes must be non-negative, got {probes!r}")
    ss = np.random.SeedSequence(seed)
    rng_starts, rng_probes = (np.random.default_rng(s) for s in ss.spawn(2))

    x0s = rng_starts.uniform(0.0, _ANGLE_PERIOD, size=(starts, ndim))
    climbed = [_coordinate_ascent(objective, x0s[lo:lo + _START_BLOCK])
               for lo in range(0, starts, _START_BLOCK)]
    xs, fxs = (np.concatenate(parts) for parts in zip(*climbed))
    best = int(np.argmax(fxs))
    converged = bool(fxs[best] - np.max(fxs[:starts // 2]) < 1e-3)

    probe_best = 0.0
    for lo in range(0, probes, _PROBE_DRAW):
        n = min(_PROBE_DRAW, probes - lo)
        ang = rng_probes.uniform(0.0, _ANGLE_PERIOD, size=(n, ndim))
        psi = _random_pure_states(rng_probes, n)
        for b in range(0, n, _PROBE_BLOCK):
            vals = probe(ang[b:b + _PROBE_BLOCK], psi[b:b + _PROBE_BLOCK])
            probe_best = max(probe_best, float(np.max(vals)))

    return CorrectionEstimate(
        value=float(max(fxs[best], probe_best)), converged=converged, starts=starts,
        probes=probes, seed=seed, angles=tuple(float(v) for v in xs[best]),
        probe_best=probe_best)


def e_chi(errors: PhaseErrorSet, mmis: Sequence[MmiParams] | None = None,
          starts: int = 64, probes: int = 100_000, seed: int = 20240) -> CorrectionEstimate:
    """Worst-case CHSH deviation between the real chip and its nearest ideal.

    Maximizes |chi_ideal - chi_real| over all angle tuples (phi, phi',
    theta, theta') in [0, pi)^4 and all input states, where chi_real uses
    the error-afflicted rotation operators (the same fixed error set in all
    four correlation terms) and chi_ideal the closed-form nearest
    factorized operators.  Deterministic for a fixed (seed, starts,
    probes) budget.
    """
    tr = _resolve_mmis(mmis)

    def obj(ang: np.ndarray) -> np.ndarray:
        return _spectral_norm_hermitian(_chi_deviation_operator(ang, errors, tr))

    def probe(ang: np.ndarray, psi: np.ndarray) -> np.ndarray:
        zz = np.abs(rotate(*tr, *_chsh_phases(ang, errors), psi)) ** 2 @ _ZZ_DIAG
        return np.abs(_CHSH_SIGNS @ (zz[0] - zz[1]).reshape(4, -1))

    return _maximize_deviation(probe, obj, 4, starts, probes, seed)


def e_p(errors: PhaseErrorSet, mmis: Sequence[MmiParams] | None = None,
        starts: int = 64, probes: int = 100_000, seed: int = 20240) -> CorrectionEstimate:
    """Worst-case single-outcome probability deviation, |P_ideal - P_real|.

    Same contract as :func:`e_chi`, over (phi, theta) in [0, pi)^2 and all
    four outcomes.  A probe scores its state by the largest of the four
    |P_ideal(c) - P_real(c)|: outcomes c and c+2 have equal operator norms,
    so ranking the outcomes by norm would pick between them by rounding.
    """
    tr = _resolve_mmis(mmis)

    def obj(ang: np.ndarray) -> np.ndarray:
        # the largest || Pi_ideal - Pi_real || over the 4 outcomes
        return np.max(_spectral_norm_hermitian(_outcome_deviations(ang, errors, tr)), axis=0)

    def probe(ang: np.ndarray, psi: np.ndarray) -> np.ndarray:
        u_psi = rotate(*tr, *_stage_phases(ang[..., 0], ang[..., 1], errors), psi)
        return np.max(np.abs(np.abs(u_psi[0]) ** 2 - np.abs(u_psi[1]) ** 2), axis=-1)

    return _maximize_deviation(probe, obj, 2, starts, probes, seed)


# ---------------------------------------------------------------------------
# guessing probability and min-entropy
# ---------------------------------------------------------------------------

def guessing_curve(x: float | np.ndarray) -> np.ndarray:
    """f of :func:`guessing_bound` elementwise, 1/2 beyond 2 sqrt(2), unchecked."""
    x = np.asarray(x, dtype=float)
    return 0.5 + 0.5 * np.sqrt(np.maximum(2.0 - x * x / 4.0, 0.0))


def guessing_bound(chi: float) -> float:
    """f(chi) = 1/2 + 1/2 sqrt(2 - chi^2/4), the violation-to-guessing map.

    Defined on [2, 2 sqrt(2)], decreasing and concave: f(2) = 1 (no
    certification at the classical boundary), f(2 sqrt 2) = 1/2.
    """
    if not 2.0 - 1e-12 <= chi <= 2.0 * SQRT2 + 1e-12:
        raise ValueError(f"chi = {chi!r} outside [2, 2 sqrt 2]")
    return float(guessing_curve(chi))


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
