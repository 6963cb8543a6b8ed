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

The rotation operators the search compares come from
``chip.rotation_matrix``, the same batched kernel that simulates the chip:
one call per angle batch yields the nearest factorized and the real
operator side by side.

The correction-term maximization exploits that the objective is linear in
the input density operator: for fixed angles the best state is an extreme
point, and the exact inner maximum over all states is the spectral norm of
a Hermitian 4x4 operator.  The outer angle search is a seeded multi-start
coordinate refinement, cross-checked by a large pass of random probes over
explicit pure states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .chip import _NO_ERRORS, Errors4, _check_errors, rotation_matrix, shifter_phases
from .optics import DESIGN_WAVELENGTH_NM, IDEAL_MMI, MmiParams

SQRT2 = math.sqrt(2.0)

_ZZ_DIAG = np.array([1.0, -1.0, -1.0, 1.0])
_CHSH_SIGNS = (1.0, -1.0, 1.0, 1.0)  # minus on the (phi, theta') term


@dataclass(frozen=True)
class PhaseErrorSet:
    """The eight phase-shifter error offsets of one chip, radians."""

    dphi: Errors4
    dtheta: Errors4

    def __post_init__(self) -> None:
        object.__setattr__(self, "dphi", _check_errors(self.dphi, "dphi"))
        object.__setattr__(self, "dtheta", _check_errors(self.dtheta, "dtheta"))


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


def hs_error_bound(epsilon: float, stages: int = 1) -> float:
    """First-order bound on the distance to the nearest factorized operator.

    4 epsilon for a single stage, 8 sqrt(2) epsilon for the composed
    two-stage rotation, with epsilon the largest error magnitude.
    """
    if epsilon < 0.0:
        raise ValueError("epsilon must be non-negative")
    if stages == 1:
        return 4.0 * epsilon
    if stages == 2:
        return 8.0 * SQRT2 * epsilon
    raise ValueError("stages must be 1 or 2")


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


def _rotations(phi: np.ndarray, theta: np.ndarray, errors: PhaseErrorSet,
               tr: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """(2, ..., 4, 4): the nearest factorized and the real rotation operator.

    Both sit at the same nominal angles, theta stage after phi.  The real
    operator carries the error set.  The factorized one is, per stage, the
    closed-form nearest product operator: no errors, the rotation angle
    shifted by the stage's common-mode vartheta.  Its global phases
    e^{i varphi} are dropped since every use conjugates by this operator.
    """
    shift_phi = nearest_factorized(errors.dphi).vartheta
    shift_theta = nearest_factorized(errors.dtheta).vartheta
    phis = np.stack([shifter_phases(phi + shift_phi, 0.0, _NO_ERRORS),
                     shifter_phases(phi, 0.0, errors.dphi)])
    thetas = np.stack([shifter_phases(theta + shift_theta, 0.0, _NO_ERRORS),
                       shifter_phases(theta, 0.0, errors.dtheta)])
    return rotation_matrix(*tr, phis, thetas)


def _conjugate_diag(u: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """U^dag diag(d) U for batched U."""
    uc = np.conj(np.swapaxes(u, -1, -2))
    return (uc * diag) @ u


def _chi_deviation_operator(angles: np.ndarray, errors: PhaseErrorSet,
                            tr: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Hermitian operator whose expectation is chi_ideal - chi_real.

    ``angles`` has shape (..., 4) holding (phi, phi', theta, theta').  All
    four correlation terms carry the same fixed error set.
    """
    phi, phip, th, thp = (angles[..., k] for k in range(4))
    delta = np.zeros(angles.shape[:-1] + (4, 4), dtype=complex)
    pairs = ((phi, th), (phi, thp), (phip, th), (phip, thp))
    for sign, (p, q) in zip(_CHSH_SIGNS, pairs):
        ui, ur = _rotations(p, q, errors, tr)
        delta += sign * (_conjugate_diag(ui, _ZZ_DIAG) - _conjugate_diag(ur, _ZZ_DIAG))
    return delta


def _spectral_norm_hermitian(h: np.ndarray) -> np.ndarray:
    w = np.linalg.eigvalsh(h)
    return np.maximum(np.abs(w[..., 0]), np.abs(w[..., -1]))


def _outcome_deviations(angles: np.ndarray, errors: PhaseErrorSet,
                        tr: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """(4, ..., 4, 4): Pi_ideal - Pi_real of each outcome c at (phi, theta).

    U^dag |c><c| U is the outer product of U's row c with itself.
    """
    ui, ur = _rotations(angles[..., 0], angles[..., 1], errors, tr)
    return np.stack([np.conj(ui[..., c, :, None]) * ui[..., c, None, :]
                     - np.conj(ur[..., c, :, None]) * ur[..., c, None, :] for c in range(4)])


# ---------------------------------------------------------------------------
# derivative-free maximization
# ---------------------------------------------------------------------------

#: rotation operators repeat after pi (up to global phase), so every angle
#: lives on [0, pi)
_ANGLE_PERIOD = math.pi


def _coordinate_ascent(f: Callable[[np.ndarray], np.ndarray], x0: np.ndarray,
                       step0: float = 0.4, step_min: float = 1e-4) -> tuple[np.ndarray, float]:
    """Greedy pattern search on the angle torus, halving the step on stalls.

    Each iteration evaluates all 2*ndim single-coordinate moves in one
    batched objective call and takes the best improving one.
    """
    ndim = x0.size
    x = x0.copy()
    fx = float(f(x[None, :])[0])
    step = step0
    eye = np.eye(ndim)
    while step >= step_min:
        moves = np.concatenate([x + step * eye, x - step * eye]) % _ANGLE_PERIOD
        vals = f(moves)
        k = int(np.argmax(vals))
        if vals[k] > fx:
            x = moves[k]
            fx = float(vals[k])
        else:
            step *= 0.5
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

    def __float__(self) -> float:
        return self.value


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


def _maximize_deviation(operator_fn: Callable[[np.ndarray], np.ndarray],
                        objective: Callable[[np.ndarray], np.ndarray], ndim: int,
                        starts: int, probes: int, seed: int,
                        step_min: float) -> CorrectionEstimate:
    """Multi-start coordinate refinement plus a random-probe verification pass.

    The coordinate search maximizes the exact state maximum (spectral norm)
    over angles.  The probe pass then samples random angles together with
    random explicit pure states; it can only confirm, never exceed, the
    spectral-norm maximum, and serves as an independent floor.
    """
    if starts < 2:
        raise ValueError("need at least 2 starts")
    ss = np.random.SeedSequence(seed)
    rng_starts, rng_probes = (np.random.default_rng(s) for s in ss.spawn(2))

    x0s = rng_starts.uniform(0.0, _ANGLE_PERIOD, size=(starts, ndim))
    best_val = -np.inf
    best_half = -np.inf
    best_x = x0s[0]
    for i, x0 in enumerate(x0s):
        x, fx = _coordinate_ascent(objective, x0, step_min=step_min)
        if fx > best_val:
            best_val, best_x = fx, x
        if i == starts // 2 - 1:
            best_half = best_val
    converged = (best_val - best_half) < 1e-3

    probe_best = 0.0
    chunk = 20000
    for lo in range(0, probes, chunk):
        n = min(chunk, probes - lo)
        ang = rng_probes.uniform(0.0, _ANGLE_PERIOD, size=(n, ndim))
        psi = _random_pure_states(rng_probes, n)
        dev = operator_fn(ang)
        vals = np.abs(np.einsum("ni,nij,nj->n", np.conj(psi), dev, psi).real)
        if n:
            probe_best = max(probe_best, float(np.max(vals)))

    return CorrectionEstimate(
        value=float(max(best_val, probe_best)), converged=converged, starts=starts,
        probes=probes, seed=seed, angles=tuple(float(v) for v in best_x),
        probe_best=probe_best)


def e_chi(errors: PhaseErrorSet, mmis: Sequence[MmiParams] | None = None,
          starts: int = 64, probes: int = 100_000, seed: int = 20240,
          step_min: float = 1e-4) -> CorrectionEstimate:
    """Worst-case CHSH deviation between the real chip and its nearest ideal.

    Maximizes |chi_ideal - chi_real| over all angle tuples (phi, phi',
    theta, theta') in [0, pi)^4 and all input states, where chi_real uses
    the error-afflicted rotation operators (the same fixed error set in all
    four correlation terms) and chi_ideal the closed-form nearest
    factorized operators.  Deterministic for a fixed (seed, starts,
    probes) budget.
    """
    tr = _resolve_mmis(mmis)

    def op(ang: np.ndarray) -> np.ndarray:
        return _chi_deviation_operator(ang, errors, tr)

    def obj(ang: np.ndarray) -> np.ndarray:
        return _spectral_norm_hermitian(op(ang))

    return _maximize_deviation(op, obj, 4, starts, probes, seed, step_min)


def e_p(errors: PhaseErrorSet, mmis: Sequence[MmiParams] | None = None,
        starts: int = 64, probes: int = 100_000, seed: int = 20240,
        step_min: float = 1e-4) -> CorrectionEstimate:
    """Worst-case single-outcome probability deviation, |P_ideal - P_real|.

    Same contract as :func:`e_chi`, over (phi, theta) in [0, pi)^2 and all
    four outcomes.  The probe pass folds the outcome choice into the
    reported operator by keeping, per probe point, the outcome whose
    deviation operator has the largest spectral norm.
    """
    tr = _resolve_mmis(mmis)

    def obj(ang: np.ndarray) -> np.ndarray:
        # the largest || Pi_ideal - Pi_real || over the 4 outcomes
        return np.max(_spectral_norm_hermitian(_outcome_deviations(ang, errors, tr)), axis=0)

    def op(ang: np.ndarray) -> np.ndarray:
        stack = _outcome_deviations(ang, errors, tr)  # (4, n, 4, 4)
        pick = np.argmax(_spectral_norm_hermitian(stack), axis=0)
        return stack[pick, np.arange(stack.shape[1])]

    return _maximize_deviation(op, obj, 2, starts, probes, seed, step_min)


# ---------------------------------------------------------------------------
# guessing probability and min-entropy
# ---------------------------------------------------------------------------

def guessing_bound(chi: float) -> float:
    """f(chi) = 1/2 + 1/2 sqrt(2 - chi^2/4), the violation-to-guessing map.

    Defined on [2, 2 sqrt(2)], decreasing and concave: f(2) = 1 (no
    certification at the classical boundary), f(2 sqrt 2) = 1/2.
    """
    if not 2.0 - 1e-12 <= chi <= 2.0 * SQRT2 + 1e-12:
        raise ValueError(f"chi = {chi!r} outside [2, 2 sqrt 2]")
    return 0.5 + 0.5 * math.sqrt(max(2.0 - chi * chi / 4.0, 0.0))


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
    return min(1.0, 0.5 + 0.5 * math.sqrt(max(2.0 - x * x / 4.0, 0.0)) + e_p)


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


@dataclass(frozen=True)
class ConcavityReport:
    passed: bool
    worst_margin: float
    pairs_checked: int


def concavity_check(f_samples: Sequence[float], lambda_points: int = 21) -> ConcavityReport:
    """Verify concavity of the violation-to-guessing map on sampled pairs.

    Consecutive disjoint pairs (x, y) from ``f_samples`` are tested on a
    lambda grid: f(lambda x + (1-lambda) y) >= lambda f(x) + (1-lambda) f(y).
    Returns the worst margin (negative would be a violation).
    """
    xs = np.asarray(f_samples, dtype=float)
    if np.any(xs < 2.0 - 1e-12) or np.any(xs > 2.0 * SQRT2 + 1e-12):
        raise ValueError("samples must lie in [2, 2 sqrt 2]")
    if xs.size < 2:
        raise ValueError("need at least one pair of samples")
    x = xs[0 : xs.size - xs.size % 2 : 2]
    y = xs[1 : xs.size : 2]
    lam = np.linspace(0.0, 1.0, lambda_points)[:, None]

    def f(v: np.ndarray) -> np.ndarray:
        return 0.5 + 0.5 * np.sqrt(np.clip(2.0 - v * v / 4.0, 0.0, None))

    mix = f(lam * x[None, :] + (1.0 - lam) * y[None, :])
    bound = lam * f(x)[None, :] + (1.0 - lam) * f(y)[None, :]
    worst = float(np.min(mix - bound))
    return ConcavityReport(passed=worst >= -1e-12, worst_margin=worst, pairs_checked=x.size)
