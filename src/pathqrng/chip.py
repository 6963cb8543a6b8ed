"""Composition of the full photonic circuit.

The chip has three parts, in propagation order:

1. generation: one MMI plus a relative phase xi prepares the path-entangled
   single-photon state (t |UF> + i r e^{i xi} |DN>) / sqrt(t^2 + r^2);
2. relative-position rotation: one MZI per absolute branch rotates the
   {|F>, |N>} qubit by phi = phi1 - phi2;
3. absolute-position rotation: an MZI-equivalent per relative branch
   (the physical layout uses crossings to regroup the waveguides) rotates
   the {|U>, |D>} qubit by theta = theta1 - theta2.

Only the differences matter: a phase common to both shifters of a stage
multiplies every amplitude by the same factor, a global phase.  So the
model sets phi (theta) on each branch's first shifter and 0 on its second.

Each of the four physical phase shifters per stage carries its own error
offset (:class:`PhaseErrorSet`, a field of :class:`ChipConfig`), which is
what breaks the ideal product form B(phi) (x) A(theta) and motivates the
whole certification machinery.

:func:`rotate` is the one rotation kernel: the only place where the four
stage MZIs are built and composed.  It applies them to state vectors and
broadcasts over leading axes, so the broadband simulation evaluates every
spectrum node in one call and ``certify`` every searched angle tuple.
:func:`rotation_matrix` is the operator of the same kernel, the rotated
basis states as columns, for the spectral-norm objectives of ``certify``.
:func:`broadband_probabilities` is the one detection path: the generated
state, times the scalar loss amplitude, through :func:`rotate`, clicks by
the Born rule.  Its angles broadcast, so one call evaluates a block of
angle pairs at every spectrum node, one (..., 4) distribution per pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .optics import (DESIGN_WAVELENGTH_NM, EPS_MAX, IDEAL_MMI, LOSSLESS, LossModel, MmiParams,
                     WavelengthSpectrum, mzi_matrix)

Errors4 = tuple[float, float, float, float]
_NO_ERRORS: Errors4 = (0.0, 0.0, 0.0, 0.0)
#: which of a stage's four shifters (branch 1 and 2, shifter 1 and 2) is a first one
_FIRST_SHIFTER = np.array([True, False, True, False])


def _check_errors(d: Errors4, name: str) -> Errors4:
    d = tuple(float(x) for x in d)  # type: ignore[assignment]
    if len(d) != 4:
        raise ValueError(f"{name} needs exactly 4 offsets")
    for x in d:
        if not math.isfinite(x) or abs(x) > EPS_MAX:
            raise ValueError(f"{name} offset {x!r} not finite or beyond the {EPS_MAX} rad guard")
    return d


@dataclass(frozen=True)
class GenerationSetting:
    """Relative phase of the generation stage.

    ``xi`` is the phase between the |UF> and |DN> components; xi = -pi/2
    makes the ideal state (|UF> + |DN>)/sqrt(2).  The two compensation
    phases mirror the knobs used to trim the far and near branches during
    alignment; they default to 0, leaving a single effective xi.
    """

    xi: float = -math.pi / 2.0
    comp_far: float = 0.0
    comp_near: float = 0.0

    def __post_init__(self) -> None:
        for name in ("xi", "comp_far", "comp_near"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class PhaseErrorSet:
    """The eight phase-shifter error offsets of one chip, radians.

    ``dphi`` and ``dtheta`` hold the four offsets of each rotation stage in
    the order (branch-1 shifter 1, branch-1 shifter 2, branch-2 shifter 1,
    branch-2 shifter 2), where branch 1 is |U> for the phi stage and |F> for
    the theta stage.
    """

    dphi: Errors4
    dtheta: Errors4

    def __post_init__(self) -> None:
        object.__setattr__(self, "dphi", _check_errors(self.dphi, "dphi"))
        object.__setattr__(self, "dtheta", _check_errors(self.dtheta, "dtheta"))


@dataclass(frozen=True)
class ChipConfig:
    """Every physical parameter of the simulated chip.

    ``mzi_mmis`` holds the splitter parameters of the four rotation MZIs in
    the order (phi stage |U> branch, phi stage |D> branch, theta stage |F>
    branch, theta stage |N> branch).  ``phase_dispersion`` enables the
    lambda_0/lambda scaling of all heater phases during broadband averaging.
    ``errors`` are the chip's phase-shifter offsets, measured once per chip
    and the same at every measurement setting.
    """

    generation_mmi: MmiParams = IDEAL_MMI
    mzi_mmis: tuple[MmiParams, MmiParams, MmiParams, MmiParams] = (
        IDEAL_MMI, IDEAL_MMI, IDEAL_MMI, IDEAL_MMI)
    generation: GenerationSetting = GenerationSetting()
    loss: LossModel = field(default_factory=LossModel)
    spectrum: WavelengthSpectrum = field(
        default_factory=lambda: WavelengthSpectrum.single(DESIGN_WAVELENGTH_NM))
    phase_dispersion: bool = False
    errors: PhaseErrorSet = PhaseErrorSet(_NO_ERRORS, _NO_ERRORS)

    def __post_init__(self) -> None:
        if len(self.mzi_mmis) != 4:
            raise ValueError("mzi_mmis needs exactly 4 entries")

    @classmethod
    def balanced(cls, **kwargs) -> "ChipConfig":
        """All splitters ideal 50:50, lossless, monochromatic."""
        return cls(loss=LOSSLESS, **kwargs)

    @classmethod
    def unbalanced(cls, t_power: float = 0.4, r_power: float = 0.6, **kwargs) -> "ChipConfig":
        """Every splitter at the same measured power ratio (default 40:60)."""
        mmi = MmiParams.from_power(t_power, r_power)
        return cls(generation_mmi=mmi, mzi_mmis=(mmi, mmi, mmi, mmi), **kwargs)


def generation_state(g: GenerationSetting, mmi: MmiParams = IDEAL_MMI,
                     wavelength_nm: float | np.ndarray | None = None) -> np.ndarray:
    """State after the generation stage, (t|UF> + i r e^{i xi}|DN>)/sqrt(t^2+r^2).

    The branch the photon transmits into ends up in |UF>, the reflected
    branch in |DN>; the splitter's i sits on the reflected amplitude.  An
    array of wavelengths gives one state per node, shape (..., 4).
    """
    t, r = mmi.resolve(wavelength_nm)
    norm = np.hypot(t, r)
    if np.any(norm == 0.0):
        raise ValueError("generation MMI with t = r = 0 produces no state")
    psi = np.zeros(np.shape(norm) + (4,), dtype=complex)
    psi[..., 0] = t * np.exp(1j * g.comp_far)
    psi[..., 3] = 1j * r * np.exp(1j * (g.xi + g.comp_near))
    return psi / np.expand_dims(norm, -1)


def shifter_phases(angle, offsets: Errors4, scale=1.0) -> np.ndarray:
    """(..., 4) total phases of one stage's shifters, in offset order.

    Both branches set ``angle`` on their first shifter and 0 on the second,
    each shifter adds its own offset, and ``scale`` multiplies set value
    and offset alike (the lambda_0/lambda thermo-optic dispersion).  All
    arguments but ``offsets`` broadcast.
    """
    s = np.asarray(scale)[..., None]
    nominal = np.where(_FIRST_SHIFTER, np.asarray(angle)[..., None], 0.0)
    return s * nominal + s * np.asarray(offsets, dtype=float)


def _apply_pair(m: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One 2x2 MZI ``m`` (..., 2, 2) on the amplitude pair (x, y)."""
    return m[..., 0, 0] * x + m[..., 0, 1] * y, m[..., 1, 0] * x + m[..., 1, 1] * y


def rotate(t, r, phi_shifts, theta_shifts, psi) -> np.ndarray:
    """(..., 4) states ``psi`` through both rotation stages, theta stage after phi stage.

    ``t``, ``r`` (..., 4) are the splitter amplitudes of the four MZIs in
    ``ChipConfig.mzi_mmis`` order; ``phi_shifts``, ``theta_shifts`` (..., 4)
    are each stage's :func:`shifter_phases`; ``psi`` (..., 4) are states.
    All arguments broadcast.  The phi stage P_U (x) MZI_U + P_D (x) MZI_D
    applies MZI_U to the amplitude pair (0, 1) and MZI_D to (2, 3); its
    mirror image, the theta stage MZI_F (x) P_F + MZI_N (x) P_N, applies
    MZI_F to (0, 2) and MZI_N to (1, 3).  Each MZI is built at its own
    stage's broadcast shape, and no 4x4 operator is built.
    """
    t, r, zp, zt = (np.asarray(a) for a in (t, r, phi_shifts, theta_shifts))
    psi = np.asarray(psi)
    a0, a1 = _apply_pair(mzi_matrix(t[..., 0], r[..., 0], zp[..., 0], zp[..., 1]),
                         psi[..., 0], psi[..., 1])
    a2, a3 = _apply_pair(mzi_matrix(t[..., 1], r[..., 1], zp[..., 2], zp[..., 3]),
                         psi[..., 2], psi[..., 3])
    b0, b2 = _apply_pair(mzi_matrix(t[..., 2], r[..., 2], zt[..., 0], zt[..., 1]), a0, a2)
    b1, b3 = _apply_pair(mzi_matrix(t[..., 3], r[..., 3], zt[..., 2], zt[..., 3]), a1, a3)
    return np.stack([b0, b1, b2, b3], axis=-1)


def rotation_matrix(t, r, phi_shifts, theta_shifts) -> np.ndarray:
    """(..., 4, 4) operator of :func:`rotate`: column j is basis state j rotated."""
    cols = rotate(*(np.expand_dims(a, -2) for a in (t, r, phi_shifts, theta_shifts)), np.eye(4))
    return np.swapaxes(cols, -1, -2)


def _mzi_amplitudes(mmis: tuple[MmiParams, ...],
                    wavelength_nm: float | np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """(t, r) of the four rotation MZIs, each (..., 4) over the wavelength axes."""
    t, r = zip(*(m.resolve(wavelength_nm) for m in mmis))
    return np.stack(np.broadcast_arrays(*t), axis=-1), np.stack(np.broadcast_arrays(*r), axis=-1)


def broadband_probabilities(cfg: ChipConfig, phi, theta) -> np.ndarray:
    """Click probabilities (..., 4) in basis order at rotation angles (phi, theta).

    ``phi`` and ``theta`` broadcast: scalars give one distribution (4,),
    arrays of angle pairs one distribution per pair.  Every shifter carries
    its ``cfg.errors`` offset, and the probabilities are averaged over the
    source spectrum.  Each wavelength node is simulated independently (its
    own splitter coefficients and, when ``phase_dispersion`` is set, heater
    phases scaled by lambda_0/lambda) and the distributions are mixed with
    the node weights, a convex combination of per-wavelength statistics.
    The angles gain a trailing node axis, so the pairs and the nodes form
    the batch axes of one :func:`rotate` call, which takes the generated
    state times the scalar loss amplitude.  Raises ``ValueError`` if any
    pair's state is annihilated.
    """
    wl = cfg.spectrum.wavelengths
    scale = DESIGN_WAVELENGTH_NM / wl if cfg.phase_dispersion else np.ones_like(wl)
    psi = cfg.loss.amplitude * generation_state(cfg.generation, cfg.generation_mmi, wl)
    phi, theta = (np.expand_dims(np.asarray(a, dtype=float), -1) for a in (phi, theta))
    clicks = np.abs(rotate(*_mzi_amplitudes(cfg.mzi_mmis, wl),
                           shifter_phases(phi, cfg.errors.dphi, scale),
                           shifter_phases(theta, cfg.errors.dtheta, scale), psi)) ** 2
    total = np.sum(clicks, axis=-1, keepdims=True)
    if np.any(total <= 1e-300):
        raise ValueError("state is annihilated by the transfer operator")
    return cfg.spectrum.weights @ (clicks / total)
