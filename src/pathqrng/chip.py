"""Composition of the full photonic circuit.

The chip has three parts, in propagation order:

1. generation: one MMI plus a relative phase xi prepares the path-entangled
   single-photon state (t |UF> + i r e^{i xi} |DN>) / sqrt(t^2 + r^2);
2. relative-position rotation: one MZI per absolute branch rotates the
   {|F>, |N>} qubit by phi = phi1 - phi2;
3. absolute-position rotation: an MZI-equivalent per relative branch
   (the physical layout uses crossings to regroup the waveguides) rotates
   the {|U>, |D>} qubit by theta = theta1 - theta2.

Each of the four physical phase shifters per stage carries its own error
offset, which is what breaks the ideal product form B(phi) (x) A(theta) and
motivates the whole certification machinery.

:func:`rotation_matrix` is the one operator kernel for both stages.  It
broadcasts over leading axes, so the broadband simulation evaluates every
spectrum node in one call and ``certify`` every searched angle tuple.
:func:`broadband_probabilities` is the one detection path: the generated
state through the loss and rotation operators, clicks by the Born rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .optics import (DESIGN_WAVELENGTH_NM, EPS_MAX, IDEAL_MMI, LOSSLESS, LossModel, MmiParams,
                     WavelengthSpectrum, loss_operator, mzi_matrix)

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
class RotationSetting:
    """Heater phases of both rotation stages plus per-shifter errors.

    The rotation angles seen by the Bell analysis are the differences
    phi = phi1 - phi2 and theta = theta1 - theta2.  ``dphi`` and ``dtheta``
    hold the four error offsets of each stage in the order (branch-1
    shifter 1, branch-1 shifter 2, branch-2 shifter 1, branch-2 shifter 2),
    where branch 1 is |U> for the phi stage and |F> for the theta stage.
    """

    phi1: float
    phi2: float
    theta1: float
    theta2: float
    dphi: Errors4 = _NO_ERRORS
    dtheta: Errors4 = _NO_ERRORS

    def __post_init__(self) -> None:
        for name in ("phi1", "phi2", "theta1", "theta2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "dphi", _check_errors(self.dphi, "dphi"))
        object.__setattr__(self, "dtheta", _check_errors(self.dtheta, "dtheta"))

    @property
    def phi(self) -> float:
        return self.phi1 - self.phi2

    @property
    def theta(self) -> float:
        return self.theta1 - self.theta2

    @classmethod
    def from_angles(cls, phi: float, theta: float, dphi: Errors4 = _NO_ERRORS,
                    dtheta: Errors4 = _NO_ERRORS) -> "RotationSetting":
        """Place the full rotation on the first shifter of each pair."""
        return cls(phi, 0.0, theta, 0.0, dphi, dtheta)


@dataclass(frozen=True)
class ChipConfig:
    """Every physical parameter of the simulated chip.

    ``mzi_mmis`` holds the splitter parameters of the four rotation MZIs in
    the order (phi stage |U> branch, phi stage |D> branch, theta stage |F>
    branch, theta stage |N> branch).  ``phase_dispersion`` enables the
    lambda_0/lambda scaling of all heater phases during broadband averaging.
    """

    generation_mmi: MmiParams = IDEAL_MMI
    mzi_mmis: tuple[MmiParams, MmiParams, MmiParams, MmiParams] = (
        IDEAL_MMI, IDEAL_MMI, IDEAL_MMI, IDEAL_MMI)
    generation: GenerationSetting = GenerationSetting()
    loss: LossModel = field(default_factory=LossModel)
    spectrum: WavelengthSpectrum = field(
        default_factory=lambda: WavelengthSpectrum.single(DESIGN_WAVELENGTH_NM))
    phase_dispersion: bool = False

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


def shifter_phases(angle1, angle2, offsets: Errors4, scale=1.0) -> np.ndarray:
    """(..., 4) total phases of one stage's shifters, in offset order.

    Both branches carry the set phases (angle1, angle2), each shifter adds
    its own offset, and ``scale`` multiplies set value and offset alike
    (the lambda_0/lambda thermo-optic dispersion).  All arguments but
    ``offsets`` broadcast.
    """
    s = np.asarray(scale)[..., None]
    nominal = np.where(_FIRST_SHIFTER, np.asarray(angle1)[..., None], np.asarray(angle2)[..., None])
    return s * nominal + s * np.asarray(offsets, dtype=float)


def rotation_matrix(t, r, phi_shifts, theta_shifts) -> np.ndarray:
    """(..., 4, 4) rotation operator, theta stage after phi stage.

    ``t``, ``r`` (..., 4) are the splitter amplitudes of the four MZIs in
    ``ChipConfig.mzi_mmis`` order; ``phi_shifts``, ``theta_shifts`` (..., 4)
    are each stage's :func:`shifter_phases`.  All arguments broadcast.  The
    phi stage P_U (x) MZI_U + P_D (x) MZI_D fills the blocks [0:2, 0:2] and
    [2:4, 2:4]; its mirror image, the theta stage MZI_F (x) P_F +
    MZI_N (x) P_N, fills [0::2, 0::2] and [1::2, 1::2].
    """
    t, r, zp, zt = (np.asarray(a) for a in (t, r, phi_shifts, theta_shifts))
    mu = mzi_matrix(t[..., 0], r[..., 0], zp[..., 0], zp[..., 1])
    md = mzi_matrix(t[..., 1], r[..., 1], zp[..., 2], zp[..., 3])
    mf = mzi_matrix(t[..., 2], r[..., 2], zt[..., 0], zt[..., 1])
    mn = mzi_matrix(t[..., 3], r[..., 3], zt[..., 2], zt[..., 3])
    shape = np.broadcast_shapes(mu.shape, md.shape, mf.shape, mn.shape)
    rel = np.zeros(shape[:-2] + (4, 4), dtype=complex)
    rel[..., 0:2, 0:2] = mu
    rel[..., 2:4, 2:4] = md
    ab = np.zeros_like(rel)
    ab[..., 0::2, 0::2] = mf
    ab[..., 1::2, 1::2] = mn
    return ab @ rel


def _mzi_amplitudes(mmis: tuple[MmiParams, ...],
                    wavelength_nm: float | np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """(t, r) of the four rotation MZIs, each (..., 4) over the wavelength axes."""
    t, r = zip(*(m.resolve(wavelength_nm) for m in mmis))
    return np.stack(np.broadcast_arrays(*t), axis=-1), np.stack(np.broadcast_arrays(*r), axis=-1)


def broadband_probabilities(cfg: ChipConfig, r: RotationSetting) -> np.ndarray:
    """Click probabilities (4,) in basis order, averaged over the source spectrum.

    Each wavelength node is simulated independently (its own splitter
    coefficients and, when ``phase_dispersion`` is set, heater phases
    scaled by lambda_0/lambda) and the distributions are mixed with the
    node weights, a convex combination of per-wavelength statistics.  The
    nodes form the batch axis of one :func:`rotation_matrix` call.
    """
    wl = cfg.spectrum.wavelengths
    scale = DESIGN_WAVELENGTH_NM / wl if cfg.phase_dispersion else np.ones_like(wl)
    u = rotation_matrix(*_mzi_amplitudes(cfg.mzi_mmis, wl),
                        shifter_phases(r.phi1, r.phi2, r.dphi, scale),
                        shifter_phases(r.theta1, r.theta2, r.dtheta, scale))
    psi = generation_state(cfg.generation, cfg.generation_mmi, wl)
    clicks = np.abs((u @ loss_operator(cfg.loss) @ psi[..., None])[..., 0]) ** 2
    total = np.sum(clicks, axis=-1, keepdims=True)
    if np.any(total <= 1e-300):
        raise ValueError("state is annihilated by the transfer operator")
    return cfg.spectrum.weights @ (clicks / total)
