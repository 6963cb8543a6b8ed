"""Transfer matrices of the integrated optical components.

Amplitude convention: an MMI splitter with power transmission T and power
reflection R acts on the two incoming modes as [[t, i r], [i r, t]] with
t = sqrt(T), r = sqrt(R).  Insertion loss is allowed (t^2 + r^2 <= 1); a
splitter is the only place loss enters the model, since a loss common to
every path cancels in the normalized click probabilities.
A thermo-optic phase shifter pair contributes diag(e^{2i z1}, e^{2i z2});
the factor 2 in the exponent follows the device's double-pass geometry, so
an MZI built as MMI . PS . MMI rotates by zeta = z1 - z2 while z1 + z2 only
moves the global phase.  :func:`mzi_matrix` is that product multiplied out
in closed form and broadcast over arrays; it is the package's only MZI
formula, and ``chip.rotate`` builds every rotation MZI from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: nominal design wavelength of the chip, nm
DESIGN_WAVELENGTH_NM = 730.0

#: validation guard on phase-error magnitudes, radians; generous compared
#: to anything a calibrated heater actually exhibits
EPS_MAX = 0.25


@dataclass(frozen=True)
class MmiParams:
    """Amplitude coefficients of a 2x2 MMI splitter.

    ``table`` optionally holds wavelength-resolved coefficients as rows of
    (wavelength_nm, t, r); lookups interpolate linearly between nodes and
    refuse to extrapolate.  Without a table the coefficients are flat in
    wavelength.
    """

    t: float
    r: float
    table: tuple[tuple[float, float, float], ...] | None = None

    def __post_init__(self) -> None:
        for tt, rr in [(self.t, self.r)] + [(row[1], row[2]) for row in (self.table or ())]:
            if not (0.0 <= tt <= 1.0 and 0.0 <= rr <= 1.0):
                raise ValueError(f"amplitudes must lie in [0, 1], got t={tt!r} r={rr!r}")
            if tt * tt + rr * rr > 1.0 + 1e-12:
                raise ValueError(f"t^2 + r^2 = {tt * tt + rr * rr!r} exceeds 1")
        if self.table is not None:
            wl = [row[0] for row in self.table]
            if not all(0.0 < w < math.inf for w in wl):
                raise ValueError(f"table wavelengths must be finite and positive, got {wl}")
            if len(wl) < 2 or sorted(wl) != wl or len(set(wl)) != len(wl):
                raise ValueError("wavelength table needs >= 2 strictly increasing nodes")

    @classmethod
    def from_power(cls, t_power: float, r_power: float,
                   table: tuple[tuple[float, float, float], ...] | None = None) -> "MmiParams":
        """Build from power coefficients (the units a lab reports)."""
        if t_power < 0.0 or r_power < 0.0:
            raise ValueError("power coefficients must be non-negative")
        return cls(math.sqrt(t_power), math.sqrt(r_power), table)

    def resolve(self, wavelength_nm: float | np.ndarray | None = None) -> tuple:
        """Coefficients at a wavelength, or arrays of them at an array of wavelengths.

        Without a table these are the flat values whatever the wavelength.
        """
        if self.table is None:
            return self.t, self.r
        if wavelength_nm is None:
            raise ValueError("this MMI is wavelength-tabulated; a wavelength is required")
        wl, ts, rs = np.array(self.table).T
        w = np.asarray(wavelength_nm, dtype=float)
        if not np.all((wl[0] <= w) & (w <= wl[-1])):
            raise ValueError(
                f"wavelength {wavelength_nm} nm outside table range [{wl[0]}, {wl[-1]}]")
        return np.interp(w, wl, ts), np.interp(w, wl, rs)


#: ideal lossless 50:50 splitter
IDEAL_MMI = MmiParams(2.0 ** -0.5, 2.0 ** -0.5)


@dataclass(frozen=True)
class WavelengthSpectrum:
    """Discrete probability measure over source wavelengths.

    ``nodes`` are (wavelength_nm, weight) pairs; weights are probability
    masses and must sum to 1 within 1e-12.
    """

    nodes: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("spectrum needs at least one node")
        # each comparison is False for NaN, so a NaN node fails it
        if not all(0.0 < wl < math.inf for wl, _ in self.nodes):
            raise ValueError("spectrum wavelengths must be finite and positive")
        if not all(0.0 <= w < math.inf for _, w in self.nodes):
            raise ValueError("spectrum weights must be finite and non-negative")
        total = math.fsum(w for _, w in self.nodes)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"spectrum weights sum to {total!r}, expected 1")

    @classmethod
    def single(cls, wavelength_nm: float = DESIGN_WAVELENGTH_NM) -> "WavelengthSpectrum":
        return cls(((float(wavelength_nm), 1.0),))

    @classmethod
    def gaussian(cls, center_nm: float = DESIGN_WAVELENGTH_NM, fwhm_nm: float = 20.0,
                 points: int = 21,
                 span_nm: tuple[float, float] = (720.0, 740.0)) -> "WavelengthSpectrum":
        """Gaussian envelope sampled on equally spaced nodes across the band."""
        if points < 1:
            raise ValueError("points must be >= 1")
        # each comparison is False for NaN, so a NaN value fails it
        if not (-math.inf < center_nm < math.inf and 0.0 < fwhm_nm < math.inf):
            raise ValueError("center_nm must be finite and fwhm_nm finite and positive")
        if not -math.inf < span_nm[0] < span_nm[1] < math.inf:
            raise ValueError("span_nm must be finite and strictly increasing")
        wl = np.linspace(span_nm[0], span_nm[1], points)
        sigma = fwhm_nm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        with np.errstate(over="ignore"):  # a square past the float range weighs 0
            w = np.exp(-0.5 * ((wl - center_nm) / sigma) ** 2)
        total = math.fsum(w)
        if total == 0.0:
            raise ValueError("every spectrum weight underflows to 0; "
                             "center_nm is too far from span_nm for fwhm_nm")
        w = w / total
        # nudge the largest weight so the masses sum to 1 exactly in floats
        w[int(np.argmax(w))] += 1.0 - math.fsum(w)
        return cls(tuple((float(a), float(b)) for a, b in zip(wl, w)))

    @property
    def wavelengths(self) -> np.ndarray:
        return np.array([n[0] for n in self.nodes])

    @property
    def weights(self) -> np.ndarray:
        return np.array([n[1] for n in self.nodes])


def mzi_matrix(t, r, z1, z2) -> np.ndarray:
    """(..., 2, 2) Mach-Zehnder transfer matrices MMI . PS . MMI.

    ``t``, ``r`` are the amplitudes of both splitters and ``z1``, ``z2`` the
    total shifter phases (set value plus error); all four broadcast.
    Multiplied out, with e_k = e^{2i z_k}:

        [[t^2 e1 - r^2 e2,   i t r (e1 + e2)],
         [i t r (e1 + e2),   t^2 e2 - r^2 e1]].

    For ideal 50:50 splitters this is i e^{i(z1+z2)} [[sin z, cos z],
    [cos z, -sin z]] with z = z1 - z2, a rotation by the phase difference
    alone; with t = 1, r = 0 it is the bare shifter pair diag(e1, e2).
    """
    e1 = np.exp(2j * np.asarray(z1))
    e2 = np.exp(2j * np.asarray(z2))
    m = np.empty(np.broadcast(t, r, e1, e2).shape + (2, 2), dtype=complex)
    m[..., 0, 0] = t * t * e1 - r * r * e2
    m[..., 0, 1] = 1j * t * r * (e1 + e2)
    m[..., 1, 0] = m[..., 0, 1]
    m[..., 1, 1] = t * t * e2 - r * r * e1
    return m
