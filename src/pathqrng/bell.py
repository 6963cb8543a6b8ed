"""CHSH correlation analysis.

The correlation coefficient of a 4-outcome click distribution is

    E = P(UF) + P(DN) - P(UN) - P(DF),

the expectation of sigma_z (x) sigma_z after the rotations.  Four
coefficients at angle settings (phi, phi') x (theta, theta') combine into
the CHSH function

    chi = E(phi, theta) - E(phi, theta') + E(phi', theta) + E(phi', theta'),

classically bounded by 2 and quantum mechanically by 2 sqrt(2).  For the
ideal chip E(phi, theta) = cos 2(phi - theta), and the one-parameter family
phi = -alpha/2, phi' = alpha/2, theta = 0, theta' = alpha collapses chi to
3 cos(alpha) - cos(3 alpha), maximal at alpha = pi/4.

A measured scan is a :class:`CorrelationGrid` over strictly increasing phi
and theta lists, built from its (phi, theta) cells by
:meth:`CorrelationGrid.from_cells`.  :func:`best_combination_search` takes
the best chi over every oriented setting tuple of a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

#: grid-independent quantum maximum of |chi|
CHI_QUANTUM_MAX = 2.0 * math.sqrt(2.0)

#: the most cells a grid may span, checked before its arrays are built; a
#: scan, one cell per angle pair, schedules no more pairs than this
MAX_GRID_CELLS = 1_000_000


def correlation_coefficient(p: Sequence[float] | np.ndarray) -> float | np.ndarray:
    """E = P(UF) + P(DN) - P(UN) - P(DF) of 4-outcome distributions.

    ``p`` holds distributions in basis order along its last axis, shape
    (..., 4); the result has shape (...), a float for a single distribution.
    This is the one E formula: ``events.windowed_traces`` and the CLI's
    correlation grid both call it.
    """
    v = np.asarray(p, dtype=float)
    if v.shape[-1:] != (4,):
        raise ValueError(f"distributions need 4 entries on the last axis, got shape {v.shape}")
    e = v[..., 0] + v[..., 3] - v[..., 1] - v[..., 2]
    return float(e) if e.ndim == 0 else e


def chi_from_coefficients(e00: float | np.ndarray, e01: float | np.ndarray,
                          e10: float | np.ndarray, e11: float | np.ndarray) -> float | np.ndarray:
    """CHSH combination with the minus sign on the (phi, theta') term.

    Arguments are E(phi, theta), E(phi, theta'), E(phi', theta),
    E(phi', theta') in that order, numbers or arrays that broadcast.  This
    is the one CHSH rule: ``events.windowed_traces`` calls it, and
    :data:`CHSH_SIGNS` is its sign pattern.
    """
    for e in (e00, e01, e10, e11):
        if np.any(np.abs(e) > 1.0 + 1e-9):
            raise ValueError(f"correlation coefficient {e!r} outside [-1, 1]")
    return e00 - e01 + e10 + e11


#: the sign of each CHSH term, in :func:`chi_from_coefficients`' argument order
CHSH_SIGNS = chi_from_coefficients(*np.eye(4))


def chi_alpha_ideal(alpha: float) -> float:
    """chi of the ideal chip along the one-parameter CHSH family."""
    return 3.0 * math.cos(alpha) - math.cos(3.0 * alpha)


@dataclass(frozen=True)
class CorrelationGrid:
    """Correlation coefficients tabulated over a (phi, theta) scan.

    ``e[i, j]`` is E(phi_values[i], theta_values[j]); NaN marks cells with
    no data (discarded or unreachable acquisitions), which every search
    skips.  ``stderr`` optionally carries per-cell standard errors.  Both
    angle lists are finite and strictly increasing (-0.0 next to 0.0 is a
    repeat), so index order is angle order.
    """

    phi_values: tuple[float, ...]
    theta_values: tuple[float, ...]
    e: np.ndarray
    stderr: np.ndarray | None = None

    def __post_init__(self) -> None:
        e = np.asarray(self.e, dtype=float)
        object.__setattr__(self, "e", e)
        if e.shape != (len(self.phi_values), len(self.theta_values)):
            raise ValueError(f"E shape {e.shape} does not match the angle lists")
        if not np.all(np.isfinite(np.concatenate((self.phi_values, self.theta_values)))):
            raise ValueError("grid angles must be finite")
        for name, values in (("phi", self.phi_values), ("theta", self.theta_values)):
            # -0.0 == 0.0, so the pair is a repeat
            repeat = np.flatnonzero(~(np.diff(values) > 0.0))
            if repeat.size:
                i = repeat[0]
                raise ValueError(f"grid {name} values must strictly increase, not "
                                 f"{float(values[i])!r} then {float(values[i + 1])!r}")

        def cell(i: int, j: int) -> str:
            return f"phi={float(self.phi_values[i])!r} theta={float(self.theta_values[j])!r}"

        # NaN is the only missing mark; an infinite E is out of range, not missing
        has_data = ~np.isnan(e)
        bad = np.argwhere(has_data & ~(np.abs(e) <= 1.0 + 1e-9))
        if bad.size:
            i, j = bad[0]
            raise ValueError(f"grid holds a correlation coefficient {float(e[i, j])!r} at "
                             f"{cell(i, j)} outside [-1, 1]")
        if self.stderr is not None:
            se = np.asarray(self.stderr, dtype=float)
            object.__setattr__(self, "stderr", se)
            if se.shape != e.shape:
                raise ValueError("stderr shape does not match E")
            # a missing or negative stderr would shrink the chi stderr of a quad
            bad = np.argwhere(has_data & ~(np.isfinite(se) & (se >= 0.0)))
            if bad.size:
                i, j = bad[0]
                raise ValueError(f"stderr {float(se[i, j])!r} at {cell(i, j)} "
                                 "must be finite and non-negative")

    @classmethod
    def from_cells(cls,
                   cells: Mapping[tuple[float, float], tuple[float, float]]) -> CorrelationGrid:
        """The grid over the sorted distinct angles of (phi, theta) -> (E, stderr) cells.

        Cells missing from the product of the angle lists are NaN, and a
        stderr that is NaN in every cell becomes None.  A product of more
        than :data:`MAX_GRID_CELLS` cells is refused before any array is built.
        """
        phis = {p: i for i, p in enumerate(sorted({k[0] for k in cells}))}
        thetas = {t: j for j, t in enumerate(sorted({k[1] for k in cells}))}
        if len(phis) * len(thetas) > MAX_GRID_CELLS:
            raise ValueError(f"{len(phis)} phi x {len(thetas)} theta values give more than "
                             f"{MAX_GRID_CELLS} grid cells")
        e = np.full((len(phis), len(thetas)), np.nan)
        se = np.full((len(phis), len(thetas)), np.nan)
        for (p, t), (ev, sv) in cells.items():
            e[phis[p], thetas[t]] = ev
            se[phis[p], thetas[t]] = sv
        return cls(tuple(phis), tuple(thetas), e, None if np.all(np.isnan(se)) else se)


def check_chi(chi: float, stderr: float = 0.0) -> None:
    """Reject a CHSH value that no quantum experiment can report.

    That is a value or standard error that is not finite, a negative
    standard error, or |chi| beyond Tsirelson's bound 2 sqrt 2 by more than
    three standard errors of statistical slack.
    """
    if not (math.isfinite(chi) and math.isfinite(stderr) and stderr >= 0.0):
        raise ValueError(f"chi = {chi!r} +- {stderr!r} must be finite, "
                         "with a non-negative standard error")
    if abs(chi) > CHI_QUANTUM_MAX + 3.0 * stderr + 1e-9:
        raise ValueError(
            f"chi = {chi!r} violates the quantum bound beyond statistical slack")


@dataclass(frozen=True)
class ChiResult:
    """One CHSH value with the angle tuple that produced it.

    ``angles`` is (phi, phi', theta, theta'); the minus sign always sits on
    the E(phi, theta') term, so the sign assignment that won a search is
    encoded in the ordering of the reported tuple.  ``sign`` records
    whether this was the search maximum or minimum.
    """

    chi: float
    angles: tuple[float, float, float, float]
    stderr: float = 0.0
    sign: str = "max"

    def __post_init__(self) -> None:
        # Python floats, so an error message and a document show plain numbers
        object.__setattr__(self, "chi", float(self.chi))
        object.__setattr__(self, "stderr", float(self.stderr))
        object.__setattr__(self, "angles", tuple(map(float, self.angles)))
        check_chi(self.chi, self.stderr)


def best_combination_search(grid: CorrelationGrid) -> tuple[ChiResult, ChiResult]:
    """Exhaustive CHSH search over every oriented setting tuple of a grid.

    A tuple (phi, phi', theta, theta') is two distinct phi rows and two
    distinct theta columns, with the minus sign on E(phi, theta'): four per
    quad of cells.  Tuples touching a NaN cell are skipped.  Returns the
    global maximum and minimum.  The angles strictly increase, so an exact
    tie goes to the first tuple in index order, the lexicographically smallest.

    One pass per phi row holds its (n_phi - 1, n_theta, n_theta) block over
    (phi', theta, theta').  chi is the tuple's four cells summed in index
    order, lower row and then lower column first, minus 2 E(phi, theta');
    each row's pair sums E[r, lo] + E[r, hi] are formed once.
    """
    ph, th, e = grid.phi_values, grid.theta_values, grid.e
    if len(ph) < 2 or len(th) < 2:
        raise ValueError("the search needs at least 2 phi values and 2 theta values")
    cols = np.arange(len(th))
    e_lo, e_hi = e[:, np.minimum.outer(cols, cols)], e[:, np.maximum.outer(cols, cols)]
    pair = e_lo + e_hi
    chi = np.empty((len(ph) - 1, len(th), len(th)))
    best: dict[str, tuple[float, int, int, int, int]] = {}
    for a in range(len(ph)):
        # block row k is phi row k below a, and row k + 1 from a on
        np.add(pair[:a], e_lo[a], out=chi[:a])
        chi[:a] += e_hi[a]
        np.add(pair[a], e_lo[a + 1:], out=chi[a:])
        chi[a:] += e_hi[a + 1:]
        chi -= 2.0 * e[a]
        chi[:, cols, cols] = np.nan
        for sign, arg, beats in (("max", np.nanargmax, np.greater),
                                 ("min", np.nanargmin, np.less)):
            try:
                k = arg(chi)
            except ValueError:  # every tuple of the block touches a NaN cell
                break
            if sign not in best or beats(chi.flat[k], best[sign][0]):
                b, c, d = np.unravel_index(k, chi.shape)
                best[sign] = (chi.flat[k], a, b + (b >= a), c, d)
    if not best:
        raise ValueError("grid has no complete angle combination without missing data")

    def result(sign: str) -> ChiResult:
        value, a, b, c, d = best[sign]
        # the squared stderrs of the four cells, summed in index order
        cells = np.ix_(sorted((a, b)), sorted((c, d)))
        se = 0.0 if grid.stderr is None else np.sqrt(np.sum(np.square(grid.stderr[cells])))
        return ChiResult(value, (ph[a], ph[b], th[c], th[d]), stderr=se, sign=sign)

    return result("max"), result("min")
