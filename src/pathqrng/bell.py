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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: grid-independent quantum maximum of |chi|
CHI_QUANTUM_MAX = 2.0 * math.sqrt(2.0)


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
    skips.  ``stderr`` optionally carries per-cell standard errors.
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
        check_chi(self.chi, self.stderr)


def best_combination_search(grid: CorrelationGrid) -> tuple[ChiResult, ChiResult]:
    """Exhaustive CHSH search over every angle combination of a grid.

    Evaluates chi for all ordered pairs (phi, phi') and (theta, theta')
    with distinct entries, which covers all four placements of the minus
    sign via relabeling.  Cells with NaN are excluded.  Returns the global
    maximum and minimum; exact ties are broken toward the lexicographically
    smallest (phi, phi', theta, theta') tuple, then (for repeated angle
    values) toward the quad met first in index order.

    The evaluation is blocked by the first phi index: one block holds every
    later phi against every theta pair, so each block's arrays take
    O(n_phi * n_theta^2) memory, never the whole O(n_phi^2 * n_theta^2)
    search.  Within a quad chi is ``total - 2 e_minus`` with
    ``total = eac + ead + ebc + ebd`` summed in that order.  The stderr,
    sqrt of the summed squared cell stderrs, is computed for the two
    winning quads only.
    """
    ph = np.asarray(grid.phi_values, dtype=float)
    th = np.asarray(grid.theta_values, dtype=float)
    if ph.size < 2 or th.size < 2:
        raise ValueError("the search needs at least 2 phi values and 2 theta values")
    e = grid.e
    jc, jd = np.triu_indices(th.size, 1)

    # per sign: (chi, angles, cell indices (ia, ib, jc, jd)) of the best quad so far
    best: dict[str, tuple[float, tuple[float, ...], tuple[int, int, int, int]] | None] = {
        "max": None, "min": None}
    for ia in range(ph.size - 1):
        ib = np.arange(ia + 1, ph.size)[:, None]
        # cells (eac, ead, ebc, ebd) of quad (ib, theta pair) in the last axis
        cells = np.empty((ib.size, jc.size, 4))
        cells[..., 0] = e[ia, jc]
        cells[..., 1] = e[ia, jd]
        cells[..., 2] = e[ib, jc]
        cells[..., 3] = e[ib, jd]
        total = cells[..., 0] + cells[..., 1] + cells[..., 2] + cells[..., 3]
        # four cells in [-1, 1] sum to a finite total iff none is missing
        quads = np.flatnonzero(np.isfinite(total))
        if quads.size == 0:
            continue
        # chi = total - 2 e_minus with the minus on (a, c) | (a, d) | (b, c) | (b, d)
        cells *= 2.0
        chi = np.subtract(total[..., None], cells, out=cells).reshape(-1, 4)[quads]
        for sign, value, better in (("max", chi.max(), np.greater),
                                    ("min", chi.min(), np.less)):
            cur = best[sign]
            if cur is not None and better(cur[0], value):
                continue
            # the block's tied candidates, in (quad, placement) order
            ties, placement = np.divmod(np.flatnonzero(chi == value), 4)
            b, pair = np.divmod(quads[ties], jc.size)
            b += ia + 1
            c, d = jc[pair], jd[pair]
            # relabel so the minus lands on (phi, theta'): placements 2 and 3
            # swap phi with phi', placements 0 and 2 swap theta with theta'
            swap_phi = placement >= 2
            swap_theta = placement % 2 == 0
            angles = np.stack((ph[np.where(swap_phi, b, ia)], ph[np.where(swap_phi, ia, b)],
                               th[np.where(swap_theta, d, c)], th[np.where(swap_theta, c, d)]),
                              axis=1)
            # the lexicographically smallest tuple; lexsort is stable, so among
            # equal ones the first
            k = np.lexsort(angles.T[::-1])[0]
            candidate = tuple(angles[k])
            if cur is None or value != cur[0] or candidate < cur[1]:
                best[sign] = (value, candidate, (ia, int(b[k]), int(c[k]), int(d[k])))

    if best["max"] is None or best["min"] is None:
        raise ValueError("grid has no complete angle combination without missing data")

    def result(sign: str) -> ChiResult:
        chi, angles, (ia, ib, c, d) = best[sign]
        se = 0.0
        if grid.stderr is not None:
            s = grid.stderr
            # the same 4 independent cells enter every minus placement
            se = float(np.sqrt(np.sum(np.square((s[ia, c], s[ia, d], s[ib, c], s[ib, d])))))
        return ChiResult(chi, angles, stderr=se, sign=sign)

    return result("max"), result("min")
