"""Dense complex linear algebra on the four-waveguide path-qubit space.

The Hilbert space is C^2 (x) C^2.  The first tensor factor is the
absolute-position qubit {|U>, |D>} (which pair of waveguides the photon
occupies), the second is the relative-position qubit {|F>, |N>} (which
waveguide within the pair).  The basis order is fixed everywhere as

    index 0: |UF>    index 1: |UN>    index 2: |DF>    index 3: |DN>

so index = 2*(absolute) + (relative).  Every matrix in this package is a
dense 2x2 or 4x4 complex ndarray in this basis; dimensions never grow,
so there is no sparse or symbolic representation.

A detector channel is its basis index everywhere in memory: distributions
are float arrays of shape (..., 4) in basis order, outcomes are ``uint8``
codes 0..3, and raw bits are ``uint8`` arrays of 0 and 1.  The channel
labels below and 0/1 text appear only in ``pathqrng.cli``, where files
are read and written.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: output channel labels, in basis order; only file formats use them
CHANNELS = ("UF", "UN", "DF", "DN")

# Central tolerance table.  Property tests tune these knobs in one place.
STATE_TOL = 1e-12         # norm / trace / hermiticity defect of a state
EIGEN_TOL = 1e-10         # density-operator eigenvalue floor

ID4 = np.eye(4, dtype=complex)


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(np.asarray(m)).T


def as_density(state: np.ndarray) -> np.ndarray:
    """Promote a pure state vector to a density operator; validate either form.

    Accepts a length-4 complex vector (unit norm within ``STATE_TOL``) or a
    4x4 density operator (Hermitian and unit trace within ``STATE_TOL``,
    eigenvalues above ``-EIGEN_TOL``).
    """
    state = np.asarray(state, dtype=complex)
    if state.shape == (4,):
        nrm = np.linalg.norm(state)
        if abs(nrm - 1.0) > STATE_TOL:
            raise ValueError(f"pure state norm {nrm!r} is not 1 within {STATE_TOL}")
        return np.outer(state, np.conj(state))
    if state.shape == (4, 4):
        if np.max(np.abs(state - dagger(state))) > STATE_TOL:
            raise ValueError("density operator is not Hermitian")
        if abs(np.trace(state).real - 1.0) > STATE_TOL or abs(np.trace(state).imag) > STATE_TOL:
            raise ValueError(f"density operator trace {np.trace(state)!r} is not 1")
        if np.min(np.linalg.eigvalsh(state)) < -EIGEN_TOL:
            raise ValueError("density operator has a negative eigenvalue")
        return state
    raise ValueError(f"state must be a 4-vector or 4x4 operator, got shape {state.shape}")


def distribution_vector(p: Sequence[float] | np.ndarray) -> np.ndarray:
    """A 4-outcome distribution in basis order as a float array, validating shape only."""
    arr = np.asarray(p, dtype=float)
    if arr.shape != (4,):
        raise ValueError(f"distribution must have 4 entries, got shape {arr.shape}")
    return arr
