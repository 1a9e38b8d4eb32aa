"""Dense linear algebra: Hermitian eigendecomposition and spectral time
evolution.  Real input stays real, so a real symmetric matrix takes the real
eigensolver and gets real eigenvectors; anything complex is complex128.

Tolerances are hybrids scaled by the max-entry norm of the matrix so the same
checks serve microscopic Hamiltonians (entries ~ exchange strength) and
effective star models (entries ~ coupling strength) without per-call tuning.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

HERMITICITY_RTOL = 1e-12


def max_entry_norm(matrix: np.ndarray) -> float:
    """Largest absolute entry; the scale used by relative tolerances."""
    if matrix.size == 0:
        return 0.0
    return float(np.abs(matrix).max())


@dataclass(frozen=True)
class EigenSystem:
    """Spectral decomposition of a Hermitian matrix.

    values are real; vectors[:, k] is the unit eigenvector for values[k], and
    the columns are mutually orthonormal.  `hermitian_eigendecompose` returns
    ascending values; `star.analytic_eigensystem` returns the degenerate level
    first and the pair last.
    """

    values: np.ndarray
    vectors: np.ndarray


def _as_square(matrix, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """The matrix as float64 (complex128 if complex), refused unless square
    and finite; with `stack`, a (..., n, n) stack of such matrices too."""
    a = np.asarray(matrix)
    a = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64, copy=False)
    if not (a.ndim == 2 or stack and a.ndim > 2) or a.shape[-2] != a.shape[-1]:
        raise ValidationError(f"{name} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return a


def hermitian_eigendecompose(matrix) -> EigenSystem:
    """Eigendecompose a Hermitian matrix, or each matrix of a (..., n, n)
    stack (values (..., n), vectors (..., n, n), each matrix's bits the same
    as alone).

    Each matrix must be Hermitian within a relative tolerance of 1e-12 on its
    own max-entry norm; asymmetry beyond that is an input error, not something
    to silently symmetrize away, and a stack reports its first such matrix.
    """
    a = _as_square(matrix, stack=True)
    if a.ndim == 2:
        scale = max(max_entry_norm(a), 1e-300)
        asym = max_entry_norm(a - a.conj().T)
    else:
        diff = a - np.swapaxes(a, -2, -1).conj()
        scale, asym = 1.0, 0.0  # exactly Hermitian unless diff has an entry
        if diff.any():
            asyms = np.abs(diff).max(axis=(-2, -1)).ravel()
            scales = np.maximum(np.abs(a).max(axis=(-2, -1)), 1e-300).ravel()
            first = np.argmax(asyms > HERMITICITY_RTOL * scales)
            scale, asym = scales[first], asyms[first]
    if asym > HERMITICITY_RTOL * scale:
        raise ValidationError(
            f"matrix is not Hermitian: asymmetry {asym:.3e} exceeds "
            f"{HERMITICITY_RTOL:.0e} * {scale:.3e}"
        )
    values, vectors = np.linalg.eigh(a)
    return EigenSystem(values=values, vectors=vectors)


def unitary_evolve(hamiltonian, time: float, state) -> np.ndarray:
    """Apply exp(-i H t) to a state via the spectral decomposition of H."""
    h = _as_square(hamiltonian, "hamiltonian")
    v = np.asarray(state, dtype=np.complex128)
    if v.ndim != 1 or v.shape[0] != h.shape[0]:
        raise ValidationError(
            f"state shape {v.shape} does not match hamiltonian dim {h.shape[0]}"
        )
    eig = hermitian_eigendecompose(h)
    phases = np.exp(-1j * eig.values * float(time))
    return eig.vectors @ (phases * (eig.vectors.conj().T @ v))

