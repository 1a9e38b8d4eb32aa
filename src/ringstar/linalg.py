"""Linear algebra: Hermitian eigendecomposition, spectral time evolution and
the package's one Krylov loop (`lanczos`).  Real input stays real, so a real
symmetric matrix takes the real eigensolver and gets real eigenvectors;
anything complex is complex128.

Tolerances are hybrids scaled by the max-entry norm of the matrix so the same
checks serve microscopic Hamiltonians (entries ~ exchange strength) and
effective star models (entries ~ coupling strength) without per-call tuning.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

HERMITICITY_RTOL = 1e-12

# `lanczos` tests Ritz residuals at most this many steps apart
RITZ_EVERY = 16


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


def lanczos(matmul, start, tol, count: int = 0, locked=None) -> list:
    """Fully reorthogonalised Lanczos, one recurrence per row of the (rows, n)
    `start` block, each step one `matmul(active, v)` on the current vectors
    of the rows numbered `active`.  Per row: alpha by np.vdot, two classical
    Gram-Schmidt passes against its `locked` vectors ((rows, j, n),
    orthonormal, if any) and its basis, beta by np.linalg.norm.  Row r stops
    when beta <= tol[r], when its basis spans the space or (count > 0) when
    its `count` lowest Ritz pairs have residual beta |y_last| <= tol[r],
    tested by an eigh of its tridiagonal T RITZ_EVERY steps in, then where
    the residual's fall since its last test extrapolates to tol (at most
    RITZ_EVERY on).  Returns per row its basis (k, n) and T's diagonal and
    off-diagonal; with count > 0, its `count` lowest Ritz values and vectors
    (count, n)."""
    start = np.asarray(start)
    (size, n), j = start.shape, 0 if locked is None else locked.shape[1]
    tol, rows, k = np.broadcast_to(tol, size), np.arange(size), 1
    vs = np.empty((size, j + min(n - j, 4 * RITZ_EVERY), n), start.dtype)  # locked, then basis
    vs[:, j] = start / np.array([[float(np.linalg.norm(v))] for v in start])
    if j:
        vs[:, :j] = locked
    out, alphas, betas = [None] * size, [[] for _ in rows], [[] for _ in rows]
    due, seen = np.full(size, RITZ_EVERY), np.full((size, 2), np.nan)
    while True:
        v, basis = vs[:, j + k - 1], vs[:, : j + k]
        w = matmul(rows, v)
        for row, x, hx in zip(rows, v, w):
            alphas[row].append(np.vdot(x, hx).real)
        for _ in range(2):  # classical Gram-Schmidt, repeated for orthogonality
            w -= ((basis.conj() @ w[:, :, None]).swapaxes(1, 2) @ basis)[:, 0]
        beta = np.array([float(np.linalg.norm(x)) for x in w])
        stop = (beta <= tol[rows]) | (j + k == n)
        test = (stop | (due[rows] == k)).nonzero()[0] if count else ()
        if len(test):
            r, t = rows[test], np.zeros((len(test), k, k))
            t[:, range(k), range(k)] = [alphas[i] for i in r]
            t[:, range(1, k), range(k - 1)] = t[:, range(k - 1), range(1, k)] = [betas[i] for i in r]
            theta, y = np.linalg.eigh(t)
            # log(residual / tol) falls about linearly in k
            fall = np.log(np.maximum(beta[test] * abs(y[:, -1, :count]).max(1), 1e-300) / tol[r])
            ahead = fall / np.fmax((seen[r, 1] - fall) / (k - seen[r, 0]), fall / RITZ_EVERY)
            due[r], seen[r, 0], seen[r, 1] = k + np.clip(np.ceil(ahead), 1, RITZ_EVERY), k, fall
            stop[test] |= fall <= 0
            for i in stop[test].nonzero()[0]:
                out[r[i]] = (theta[i, :count], y[i, :, :count].T @ vs[test[i], j : j + k])
        for i in stop.nonzero()[0] if not count else ():
            out[rows[i]] = (vs[i, j : j + k], np.array(alphas[rows[i]]), np.array(betas[rows[i]]))
        if stop.any():
            vs, rows, w, beta = vs[~stop], rows[~stop], w[~stop], beta[~stop]
            if not rows.size:
                return out
        for row, b in zip(rows, beta):
            betas[row].append(b)
        if j + k == vs.shape[1]:  # room to grow: every row stops at j + k = n
            vs = np.concatenate([vs, np.empty_like(vs[:, : min(k, n - j - k)])], axis=1)
        vs[:, j + k] = w / beta[:, None]
        k += 1


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

