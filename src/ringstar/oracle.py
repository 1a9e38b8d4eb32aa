"""Independent full-space check of the effective star model.

The N+1 ring qubits are promoted to genuine two-level systems and coupled by
the pairwise XXZ interaction

    H = sum_i (gamma_i / 2) [ S_i^+ S_c^- + S_i^- S_c^+
                              + (1 + Delta_i) S_i^z S_c^z ],

with S^+- flipping |0> <-> |1> at matrix element one and S^z diagonal in
either the half-spin convention (+-1/2) or the Pauli convention (+-1).  The
total excitation number is conserved, so the single-excitation block evolves
autonomously; comparing that block's dynamics against the effective model is
the cross-check.

The two conventions scale the diagonal (zz) part differently, and neither
reproduces the effective model's diagonal when the common product C is
nonzero: the half-spin block carries half the effective diagonal and the
Pauli block twice it.  At C = 0 every diagonal vanishes and all three agree
exactly, which is the regime the protocols use; away from it the deviation
is reported without asserting a bound.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import DimensionCapError, ValidationError
from .linalg import HERMITICITY_RTOL, hermitian_eigendecompose, max_entry_norm
from .star import (
    StarNetwork,
    as_subspace_state,
    closed_form_from_center,
    closed_form_from_site,
    propagate,
)

# 14 qubits take about 10 MB: the CSR Hamiltonian (1.2e5 entries, 2.5 MB), its
# transpose, and at most 14 Krylov columns of 2^14 amplitudes (3.7 MB).
QUBIT_CAP = 14
LEAKAGE_THRESHOLD = 1e-12
SUBSPACE_BLOCK_TOL = 1e-10
KRYLOV_RTOL = 1e-14
_ZZ_BY_CONVENTION = {"halfspin": 0.25, "pauli": 1.0}  # (S^z)^2: S^z = +-1/2 or +-1


def _check_request(n_sites: int, z_convention: str) -> float:
    if z_convention not in _ZZ_BY_CONVENTION:
        raise ValidationError(
            f"z_convention must be 'halfspin' or 'pauli', got {z_convention!r}"
        )
    if n_sites + 1 > QUBIT_CAP:
        raise DimensionCapError(
            f"{n_sites + 1} qubits exceed the full-space cap of {QUBIT_CAP}"
        )
    return _ZZ_BY_CONVENTION[z_convention]


def full_space_hamiltonian(
    network: StarNetwork, z_convention: str = "halfspin"
) -> sparse.csr_array:
    """Sparse 2^(N+1)-dimensional star Hamiltonian (qubits 1..N then center):
    bit N - i + 1 of a basis index is qubit i and bit 0 the center, and site i
    couples the two states in which exactly one of i and the center is up."""
    n = network.n_sites
    zz = _check_request(n, z_convention)
    k = np.arange(2 ** (n + 1))
    center = k & 1
    diag = np.zeros(k.size)
    rows, cols, vals = [k], [k], [diag]
    for i, (gamma, delta) in enumerate(zip(network.gammas, network.deltas)):
        bit = (k >> (n - i)) & 1
        diag += (gamma / 2.0) * (1.0 + delta) * zz * np.where(bit == center, 1.0, -1.0)
        flip = np.flatnonzero(bit != center)
        rows.append(flip)
        cols.append(flip ^ ((1 << (n - i)) | 1))
        vals.append(np.full(flip.size, gamma / 2.0))
    entries = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
    h = sparse.csr_array(entries, shape=(k.size, k.size), dtype=np.complex128)
    h.eliminate_zeros()
    if max_entry_norm(h - h.conj().T) > HERMITICITY_RTOL * max_entry_norm(h):
        raise ValidationError("full-space Hamiltonian is not Hermitian")
    return h


def single_excitation_indices(n_sites: int) -> list[int]:
    """Full-space basis indices of |psi_1> .. |psi_N>, |psi_center>.

    The tensor order is qubit 1 first and the center last, with |0> = (1, 0);
    the product state with qubit q excited therefore sits at index
    2^(N - q + 1), and the center excitation at index 1.
    """
    total = n_sites + 1
    return [1 << (total - 1 - j) for j in range(total)]


def embed_in_full_space(state, n_sites: int) -> np.ndarray:
    """Lift single-excitation amplitudes into the 2^(N+1) product space."""
    amps = as_subspace_state(state, n_sites + 1)
    full = np.zeros(2 ** (n_sites + 1), dtype=np.complex128)
    full[single_excitation_indices(n_sites)] = amps
    return full


def project_to_subspace(full_state, n_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """Single-excitation amplitudes plus the population left outside them,
    for one full state or for each row of a (T, 2^(N+1)) stack of states."""
    v = np.asarray(full_state, dtype=np.complex128)
    if v.ndim not in (1, 2) or v.shape[-1] != 2 ** (n_sites + 1):
        raise ValidationError(
            f"full state must have {2 ** (n_sites + 1)} amplitudes"
        )
    amps = v[..., single_excitation_indices(n_sites)]
    leakage = np.linalg.norm(v, axis=-1) ** 2 - np.linalg.norm(amps, axis=-1) ** 2
    return amps, np.maximum(leakage, 0.0)


def subspace_block(h_full, n_sites: int) -> np.ndarray:
    """Restrict a full-space Hamiltonian to the single-excitation basis.

    Any coupling from that basis to the rest of the space above the tolerance
    means the restriction would not be autonomous, which is an error.
    """
    h = sparse.csr_array(h_full, dtype=np.complex128)
    dim = 2 ** (n_sites + 1)
    if h.shape != (dim, dim):
        raise ValidationError(
            f"full Hamiltonian must be {dim} x {dim} for {n_sites} sites"
        )
    idx = single_excitation_indices(n_sites)
    scale = max(max_entry_norm(h), 1.0)
    mask = np.ones(dim, dtype=bool)
    mask[idx] = False
    off = abs(h[np.ix_(idx, np.nonzero(mask)[0])])
    worst = float(off.max()) if off.size else 0.0
    if worst > SUBSPACE_BLOCK_TOL * scale:
        raise ValidationError(
            f"single-excitation sector is not closed: coupling {worst:.3e} "
            "leaks to other sectors"
        )
    return h[np.ix_(idx, idx)].toarray()


@dataclass(frozen=True)
class CheckResult:
    """One cross-validation row; threshold None means reported, not asserted."""

    name: str
    max_deviation: float
    threshold: float | None

    @property
    def passed(self) -> bool | None:
        if self.threshold is None:
            return None
        return self.max_deviation <= self.threshold


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed is not False for c in self.checks)

    def rows(self) -> list[tuple[str, float, float | None, bool | None]]:
        return [(c.name, c.max_deviation, c.threshold, c.passed) for c in self.checks]


def krylov_project(
    h_full, full_state, times, n_sites: int
) -> tuple[np.ndarray, np.ndarray]:
    """`project_to_subspace` of exp(-i H t) |state> at every time of a 1-d grid.

    Lanczos (fully reorthogonalised) runs until the next residual is at most
    KRYLOV_RTOL * ||H||_inf or the basis V spans the space, so V is invariant:
    with T = U L U^T, the state at t is |state| * c(t) V, c(t) = U e^(-iLt) U^T e_1.
    Population that H moves out of the sector shows in the leakage."""
    v = np.asarray(full_state, dtype=np.complex128)
    norm = float(np.linalg.norm(v))
    basis, alphas, betas = [v / norm], [], []
    tol = KRYLOV_RTOL * float(abs(h_full).sum(axis=1).max())
    while True:
        vs = np.array(basis)
        w = h_full @ basis[-1]
        alphas.append(np.vdot(basis[-1], w).real)
        for _ in range(2):  # classical Gram-Schmidt, repeated for orthogonality
            w -= (vs.conj() @ w) @ vs
        beta = float(np.linalg.norm(w))
        if beta <= tol or len(basis) == v.size:
            break
        betas.append(beta)
        basis.append(w / beta)
    tridiagonal = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    eig = hermitian_eigendecompose(tridiagonal)
    phases = np.exp(-1j * np.outer(np.asarray(times, dtype=np.float64), eig.values))
    coeffs = (phases * (norm * eig.vectors[0].conj())) @ eig.vectors.T
    idx = single_excitation_indices(n_sites)
    outside = np.delete(vs, idx, axis=1)
    gram = outside.conj() @ outside.T
    leakage = np.einsum("tj,jk,tk->t", coeffs.conj(), gram, coeffs).real
    return coeffs @ vs[:, idx], np.maximum(leakage, 0.0)


def cross_validate(
    network: StarNetwork,
    initial,
    times,
    z_convention: str = "halfspin",
) -> ValidationReport:
    """Three-way comparison of the propagation routes.

    closed_form_vs_spectral: closed forms against numerical propagation of
    the effective model (only when the constraint holds; asserted at 1e-9).
    subspace_vs_fullspace: effective model against the projected full-space
    dynamics (asserted at 1e-9 only when every gamma(1+Delta) vanishes,
    where the z-conventions coincide; otherwise reported unasserted).
    excitation_leakage: population leaving the single-excitation sector
    (asserted at 1e-12).
    """
    n = network.n_sites
    amps = as_subspace_state(initial, network.dim)
    t_grid = np.atleast_1d(np.asarray(times, dtype=np.float64))
    _check_request(n, z_convention)
    numeric = propagate(network, amps, t_grid, method="numerical")
    checks: list[CheckResult] = []

    if network.constraint_holds:
        dev = 0.0
        sources = np.flatnonzero(amps)
        for t, state in zip(t_grid, numeric):
            analytic = sum(
                amps[j] * closed_form_from_site(network, j + 1, float(t)) if j < n
                else amps[j] * closed_form_from_center(network, float(t))
                for j in sources
            )
            dev = max(dev, float(np.abs(analytic - state).max()))
        checks.append(CheckResult("closed_form_vs_spectral", dev, 1e-9))

    h_full = full_space_hamiltonian(network, z_convention)
    projected, leakage = krylov_project(h_full, embed_in_full_space(amps, n), t_grid, n)
    dev_full = float(np.abs(projected - numeric).max())
    diagonal_free = (
        float(np.abs(network.products).max())
        <= 1e-12 * max(1.0, float(np.abs(network.gammas).max()))
    )
    threshold = 1e-9 if diagonal_free else None
    checks.append(CheckResult("subspace_vs_fullspace", dev_full, threshold))
    worst_leak = float(leakage.max())
    checks.append(CheckResult("excitation_leakage", worst_leak, LEAKAGE_THRESHOLD))
    return ValidationReport(checks=tuple(checks))
