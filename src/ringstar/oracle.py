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

from .errors import DimensionCapError, ValidationError
from .linalg import HERMITICITY_RTOL, hermitian_eigendecompose, lanczos, max_entry_norm
from .star import StarNetwork, as_subspace_state, propagate

# 14 qubits raise a validate's max RSS about 18 MB above the imports (tracemalloc:
# 28 MB, 16.8 MB of it Lanczos's 64 allocated basis columns, at most 14 of them used).
QUBIT_CAP = 14
LEAKAGE_THRESHOLD = 1e-12
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


@dataclass(frozen=True)
class FullSpaceHamiltonian:
    """Matrix-free H v = diagonal * v + sum_i hops[i] * v[partners[i]]: each
    row k couples to one partner per term i, partners and hops (terms, dim)."""

    diagonal: np.ndarray
    partners: np.ndarray
    hops: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (self.diagonal.size, self.diagonal.size)

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return self.diagonal * v + (self.hops * v[self.partners]).sum(0)

    def norm_inf(self) -> float:  # largest absolute row sum
        return float((np.abs(self.diagonal) + np.abs(self.hops).sum(0)).max())

    def toarray(self) -> np.ndarray:
        dense = np.diag(self.diagonal).astype(np.complex128)
        rows = np.broadcast_to(np.arange(self.diagonal.size), self.partners.shape)
        np.add.at(dense, (rows, self.partners), self.hops)
        return dense


def full_space_hamiltonian(
    network: StarNetwork, z_convention: str = "halfspin"
) -> FullSpaceHamiltonian:
    """The 2^(N+1)-dimensional star Hamiltonian (qubits 1..N then center): bit
    N - i + 1 of a basis index is qubit i and bit 0 the center, and site i
    couples the two states in which exactly one of i and the center is up."""
    n = network.n_sites
    zz = _check_request(n, z_convention)
    k = np.arange(2 ** (n + 1))
    shifts = np.arange(n, 0, -1)[:, None]  # row i - 1 holds site i's bit, N - i + 1
    flip = ((k >> shifts) & 1) != (k & 1)
    partners = k ^ ((1 << shifts) | 1)
    half = network.gammas[:, None] / 2.0
    hops = np.where(flip, half, 0.0)
    diagonal = np.zeros(k.size)
    for term in half * (1.0 + network.deltas[:, None]) * zz * np.where(flip, -1.0, 1.0):
        diagonal += term  # site by site, in site order
    scale = max(max_entry_norm(diagonal), max_entry_norm(hops))
    if max_entry_norm(np.take_along_axis(hops, partners, 1) - hops) > HERMITICITY_RTOL * scale:
        raise ValidationError("full-space Hamiltonian is not Hermitian")
    return FullSpaceHamiltonian(diagonal, partners, hops)


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


def krylov_project(
    h_full: FullSpaceHamiltonian, full_state, times, n_sites: int
) -> tuple[np.ndarray, np.ndarray]:
    """`project_to_subspace` of exp(-i H t) |state> at every time of a 1-d grid.

    `linalg.lanczos` runs until the next residual is at most
    KRYLOV_RTOL * ||H||_inf or the basis V spans the space, so V is invariant:
    with T = U L U^T, the state at t is |state| * c(t) V, c(t) = U e^(-iLt) U^T e_1.
    Population that H moves out of the sector shows in the leakage."""
    v = np.asarray(full_state, dtype=np.complex128)
    norm = float(np.linalg.norm(v))
    tol = KRYLOV_RTOL * h_full.norm_inf()
    ((vs, alphas, betas),) = lanczos(lambda _, w: (h_full @ w[0])[None], v[None], tol)
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
) -> tuple[CheckResult, ...]:
    """Three-way comparison of the propagation routes, one check each.

    closed_form_vs_spectral: `propagate`'s closed form, which every command
    uses, against its numerical route (when the constraint holds; at 1e-9).
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
        analytic = propagate(network, amps, t_grid, method="analytic")
        dev = float(np.abs(analytic - numeric).max())
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
    return tuple(checks)
