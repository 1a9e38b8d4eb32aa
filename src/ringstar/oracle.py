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
from functools import reduce

import numpy as np

from .errors import DimensionCapError, ValidationError
from .linalg import hermitian_eigendecompose, max_entry_norm
from .star import (
    StarNetwork,
    as_subspace_state,
    closed_form_from_center,
    closed_form_from_site,
    propagate,
)

QUBIT_CAP = 14
LEAKAGE_THRESHOLD = 1e-12
SUBSPACE_BLOCK_TOL = 1e-10

_FLIP_UP = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.complex128)  # |1><0|
_FLIP_DOWN = _FLIP_UP.conj().T

_Z_BY_CONVENTION = {
    "halfspin": np.diag([-0.5, 0.5]).astype(np.complex128),
    "pauli": np.diag([-1.0, 1.0]).astype(np.complex128),
}


def _check_convention(z_convention: str) -> np.ndarray:
    if z_convention not in _Z_BY_CONVENTION:
        raise ValidationError(
            f"z_convention must be 'halfspin' or 'pauli', got {z_convention!r}"
        )
    return _Z_BY_CONVENTION[z_convention]


def _pair_operator(
    op_site: np.ndarray, site: int, op_center: np.ndarray, n_sites: int
) -> np.ndarray:
    factors = [np.eye(2, dtype=np.complex128)] * (n_sites + 1)
    factors[site] = op_site
    factors[n_sites] = op_center
    return reduce(np.kron, factors)


def full_space_hamiltonian(
    network: StarNetwork, z_convention: str = "halfspin"
) -> np.ndarray:
    """Dense 2^(N+1)-dimensional star Hamiltonian (qubits 1..N then center)."""
    sz = _check_convention(z_convention)
    n = network.n_sites
    if n + 1 > QUBIT_CAP:
        raise DimensionCapError(
            f"{n + 1} qubits exceed the full-space cap of {QUBIT_CAP}"
        )
    dim = 2 ** (n + 1)
    h = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(n):
        gamma = network.gammas[i]
        if gamma == 0.0 and network.deltas[i] == -1.0:
            continue
        flip = _pair_operator(_FLIP_UP, i, _FLIP_DOWN, n)
        flip += _pair_operator(_FLIP_DOWN, i, _FLIP_UP, n)
        zz = _pair_operator(sz, i, sz, n)
        h += (gamma / 2.0) * (flip + (1.0 + network.deltas[i]) * zz)
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


def subspace_block(h_full: np.ndarray, n_sites: int) -> np.ndarray:
    """Restrict a full-space Hamiltonian to the single-excitation basis.

    Any coupling from that basis to the rest of the space above the tolerance
    means the restriction would not be autonomous, which is an error.
    """
    h = np.asarray(h_full, dtype=np.complex128)
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
    return h[np.ix_(idx, idx)]


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


def _closed_form_columns(network: StarNetwork, time: float) -> np.ndarray:
    cols = [
        closed_form_from_site(network, i, time)
        for i in range(1, network.n_sites + 1)
    ]
    cols.append(closed_form_from_center(network, time))
    return np.stack(cols, axis=1)


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
    numeric = propagate(network, amps, t_grid, method="numerical")
    checks: list[CheckResult] = []

    if network.constraint_holds:
        dev = 0.0
        for t, state in zip(t_grid, numeric):
            analytic = _closed_form_columns(network, float(t)) @ amps
            dev = max(dev, float(np.abs(analytic - state).max()))
        checks.append(CheckResult("closed_form_vs_spectral", dev, 1e-9))

    h_full = full_space_hamiltonian(network, z_convention)
    eig_full = hermitian_eigendecompose(h_full)
    coeffs = eig_full.vectors.conj().T @ embed_in_full_space(amps, n)
    dev_full = 0.0
    worst_leak = 0.0
    # chunks of at most dim rows keep each (rows, dim) block no larger than
    # the eigenvector matrix, so the eigendecomposition sets the peak memory
    chunk = eig_full.values.size
    for start in range(0, t_grid.size, chunk):
        rows = slice(start, start + chunk)
        phases = np.exp(-1j * np.outer(t_grid[rows], eig_full.values))
        phases *= coeffs
        projected, leakage = project_to_subspace(phases @ eig_full.vectors.T, n)
        dev_full = max(dev_full, float(np.abs(projected - numeric[rows]).max()))
        worst_leak = max(worst_leak, float(leakage.max()))
    diagonal_free = (
        float(np.abs(network.products).max())
        <= 1e-12 * max(1.0, float(np.abs(network.gammas).max()))
    )
    checks.append(
        CheckResult(
            "subspace_vs_fullspace", dev_full, 1e-9 if diagonal_free else None
        )
    )
    checks.append(CheckResult("excitation_leakage", worst_leak, LEAKAGE_THRESHOLD))
    return ValidationReport(checks=tuple(checks))
