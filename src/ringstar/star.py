"""Single-excitation dynamics of a star network of ring qubits.

N ring qubits couple to one central ring qubit; within the single-excitation
sector the state is spanned by |psi_1> .. |psi_N> (excitation on one of the
outer qubits) and |psi_{N+1}> (excitation on the center).  In that basis the
effective Hamiltonian is

    H[i,i]     = gamma_i (1 + Delta_i) (N - 2) / 4          i <= N
    H[N+1,N+1] = - sum_i gamma_i (1 + Delta_i) / 4
    H[i,N+1]   = gamma_i / 2

When every product gamma_i (1 + Delta_i) equals a common value C, the
spectrum is known in closed form: an (N-1)-fold level at C(N-2)/4 spanned by
"dark" combinations of the outer sites, plus the pair

    lambda = ( -C +- sqrt(4 Omega^2 + C^2 (N-1)^2) ) / 4,   Omega^2 = sum gamma_i^2.

`propagate` evaluates it from the pair alone: a state less its projections on
the two pair vectors keeps the degenerate phase, and each projection takes its
own.  The paper's form of the same propagator, through A = B - sqrt(1+B^2),
B = C(N-1)/(2 Omega) and theta_1 = Omega A t / 2, theta_2 = Omega t / (2A)
(`phase_angles`), loses digits where B is large; the tests keep it as a reference.

Outer sites with gamma_m = 0 decouple exactly (unit-vector eigenstates); a
nonzero common C is then unreachable for them, so the constraint can only
hold on such networks when C = 0, which is also the only regime where the
closed forms are used with decoupled sites present.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConstraintError, ValidationError
from .linalg import EigenSystem, hermitian_eigendecompose

CONSTRAINT_RTOL = 1e-10
STATE_NORM_TOL = 1e-10
ZERO_COUPLING_RTOL = 1e-15


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class StarNetwork:
    """Immutable description of the star: per-site gamma_i and Delta_i.

    Site indices in the public interface are 1-based; index N+1 denotes the
    center.  `constraint_value` is the median of the products
    gamma_i (1 + Delta_i), and `constraint_holds` says whether all products
    agree with it to within 1e-10 relative to max(|C|, max |gamma_i|); all
    three are computed once per network.
    """

    gammas: np.ndarray
    deltas: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gammas, dtype=np.float64).copy()
        d = np.asarray(self.deltas, dtype=np.float64).copy()
        if g.ndim != 1 or d.shape != g.shape or g.size == 0:
            raise ValidationError(
                "gammas and deltas must be equal-length 1-d arrays with >= 1 site"
            )
        if not (np.isfinite(g).all() and np.isfinite(d).all()):
            raise ValidationError("couplings must be finite")
        # 4 Omega^2 + (N sum |gamma_i (1 + Delta_i)|)^2 bounds the pair levels'
        # 4 Omega^2 + C^2 (N-1)^2 and the square of every Hamiltonian entry
        with np.errstate(over="ignore"):  # an overflow is refused just below
            square = 4.0 * (g**2).sum() + (np.abs(g * (1.0 + d)).sum() * g.size) ** 2
        if not np.isfinite(square):
            raise ValidationError(
                "couplings overflow: 4 Omega^2 + (N sum |gamma_i (1 + Delta_i)|)^2 "
                "is not a finite float"
            )
        object.__setattr__(self, "gammas", _readonly(g))
        object.__setattr__(self, "deltas", _readonly(d))

    @property
    def n_sites(self) -> int:
        return int(self.gammas.size)

    @property
    def dim(self) -> int:
        return self.n_sites + 1

    @cached_property
    def products(self) -> np.ndarray:
        return _readonly(self.gammas * (1.0 + self.deltas))

    @cached_property
    def constraint_value(self) -> float:
        return float(np.median(self.products))

    @property
    def omega(self) -> float:
        return float(np.sqrt((self.gammas**2).sum()))

    @cached_property
    def constraint_holds(self) -> bool:
        c = self.constraint_value
        tol = CONSTRAINT_RTOL * max(abs(c), float(np.abs(self.gammas).max()))
        return bool(np.abs(self.products - c).max() <= tol)


def uniform_star(n_sites: int, gamma: float, delta: float = -1.0) -> StarNetwork:
    if n_sites < 1:
        raise ValidationError("need at least one outer site")
    return StarNetwork(
        gammas=np.full(n_sites, float(gamma)),
        deltas=np.full(n_sites, float(delta)),
    )


def build_effective_hamiltonian(network: StarNetwork) -> np.ndarray:
    """The (N+1)-dimensional single-excitation Hamiltonian (real symmetric)."""
    n = network.n_sites
    p = network.products
    h = np.zeros((n + 1, n + 1), dtype=np.float64)
    h[np.arange(n), np.arange(n)] = p * (n - 2) / 4.0
    h[n, n] = -p.sum() / 4.0
    h[:n, n] = network.gammas / 2.0
    h[n, :n] = network.gammas / 2.0
    return h


def _require_constraint(network: StarNetwork, what: str) -> float:
    c = network.constraint_value
    if not network.constraint_holds:
        dev = float(np.abs(network.products - c).max())
        raise ConstraintError(
            f"{what} requires a common gamma*(1+Delta); "
            f"largest deviation from {c:.6g} is {dev:.3e}"
        )
    return c


def _pair_eigensystem(network: StarNetwork, c: float) -> tuple[np.ndarray, np.ndarray]:
    """The two non-degenerate levels (ascending) and their unit eigenvectors
    (columns) (gamma_1..gamma_N, y), y = 2 lambda - C(N-2)/2; needs Omega > 0."""
    n = network.n_sites
    g = network.gammas
    omega2 = float((g**2).sum())
    disc = math.sqrt(4.0 * omega2 + c**2 * (n - 1) ** 2)
    values = np.array([(-c - disc) / 4.0, (-c + disc) / 4.0])
    y = 2.0 * values - c * (n - 2) / 2.0
    vectors = np.vstack([np.tile(g[:, None], 2), y]) / np.sqrt(omega2 + y**2)
    return values, vectors


def analytic_eigensystem(network: StarNetwork) -> EigenSystem:
    """Closed-form spectrum and eigenbasis under the coupling constraint.

    Columns 0..N-2 span the degenerate level C(N-2)/4: unit vectors for
    outer sites with gamma = 0, and the usual telescoped dark combinations
    over the remaining sites.  The last two columns are the pair, ascending:
    (gamma_1..gamma_N, y) with y = 2 lambda - C(N-2)/2.
    """
    c = _require_constraint(network, "the analytic eigensystem")
    n = network.n_sites
    g = network.gammas
    dim = n + 1
    lam_deg = c * (n - 2) / 4.0
    active = np.abs(g) > ZERO_COUPLING_RTOL * float(np.abs(g).max())
    if not active.any():
        # fully decoupled network: H is diagonal (and C = 0 by the constraint)
        return EigenSystem(np.append(np.full(n, lam_deg), -n * c / 4.0), np.eye(dim))
    ga = g[active]
    k = ga.size
    partial = np.cumsum(ga**2)[:-1]  # sum of gamma^2 over the earlier active sites
    telescoped = np.triu(np.outer(ga, ga[1:]))
    telescoped[np.arange(1, k), np.arange(k - 1)] = -partial
    telescoped /= np.sqrt(partial * (partial + ga[1:] ** 2))
    lam_pair, pair = _pair_eigensystem(network, c)
    vectors = np.zeros((dim, dim))
    vectors[np.flatnonzero(active), : k - 1] = telescoped
    vectors[np.flatnonzero(~active), k - 1 : n - 1] = np.eye(n - k)
    vectors[:, n - 1 :] = pair
    return EigenSystem(np.append(np.full(n - 1, lam_deg), lam_pair), vectors)


def as_subspace_state(state, dim: int) -> np.ndarray:
    """Validate and return a unit-norm single-excitation amplitude vector."""
    v = np.asarray(state, dtype=np.complex128)
    if v.ndim != 1 or v.size != dim:
        raise ValidationError(f"state must have {dim} amplitudes, got shape {v.shape}")
    norm = float(np.linalg.norm(v))
    if not abs(norm - 1.0) <= STATE_NORM_TOL:  # NaN fails too
        raise ValidationError(f"state norm {norm} is not 1 within {STATE_NORM_TOL}")
    return v


def basis_state(network: StarNetwork, site: int) -> np.ndarray:
    """|psi_site> with 1-based site index; N+1 is the center."""
    if not 1 <= site <= network.dim:
        raise ValidationError(
            f"site must be in 1..{network.dim}, got {site}"
        )
    v = np.zeros(network.dim, dtype=np.complex128)
    v[site - 1] = 1.0
    return v


def propagate(
    network: StarNetwork, state, times, method: str = "auto"
) -> np.ndarray:
    """States over a time grid: row k of the (T, N+1) result is the state at
    times[k].

    method="auto" uses the closed form when the constraint holds and
    diagonalizes H (once per call) otherwise; "analytic" raises when the
    constraint fails; "numerical" always diagonalizes.  The closed form needs
    only the pair vectors W: amps - W (W^T amps) takes one phase.
    """
    amps = as_subspace_state(state, network.dim)
    if method not in ("auto", "analytic", "numerical"):
        raise ValidationError(f"unknown method {method!r}")
    t = np.asarray(times, dtype=np.float64)
    if t.ndim != 1:
        raise ValidationError(f"times must be a 1-d grid, got shape {t.shape}")
    if method == "auto":
        method = "analytic" if network.constraint_holds else "numerical"
    if method == "numerical":
        eig = hermitian_eigendecompose(build_effective_hamiltonian(network))
        coeffs = eig.vectors.conj().T @ amps
        return (np.exp(-1j * np.outer(t, eig.values)) * coeffs) @ eig.vectors.T
    c = _require_constraint(network, "the analytic propagator")
    dark_phase = np.exp(-1j * (c * (network.n_sites - 2) / 4.0) * t)
    if network.omega == 0.0:
        # H vanishes (the constraint forces C = 0): every state is stationary
        return np.outer(dark_phase, amps)
    values, w = _pair_eigensystem(network, c)
    bright = w * (w.T @ amps)  # column j: w_j (w_j . amps)
    dark = amps - bright.sum(axis=1)
    return np.outer(dark_phase, dark) + np.exp(-1j * np.outer(t, values)) @ bright.T


# perfbench's WRAPPED names it and counts its calls from protocols (ROADMAP item 5)
def evolve_subspace(
    network: StarNetwork, state, time: float, method: str = "auto"
) -> np.ndarray:
    """Propagate a single-excitation state for one time (see `propagate`)."""
    return propagate(network, state, [time], method)[0]


def phase_angles(network: StarNetwork, time: float) -> tuple[float, float]:
    """(theta_1, theta_2) of a constraint-satisfying network at a given time."""
    c = _require_constraint(network, "phase angles")
    omega = network.omega
    if omega == 0.0:
        raise ValidationError("zero-coupling network has no oscillation phases")
    b = c * (network.n_sites - 1) / (2.0 * omega)
    a = b - math.hypot(1.0, b)  # the mixing parameter A
    return omega * a * time / 2.0, omega * time / (2.0 * a)


# kept only because perfbench's WRAPPED names it (ROADMAP item 5)
def closed_form_from_site(network: StarNetwork, site: int, times) -> np.ndarray:
    """States over a 1-d time grid after starting in |psi_site> (outer site,
    1-based): row k of the (T, N+1) result is the state at times[k]."""
    n = network.n_sites
    if not 1 <= site <= n:
        raise ValidationError(f"source site must be in 1..{n}, got {site}")
    return propagate(network, basis_state(network, site), times, "analytic")


# kept only because perfbench's WRAPPED names it (ROADMAP item 5)
def closed_form_from_center(network: StarNetwork, times) -> np.ndarray:
    """States over a 1-d time grid after starting with the excitation on the
    center: row k of the (T, N+1) result is the state at times[k]."""
    return propagate(network, basis_state(network, network.dim), times, "analytic")
