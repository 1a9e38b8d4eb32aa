"""Entanglement protocols on the star network: W-state generation from the
center or from a single outer site, robustness under a coupling fluctuation,
and perfect state transfer between two blocks of outer sites.

Center-sourced W generation needs pure transverse coupling (Delta = -1 on
every site, so C = 0) and equal couplings; the excitation then spreads to
equal magnitudes on all N outer sites at t_W = (2k+1) pi / Omega.

Site-sourced generation keeps the center amplitude zero by picking times
where theta_1 + theta_2 = -2 k pi, i.e.

    t_k = 2 k pi / ( (1/2) sqrt(4 Omega^2 + C^2 (N-1)^2) ),

and equalizes the populations by tuning the coupling ratio
p = (gamma_m / gamma_i)^2 of the N-1 passive sites against the source site i:

    p = [ 1 - N cos(theta_1) +- sqrt(2N(1 - cos theta_1) - N^2 sin^2 theta_1) ]
        / (N-1)^2.

Omega depends on p, so the ratio is found self-consistently.  The generated
state matches the uniform-superposition target only after a residual phase
chi on the source site is removed.

Transfer programs mirror a coupling pattern between sites 1..L and L+1..2L
(remaining outer sites decoupled), so every coupled site has one diagonal d.
Only the bright mode of the blocks moves; with e the center's diagonal,
delta = (d - e)/2 and nu = hypot(delta, Omega/2), the return and target
fidelities are |z + 1|^2 / 4 and |z - 1|^2 / 4 for the two phasors

    z(t) = a e^{i(delta - nu)t} + b e^{i(delta + nu)t},  a, b = (1 +- delta/nu)/2.

At C = 0, z = cos(Omega t / 2): unit transfer at t = 2 pi / Omega.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InfeasibleError, ValidationError
from .star import StarNetwork, basis_state, evolve_subspace, propagate

# Baseline for the fluctuation study (chosen so the relative generation error
# at |fractional fluctuation| = 0.1 sits near 0.1; see the decision record).
FLUCTUATION_CONSTRAINT = 1.0
FLUCTUATION_WINDING = 2
FLUCTUATION_BRANCH = "minus"

MAX_WINDING_SEARCH = 64
# coarse time-grid points that bracket the first transfer peak before refinement
TRANSFER_SCAN_POINTS = 4097


def generation_error(state) -> float:
    """1 - |<W|state>|^2 with the target inferred from the state's length."""
    v = np.asarray(state, dtype=np.complex128)
    if v.ndim != 1 or v.size < 2:
        raise ValidationError("state must hold at least one site plus the center")
    n = v.size - 1
    overlap = v[:n].sum() / math.sqrt(n)
    return float(min(1.0, max(0.0, 1.0 - abs(overlap) ** 2)))


def apply_phase_correction(state, site: int, chi: float) -> np.ndarray:
    """Multiply the amplitude on one outer site (1-based) by exp(-i chi)."""
    v = np.asarray(state, dtype=np.complex128).copy()
    if not 1 <= site <= v.size - 1:
        raise ValidationError(f"site must be in 1..{v.size - 1}, got {site}")
    v[site - 1] *= cmath.exp(-1j * chi)
    return v


@dataclass(frozen=True)
class WGenerationPlan:
    """A solved W-generation schedule.

    source is "center" or a 1-based outer-site index; ratio is the squared
    coupling ratio p of passive to source sites (None for center plans); chi
    is the residual phase to remove from the source site after evolution.
    """

    source: int | str
    t_w: float
    winding: int
    ratio: float | None
    chi: float
    predicted_error: float
    network: StarNetwork


def plan_w_from_center(network: StarNetwork, winding: int = 0) -> WGenerationPlan:
    """Schedule W generation from the central qubit.

    Requires Delta = -1 everywhere and equal couplings; anything else cannot
    reach unit site populations from the center and is refused.
    """
    if winding < 0:
        raise ValidationError("winding must be >= 0")
    g = network.gammas
    if np.abs(network.deltas + 1.0).max() > 1e-10:
        raise InfeasibleError(
            "center-sourced generation needs pure transverse coupling "
            "(anisotropy -1 on every site)"
        )
    mean = float(g.mean())
    if mean <= 0.0 or np.abs(g - mean).max() > 1e-10 * max(abs(mean), 1.0):
        raise InfeasibleError(
            "center-sourced generation needs equal positive couplings"
        )
    t_w = (2 * winding + 1) * math.pi / network.omega
    state = propagate(network, basis_state(network, network.dim), [t_w], "analytic")[0]
    return WGenerationPlan(
        source="center",
        t_w=t_w,
        winding=winding,
        ratio=None,
        chi=0.0,
        predicted_error=generation_error(state),
        network=network,
    )


def _population_ratio(theta1, n: int, branch: str):
    """The ratio p of `equal_population_ratio` and its discriminant, for one
    theta_1 or an array of them (p is meaningless where disc < -1e-12)."""
    cos_t = np.cos(theta1)
    disc = 2.0 * n * (1.0 - cos_t) - n * n * np.sin(theta1) ** 2
    root = np.sqrt(np.maximum(disc, 0.0))
    sign = 1.0 if branch == "plus" else -1.0
    return (1.0 - n * cos_t + sign * root) / (n - 1) ** 2, disc


def _require_branch(branch: str) -> None:
    if branch not in ("plus", "minus"):
        raise ValidationError(f"branch must be 'plus' or 'minus', got {branch!r}")


def equal_population_ratio(theta1: float, n_sites: int, branch: str = "plus") -> float:
    """Coupling ratio p equalizing source and passive populations.

    Valid at times where the center amplitude vanishes; the discriminant
    2N(1-cos theta_1) - N^2 sin^2 theta_1 must be non-negative for a real
    solution.
    """
    if n_sites < 2:
        raise ValidationError("population matching needs at least two sites")
    _require_branch(branch)
    p, disc = _population_ratio(theta1, n_sites, branch)
    if disc < -1e-12:
        raise InfeasibleError(
            f"no real coupling ratio: discriminant {disc:.3e} is negative"
        )
    return float(p)


def _sign_change(f, lo: float, hi: float) -> float:
    """Where the vectorised f first leaves its sign at lo in [lo, hi], or hi if it
    never does: four 64-fold rescans of the cell, then the zero of the chord."""
    for _ in range(4):
        x = np.linspace(lo, hi, 65)
        v = f(x)
        j = int(np.argmax(np.sign(v) != np.sign(v[0])))
        if j == 0:
            return float(hi)
        lo, hi, f_lo, f_hi = x[j - 1], x[j], v[j - 1], v[j]
    return float(lo - f_lo * (hi - lo) / (f_hi - f_lo))


def _solve_ratio(
    n: int, constraint: float, gamma_source: float, winding: int, branch: str
) -> float:
    """Self-consistent p: the smallest ratio that equalizes populations at t_k,
    scanned over the branch's range where a real ratio exists (cos theta_1 <=
    2/N - 1): [1/(N-1), (sqrt N - 1)^-2] for plus, [(sqrt N + 1)^-2, 1/(N-1)] for minus."""
    def residual(p):
        """p minus the ratio at theta_1(p), and the discriminant, for p or an array."""
        omega = gamma_source * np.sqrt(1.0 + (n - 1) * p)
        b = constraint * (n - 1) / (2.0 * omega)
        theta1 = winding * math.pi * (b / np.hypot(1.0, b) - 1.0)
        ratio, disc = _population_ratio(theta1, n, branch)
        return p - ratio, disc

    lo, hi = sorted((1.0 / (n - 1), (math.sqrt(n) + (-1.0 if branch == "plus" else 1.0)) ** -2))
    # widened so that a root on a bracket end still changes sign inside the grid:
    # at C = 0 and odd winding, theta_1 = -k pi puts it exactly on (sqrt N -+ 1)^-2
    grid = np.linspace(lo * (1.0 - 1e-9), hi * (1.0 + 1e-9), 2401)
    # a sign change where no real ratio exists comes from the clamp, not a root
    for i in np.flatnonzero(np.diff(np.sign(residual(grid)[0]))):
        p = _sign_change(lambda x: residual(x)[0], grid[i], grid[i + 1])
        if residual(p)[1] >= -1e-12:
            return p
    raise InfeasibleError(
        f"no self-consistent coupling ratio for winding {winding} "
        f"(branch {branch}, C={constraint:.6g})"
    )


def _site_plan_at_winding(
    n_sites: int,
    source: int,
    constraint: float,
    gamma_source: float,
    winding: int,
    branch: str,
) -> WGenerationPlan:
    p = _solve_ratio(n_sites, constraint, gamma_source, winding, branch)
    gammas = np.full(n_sites, math.sqrt(p) * gamma_source)
    gammas[source - 1] = gamma_source
    deltas = constraint / gammas - 1.0
    network = StarNetwork(gammas=gammas, deltas=deltas)
    omega = network.omega
    t_w = 4.0 * winding * math.pi / math.sqrt(
        4.0 * omega**2 + constraint**2 * (n_sites - 1) ** 2
    )
    state = propagate(network, basis_state(network, source), [t_w], "analytic")[0]
    populations = np.abs(state[:n_sites]) ** 2
    if abs(state[n_sites]) > 1e-8 or np.abs(populations - 1.0 / n_sites).max() > 1e-8:
        raise InfeasibleError(
            f"winding {winding} solution does not reach uniform populations"
        )
    passive = 0 if source != 1 else 1
    chi = cmath.phase(state[source - 1] / state[passive])
    corrected = apply_phase_correction(state, source, chi)
    return WGenerationPlan(
        source=source,
        t_w=t_w,
        winding=winding,
        ratio=p,
        chi=chi,
        predicted_error=generation_error(corrected),
        network=network,
    )


def plan_w_from_site(
    n_sites: int,
    source: int,
    constraint: float = 0.0,
    gamma_source: float = 1.0,
    winding: int | None = None,
    branch: str = "plus",
) -> WGenerationPlan:
    """Schedule W generation starting from one outer site.

    With winding=None the smallest feasible winding is used; p is the
    smallest self-consistent ratio at that winding.  The solved network
    carries gamma_source on the source site, sqrt(p) gamma_source on every
    other site, and anisotropies chosen so each gamma (1 + Delta) is `constraint`.
    """
    _require_branch(branch)
    if n_sites < 2:
        raise ValidationError("site-sourced generation needs at least two sites")
    if not 1 <= source <= n_sites:
        raise ValidationError(f"source must be in 1..{n_sites}, got {source}")
    if not gamma_source > 0.0:
        raise ValidationError("gamma_source must be positive")
    if winding is not None:
        if winding < 1:
            raise ValidationError("winding must be >= 1")
        return _site_plan_at_winding(
            n_sites, source, constraint, gamma_source, winding, branch
        )
    last: InfeasibleError | None = None
    for k in range(1, MAX_WINDING_SEARCH + 1):
        try:
            return _site_plan_at_winding(
                n_sites, source, constraint, gamma_source, k, branch
            )
        except InfeasibleError as err:
            last = err
    raise InfeasibleError(
        f"no feasible winding up to {MAX_WINDING_SEARCH}: {last}"
    )


def fluctuation_sweep(
    delta_values: Iterable[float],
    constraint: float = FLUCTUATION_CONSTRAINT,
    winding: int = FLUCTUATION_WINDING,
    branch: str = FLUCTUATION_BRANCH,
) -> list[tuple[float, float]]:
    """Generation error of the three-site, site-sourced W protocol when the
    source's diagonal product drifts to C(1+delta).

    The baseline is the plan `plan_w_from_site(3, 3, constraint, 1.0)`
    reports.  Each fluctuated run keeps that plan's couplings, time and phase
    correction and moves only the source's anisotropy, so only the diagonal
    entries of the star Hamiltonian move.
    """
    plan = plan_w_from_site(3, 3, constraint, 1.0, winding=winding, branch=branch)
    gammas = plan.network.gammas
    start = basis_state(plan.network, 3)
    rows = []
    for frac in delta_values:
        frac = float(frac)
        if not -1.0 < frac < 1.0:
            raise ValidationError(f"fractional fluctuation {frac} outside (-1, 1)")
        deltas = plan.network.deltas.copy()
        deltas[2] = constraint * (1.0 + frac) / gammas[2] - 1.0
        out = evolve_subspace(StarNetwork(gammas=gammas, deltas=deltas), start, plan.t_w)
        rows.append((frac, generation_error(apply_phase_correction(out, 3, plan.chi))))
    return rows


@dataclass(frozen=True)
class TransferProgram:
    """Couplings realizing block-to-block transfer, plus the transfer time.

    Sites 1..L and L+1..2L carry the same normalized amplitude pattern c;
    any outer sites beyond 2L are decoupled.  t_transfer is the first peak of
    the target fidelity in a 4097-point scan over [0, 8 pi / Omega], refined
    on dF/dt (a scan point within 1e-9 of the maximum, relative, counts as a
    tie), or exactly 8 pi / Omega (compare with ==) while F still rises there.
    """

    block: int
    amplitudes: tuple[float, ...]
    network: StarNetwork
    t_transfer: float
    peak_target_fidelity: float


def _transfer_fidelities(network: StarNetwork, times) -> tuple[np.ndarray, ...]:
    """Return and target fidelity, and the target's dF/dt, of a transfer
    network over a 1-d time grid, from the module docstring's phasors.  The
    smaller frequency comes from (delta - nu)(delta + nu) = -Omega^2/4, and
    z - 1 = x + iy from e^{iwt} - 1 = -2 sin^2(wt/2) + i sin(wt), so a
    suppressed transfer keeps its relative precision."""
    p, half_omega = network.products, network.omega / 2.0
    delta = (p[0] * (network.n_sites - 2) + p.sum()) / 8.0  # (d - e) / 2
    big = delta + math.copysign(math.hypot(delta, half_omega), delta)
    w = np.array(sorted((big, -half_omega**2 / big)))  # delta -+ nu
    weights = np.array([w[1], -w[0]]) / (w[1] - w[0])  # a, b
    wt = np.multiply.outer(np.asarray(times, dtype=np.float64), w)
    half, full = np.sin(wt / 2.0) ** 2, np.sin(wt)
    x, y = -2.0 * half @ weights, full @ weights
    # dz/dt = i m (e^{i w_- t} - e^{i w_+ t}), m = a w_- = -b w_+
    m = weights[0] * w[0]
    slope = m * (x * (full[:, 1] - full[:, 0]) + 2.0 * y * (half[:, 1] - half[:, 0])) / 2.0
    return (*np.clip([((x + 2.0) ** 2 + y**2) / 4.0, (x**2 + y**2) / 4.0], 0.0, 1.0), slope)


def make_transfer_program(
    n_sites: int,
    block: int,
    amplitudes: Sequence[float],
    gamma_scale: float = 1.0,
    constraint: float = 0.0,
) -> TransferProgram:
    """Build the mirrored-coupling network for a block of L amplitudes.

    Needs 2L + 1 <= N so the center plus a disjoint image block fit; the
    amplitude pattern must be unit-norm with no zero entries (a zero entry
    would leave the coupling ratio on that site undefined).
    """
    if block < 1:
        raise ValidationError("block length must be >= 1")
    if 2 * block + 1 > n_sites:
        raise ValidationError(
            f"block length {block} needs at least {2 * block + 1} outer sites, "
            f"got {n_sites}"
        )
    c = np.asarray(amplitudes, dtype=np.float64)
    if c.shape != (block,):
        raise ValidationError(
            f"need exactly {block} real amplitudes, got shape {c.shape}"
        )
    if abs(float(np.linalg.norm(c)) - 1.0) > 1e-10:
        raise ValidationError("amplitude pattern must have unit norm")
    if np.abs(c).min() == 0.0:
        raise ValidationError("amplitude pattern must have no zero entries")
    if not gamma_scale > 0.0:
        raise ValidationError("gamma_scale must be positive")
    gammas = np.zeros(n_sites)
    gammas[:block] = gamma_scale * c
    gammas[block : 2 * block] = gamma_scale * c
    deltas = np.full(n_sites, -1.0)
    active = gammas != 0.0
    deltas[active] = constraint / gammas[active] - 1.0
    network = StarNetwork(gammas=gammas, deltas=deltas)
    times = np.linspace(0.0, 8.0 * math.pi / network.omega, TRANSFER_SCAN_POINTS)
    coarse = _transfer_fidelities(network, times)[1]
    first = int(np.argmax(coarse >= coarse.max() * (1.0 - 1e-9)))
    lo, hi = times[max(first - 1, 0)], times[min(first + 1, len(times) - 1)]
    t_transfer = _sign_change(lambda t: _transfer_fidelities(network, t)[2], lo, hi)
    return TransferProgram(
        block=block,
        amplitudes=tuple(float(v) for v in c),
        network=network,
        t_transfer=t_transfer,
        peak_target_fidelity=float(_transfer_fidelities(network, [t_transfer])[1][0]),
    )


@dataclass(frozen=True)
class FidelityCurve:
    """Return and target fidelities of a transfer program over a time grid."""

    times: np.ndarray
    return_fidelity: np.ndarray
    target_fidelity: np.ndarray


def fidelity_curve(program: TransferProgram, times: Iterable[float]) -> FidelityCurve:
    t = np.asarray(list(times), dtype=np.float64)
    return FidelityCurve(t, *_transfer_fidelities(program.network, t)[:2])
