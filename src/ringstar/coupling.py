"""Effective qubit-qubit couplings from microscopic ring pairs.

A set of intermolecular exchange linkers, each joining site m of an outer
ring to site n of the central ring with strength J_mn, compresses onto the
two ground doublets as an XXZ pair interaction with

    gamma = sum_mn J_mn <1|tau_{m,x}|0>_ring <0|tau_{n,x}|1>_central
    Delta = 1 - (sum_mn J_mn z00_ring[m] z00_central[n]) / (x-sum above)

The transverse sum in the denominator may vanish for unlucky linker choices;
that is reported as a divergence rather than returning an unusable Delta.
The overall proportionality of gamma is taken as one; `scale` rescales it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    AnisotropyDivergenceError,
    GroundDoubletError,
    RingStarError,
    ValidationError,
)
from .rings import (
    DEFAULT_DIM_CAP,
    RingSpec,
    SiteMatrixElements,
    cr_ni_within,
    ring_qubit_encoding,
    ring_qubit_encodings,
)
from .star import StarNetwork

DIVERGENCE_RTOL = 1e-12


@dataclass(frozen=True)
class Linker:
    """One intermolecular exchange path: ring site m to central site n (1-based)."""

    ring_site: int
    central_site: int
    strength: float


@dataclass(frozen=True)
class EffectivePair:
    """Effective coupling gamma and anisotropy Delta for one ring-center pair."""

    gamma: float
    delta: float


def _check_linkers(linkers: Sequence[Linker], n_ring: int, n_central: int) -> None:
    """Refuse an empty linker set or a site outside either ring."""
    if len(linkers) == 0:
        raise ValidationError("need at least one linker")
    for link in linkers:
        for which, site, n in (("ring", link.ring_site, n_ring),
                               ("central", link.central_site, n_central)):
            if not 1 <= site <= n:
                raise ValidationError(f"linker {which} site {site} out of range 1..{n}")


def _pair(x_sum, z_sum, max_strength: float, scale: float) -> EffectivePair:
    """(gamma, Delta) from the transverse and zz sums, or a divergence when the
    transverse sum vanishes against the largest linker strength."""
    if abs(x_sum) < DIVERGENCE_RTOL * max(max_strength, 1e-300):
        raise AnisotropyDivergenceError(
            f"transverse sum {abs(x_sum):.3e} vanishes for these linkers; "
            "the anisotropy is undefined"
        )
    gamma = float(scale) * float(x_sum.real)
    return EffectivePair(gamma, 1.0 - float((z_sum / x_sum).real))


def effective_coupling(
    ring_elements: SiteMatrixElements,
    central_elements: SiteMatrixElements,
    linkers: Sequence[Linker],
    scale: float = 1.0,
) -> EffectivePair:
    """Compress a set of linkers onto the two doublets."""
    _check_linkers(linkers, ring_elements.x10.size, central_elements.x10.size)
    x_sum = z_sum = max_strength = 0.0
    for link in linkers:
        m = link.ring_site - 1
        n = link.central_site - 1
        x_sum += link.strength * ring_elements.x10[m] * np.conj(
            central_elements.x10[n]
        )
        z_sum += link.strength * ring_elements.z00[m] * central_elements.z00[n]
        max_strength = max(max_strength, abs(link.strength))
    return _pair(x_sum, z_sum, max_strength, scale)


def _encode_all(specs: Sequence[RingSpec], dim_cap: int) -> dict:
    """{spec: (encoding, elements)} of each distinct ring, from one stacked
    call; the first failing ring in `specs` order raises its error."""
    distinct = list(dict.fromkeys(specs))
    outcomes = ring_qubit_encodings(distinct, dim_cap=dim_cap)
    for outcome in outcomes:
        if isinstance(outcome, RingStarError):
            raise outcome
    return dict(zip(distinct, outcomes))


def ring_pair_coupling(
    ring_spec: RingSpec,
    central_spec: RingSpec,
    linkers: Sequence[Linker],
    scale: float = 1.0,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> tuple[EffectivePair, float]:
    """Full pipeline for one outer ring + the central ring.

    Returns the effective pair and the smaller of the two doublet gaps (the
    one that limits the validity of the two-level reduction).  The linkers
    are checked before either ring is diagonalized.
    """
    _check_linkers(linkers, ring_spec.n_sites, central_spec.n_sites)
    encoded = _encode_all([ring_spec, central_spec], dim_cap)
    (enc_r, elems_r), (enc_c, elems_c) = encoded[ring_spec], encoded[central_spec]
    pair = effective_coupling(elems_r, elems_c, linkers, scale=scale)
    return pair, min(enc_r.gap, enc_c.gap)


def star_from_rings(
    central: RingSpec,
    rings: Sequence[RingSpec],
    linkers: Sequence[Sequence[Linker]],
    scale: float = 1.0,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> StarNetwork:
    """Derive the full star network from microscopic ring descriptions; every
    linker set is checked before any ring is diagonalized.  The central ring
    and every distinct outer ring are encoded in one call, and the first of
    them to fail (central first, then the outer rings in order) raises."""
    if len(rings) == 0:
        raise ValidationError("need at least one outer ring")
    if len(linkers) != len(rings):
        raise ValidationError("need one linker list per outer ring")
    for spec, links in zip(rings, linkers):
        _check_linkers(links, spec.n_sites, central.n_sites)
    encoded = _encode_all([central, *rings], dim_cap)
    elems_c = encoded[central][1]
    pairs = [
        effective_coupling(encoded[spec][1], elems_c, links, scale=scale)
        for spec, links in zip(rings, linkers)
    ]
    return StarNetwork(
        gammas=np.array([p.gamma for p in pairs]),
        deltas=np.array([p.delta for p in pairs]),
    )


class SweepRow(NamedTuple):
    """One anisotropy-sweep grid point, its fields in CSV column order; unused
    parameters stay None.

    status is "ok", "no-doublet" (the ring has no isolated ground doublet, so
    no gap) or "divergent" (the transverse sum vanishes; the gap is kept).
    Failed rows keep their grid coordinates so nothing is silently dropped.
    """

    a: float | None
    d: float | None
    b: float | None
    gamma: float | None
    delta: float | None
    gap: float | None
    status: str


def _sweep_rows(outcome, a: float, d: float, b_values: list, rule: Callable) -> list[SweepRow]:
    """Rows of a ring coupled to itself, one per b, from the outcome of its
    encoding, whose elements `rule` turns into b -> pair: a missing doublet
    fails every row, a vanishing transverse sum only its own, and any other
    error is raised."""
    if isinstance(outcome, GroundDoubletError):
        return [SweepRow(a, d, b, None, None, None, "no-doublet") for b in b_values]
    if isinstance(outcome, RingStarError):
        raise outcome
    enc, elems = outcome
    evaluate = rule(elems)
    rows = []
    for b in b_values:
        try:
            pair = evaluate(b)
        except AnisotropyDivergenceError:
            rows.append(SweepRow(a, d, b, None, None, enc.gap, "divergent"))
        else:
            rows.append(SweepRow(a, d, b, pair.gamma, pair.delta, enc.gap, "ok"))
    return rows


def sweep_anisotropy_ad(
    a_values: Iterable[float],
    d_values: Iterable[float],
    linkers: Sequence[Linker],
    x: int = 3,
    exchange: float = 17.0,
    symmetric_substitute_bonds: bool = False,
    scale: float = 1.0,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> list[SweepRow]:
    """Effective (gamma, Delta) over a grid of bond ratio a and site term d.

    Both rings of the pair share the same structure, so each grid point is
    one ring, and the whole grid is encoded in one call.  The linkers are
    checked before any diagonalization.
    """
    _check_linkers(linkers, x + 1, x + 1)

    def rule(elems: SiteMatrixElements) -> Callable[[None], EffectivePair]:
        return lambda _: effective_coupling(elems, elems, linkers, scale=scale)

    points = [(float(a), float(d)) for a in a_values for d in d_values]
    specs = [cr_ni_within(dim_cap, x, exchange, a, d, symmetric_substitute_bonds)
             for a, d in points]
    rows = []
    for (a, d), outcome in zip(points, ring_qubit_encodings(specs, dim_cap=dim_cap)):
        rows += _sweep_rows(outcome, a, d, [None], rule)
    return rows


def _b_path(
    x: int,
    exchange: float,
    a: float,
    d: float,
    reference: Linker,
    tuned_sites: tuple[int, int] | None,
    symmetric_substitute_bonds: bool,
    scale: float,
    dim_cap: int,
) -> tuple[RingSpec, Callable]:
    """The ring of a b sweep, its sites checked before any ED, and the rule elements
    -> (b -> pair) of [reference, b * reference on tuned_sites (default x + 1, x + 1)],
    which adds precomputed terms in `effective_coupling`'s order, bit for bit."""
    spec = cr_ni_within(dim_cap, x, exchange, a, d, symmetric_substitute_bonds)
    m, n = (x + 1, x + 1) if tuned_sites is None else tuned_sites
    _check_linkers([reference, Linker(m, n, 0.0)], x + 1, x + 1)
    s, r, c = reference.strength, reference.ring_site - 1, reference.central_site - 1

    def rule(elems: SiteMatrixElements) -> Callable[[float], EffectivePair]:
        x10, z00 = elems.x10.tolist(), elems.z00.tolist()
        x_ref, z_ref = 0.0 + s * x10[r] * x10[c].conjugate(), 0.0 + s * z00[r] * z00[c]
        x_m, x_n, z_m, z_n = x10[m - 1], x10[n - 1].conjugate(), z00[m - 1], z00[n - 1]

        def evaluate(b: float) -> EffectivePair:
            t = float(b) * s
            x_sum, z_sum = x_ref + t * x_m * x_n, z_ref + t * z_m * z_n
            return _pair(x_sum, z_sum, max(0.0, abs(s), abs(t)), scale)

        return evaluate

    return spec, rule


def b_sweep_evaluator(
    x: int = 3,
    exchange: float = 17.0,
    a: float = 0.9,
    d: float = 0.3,
    reference: Linker = Linker(1, 2, 1.0),
    tuned_sites: tuple[int, int] | None = None,
    symmetric_substitute_bonds: bool = False,
    scale: float = 1.0,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> Callable[[float], EffectivePair]:
    """Closure evaluating (gamma, Delta) as a function of the linker ratio b.

    b multiplies the reference strength on the tuned linker sites (default:
    the substituted site x + 1 of both rings), so b = J_tuned / J_reference.
    The underlying ring pair is diagonalized once.
    """
    spec, rule = _b_path(
        x, exchange, a, d, reference, tuned_sites, symmetric_substitute_bonds, scale, dim_cap
    )
    return rule(ring_qubit_encoding(spec, dim_cap=dim_cap)[1])


def sweep_anisotropy_b(
    b_values: Iterable[float],
    x: int = 3,
    exchange: float = 17.0,
    a: float = 0.9,
    d: float = 0.3,
    reference: Linker = Linker(1, 2, 1.0),
    tuned_sites: tuple[int, int] | None = None,
    symmetric_substitute_bonds: bool = False,
    scale: float = 1.0,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> list[SweepRow]:
    """Effective (gamma, Delta) against the two-linker strength ratio b."""
    spec, rule = _b_path(
        x, exchange, a, d, reference, tuned_sites, symmetric_substitute_bonds, scale, dim_cap
    )
    b_values = [float(b) for b in b_values]
    outcome = ring_qubit_encodings([spec], dim_cap=dim_cap)[0]
    return _sweep_rows(outcome, float(a), float(d), b_values, rule)


@dataclass(frozen=True)
class DeltaTransition:
    """One sign change of (Delta - level) located by a fine scan.

    kind "zero" means Delta actually attains the level (gamma keeps its sign);
    kind "pole" means the transverse sum changes sign, so Delta blows up and
    reappears on the other side of every finite level.  b is the zero of
    (Delta - level) * gamma or of gamma respectively.
    """

    b: float
    kind: str
    rising: bool


def find_delta_transitions(
    evaluate: Callable[[float], EffectivePair],
    b_start: float,
    b_stop: float,
    level: float = 0.0,
    points: int = 501,
) -> list[DeltaTransition]:
    """Locate and classify every crossing of Delta(b) through `level`.

    `evaluate` is called once per scan point.  Each crossing is placed where
    the straight line through its cell's two samples vanishes: of gamma for a
    pole, of (1 - level) * gamma - (1 - Delta) * gamma for a zero.  Both are
    affine in b when b scales one linker of a fixed set, as in
    `b_sweep_evaluator`, so the crossing is exact to rounding; for any other
    evaluator it is the linear interpolant's zero.
    """
    if not b_stop > b_start:
        raise ValidationError("need b_stop > b_start")
    if points < 3:
        raise ValidationError("need at least 3 scan points")
    grid = np.linspace(b_start, b_stop, points)
    gammas = np.empty(points)
    deltas = np.empty(points)
    for j, b in enumerate(grid):
        try:
            pair = evaluate(float(b))
        except AnisotropyDivergenceError:
            # sample landed on the pole itself; nudge within the cell and keep
            # the b actually used, which the crossing's line goes through
            width = (b_stop - b_start) / (points - 1)
            grid[j] = float(b) + 1e-9 * width
            try:
                pair = evaluate(float(grid[j]))
            except AnisotropyDivergenceError:  # still in the divergence window
                grid[j] = float(b) + (0.5 if j < points - 1 else -0.5) * width
                pair = evaluate(float(grid[j]))
        gammas[j] = pair.gamma
        deltas[j] = pair.delta
    offsets = deltas - level
    zero_lines = (1.0 - level) * gammas - (1.0 - deltas) * gammas

    transitions = []
    for j in np.flatnonzero(offsets[:-1] * offsets[1:] < 0.0):
        pole = gammas[j] * gammas[j + 1] < 0.0
        f0, f1 = (gammas if pole else zero_lines)[j : j + 2]
        b_at = grid[j] - f0 * (grid[j + 1] - grid[j]) / (f1 - f0)
        kind = "pole" if pole else "zero"
        transitions.append(DeltaTransition(float(b_at), kind, bool(offsets[j] < 0.0)))
    return transitions
