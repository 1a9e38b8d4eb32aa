"""Microscopic model of a substituted antiferromagnetic spin ring and the
two-level (qubit) encoding carried by its ground doublet.

The ring Hamiltonian is nearest-neighbour Heisenberg exchange plus a uniaxial
single-site term,

    H = sum_k J_k tau_k . tau_{k+1}  +  sum_k d_k (tau_{k,z}^2 - s_k(s_k+1)/3),

where bond k couples sites (k, k+1) and the ring closes with bond L coupling
site L back to site 1.  A two-site ring therefore counts its single geometric
bond twice (both bond 1 and bond 2 join the same pair), and a one-site ring
degenerates to constants.

The canonical composition is x spin-3/2 sites followed by one spin-1 site,
with bonds 1..x at strength J and the closing bond at a*J; `RingSpec.cr_ni`
builds it.  For antiferromagnetic couplings the two lowest levels form a
total-spin-1/2 doublet with S_z = -1/2 and +1/2; those two states are the
qubit's |0> and |1>, and the gap to the next level is the encoding's
protection.
"""
from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import DimensionCapError, GroundDoubletError, ValidationError
from .linalg import HERMITICITY_RTOL, hermitian_eigendecompose, max_entry_norm

# Largest full product dimension of a ring (a config's `dim_cap`; larger
# rings exit with code 5).  The sector route holds O(L * dim) numbers: the
# cached sector layout, blocks with at most 2L + 1 entries per row, and the
# two doublet kets.  x = 5 (dim 3072) peaks 4.5 MB above the imports, x = 7
# 39 MB, the layout included.
DEFAULT_DIM_CAP = 4096

DENSE_SECTOR_MAX = 200  # larger sectors are diagonalised by sparse Lanczos

# minimum doublet gap, relative to the largest Hamiltonian entry: levels
# closer than this count as degenerate with the ground level
GROUND_CLUSTER_RTOL = 1e-8

# the phase pivot of a ket is its first entry within this fraction of the
# largest magnitude, so rounding cannot pick between tied entries
PIVOT_RTOL = 1e-6


def _check_spin(s: float) -> float:
    two_s = round(2 * float(s))
    if abs(2 * float(s) - two_s) > 1e-9 or two_s < 0:
        raise ValidationError(f"spin must be a non-negative half-integer, got {s}")
    return two_s / 2.0


@dataclass(frozen=True)
class RingSpec:
    """One ring: site spins, bond exchange strengths, uniaxial site terms.

    All tuples have the ring length L; bond k (0-based) couples sites
    (k, (k+1) mod L).  Site labels in user-facing interfaces are 1-based.
    """

    sites: tuple[float, ...]
    bond_couplings: tuple[float, ...]
    crystal_fields: tuple[float, ...]

    def __post_init__(self):
        if len(self.sites) == 0:
            raise ValidationError("ring needs at least one site")
        if len(self.bond_couplings) != len(self.sites) or len(
            self.crystal_fields
        ) != len(self.sites):
            raise ValidationError(
                "sites, bond_couplings and crystal_fields must have equal length"
            )
        object.__setattr__(self, "sites", tuple(_check_spin(s) for s in self.sites))
        object.__setattr__(
            self, "bond_couplings", tuple(float(j) for j in self.bond_couplings)
        )
        object.__setattr__(
            self, "crystal_fields", tuple(float(d) for d in self.crystal_fields)
        )

    @classmethod
    def cr_ni(
        cls,
        x: int,
        exchange: float = 17.0,
        ratio: float = 0.9,
        crystal_field: float = 0.3,
        symmetric_substitute_bonds: bool = False,
    ) -> "RingSpec":
        """x spin-3/2 sites plus one spin-1 site at position x+1.

        Bonds 1..x carry `exchange`; the closing bond (x+1 -> 1) carries
        ratio * exchange.  With `symmetric_substitute_bonds` both bonds
        adjacent to the spin-1 site carry the scaled value, restoring the
        mirror symmetry that exchanges the two neighbouring spin-3/2 sites.
        """
        if x < 1:
            raise ValidationError("need at least one spin-3/2 site")
        sites = (1.5,) * x + (1.0,)
        j = float(exchange)
        if symmetric_substitute_bonds:
            bonds = (j,) * (x - 1) + (ratio * j, ratio * j)
        else:
            bonds = (j,) * x + (ratio * j,)
        fields = (float(crystal_field),) * (x + 1)
        return cls(sites=sites, bond_couplings=bonds, crystal_fields=fields)

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    @property
    def site_dims(self) -> tuple[int, ...]:
        return tuple(int(round(2 * s)) + 1 for s in self.sites)

    @property
    def dim(self) -> int:
        # exact (np.prod wraps past 2**63), one power per distinct site dimension
        return math.prod(d**k for d, k in Counter(self.site_dims).items())


class _SectorLayout(NamedTuple):
    """The part of a ring's sector build that depends only on its site spins.

    m[i, k] is tau_z of site k in product state i; casimir[k] is s_k(s_k+1);
    roots[k] holds sqrt((s(s+1) - m_k(m_k+1)) (s(s+1) - m_q(m_q-1))) for every
    state that bond k (sites k, q) can hop, the ladder factor of its
    S+_k S-_q entry.  Each sector is (2M, idx, take, (row, col)): idx the
    ascending product-basis indices of its states, take the positions of its
    entries in build_ring_hamiltonian's concatenated [diagonal, hops of bond
    1, their mirrors, ...] values, and (row, col) their places in the block.
    ladder = (starts, src, dst, half_roots) holds each S+_k from the S_z = -1/2
    sector to +1/2 (site k's at starts[k]:starts[k+1]) and tau_{k,x}'s element
    sqrt(s(s+1) - m(m+1)) / 2; it is empty when the total spin is an integer.
    """

    m: np.ndarray
    casimir: np.ndarray
    roots: tuple[np.ndarray, ...]
    sectors: tuple[tuple[int, np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]], ...]
    ladder: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


# A layout holds the m table, the ladder roots, three indices per H entry and
# the ladder table (0.9 MB of it): 17.7 MB for x = 7 (dim 49152), 38 kB for x = 3.
@functools.lru_cache(maxsize=8)
def _sector_layout(sites: tuple[float, ...]) -> _SectorLayout:
    """Index tables of the total-S_z sectors for one tuple of site spins,
    read-only because callers receive idx inside the sector blocks.  Product
    indices are mixed-radix numbers with site 1 most significant; level i of
    a site has m = s - i, so the spin flip m -> -m maps index i to dim-1-i."""
    dims = np.array([int(round(2 * s)) + 1 for s in sites])
    dim = int(np.prod(dims))
    strides = np.append(np.cumprod(dims[:0:-1])[::-1], 1)
    levels = (np.arange(dim)[:, None] // strides) % dims
    two_m = np.round(2 * np.array(sites)).astype(int) - 2 * levels
    m = two_m / 2.0
    casimir = np.array([s * (s + 1) for s in sites])
    states = np.arange(dim)
    rows, cols, roots = [states], [states], []
    bonds = range(len(sites)) if len(sites) > 1 else ()  # one site: no hops
    for k in bonds:
        q = (k + 1) % len(sites)
        # S+_k raises m_k (its level index falls by one), S-_q lowers m_q
        raise_k = casimir[k] - m[:, k] * (m[:, k] + 1)
        lower_q = casimir[q] - m[:, q] * (m[:, q] - 1)
        src = np.flatnonzero((raise_k > 0) & (lower_q > 0))
        dst = src - strides[k] + strides[q]
        roots.append(np.sqrt(raise_k[src] * lower_q[src]))
        rows += [src, dst]
        cols += [dst, src]
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    keys, sector = np.unique(two_m.sum(axis=1), return_inverse=True)
    entry_sector = sector[rows]  # an entry never leaves its sector
    position = np.empty(dim, dtype=np.intp)
    sectors = []
    for i, key in enumerate(keys):
        idx = np.flatnonzero(sector == i)
        position[idx] = np.arange(idx.size)
        take = np.flatnonzero(entry_sector == i)
        sectors.append((int(key), idx, take, (position[rows[take]], position[cols[take]])))
    # every S+_k from the S_z = -1/2 sector (none for integer spin), by site
    minus = np.flatnonzero(keys[sector] == -1)
    raising = casimir - m[minus] * (m[minus] + 1)
    site, at = np.nonzero(raising.T > 0)
    src = minus[at]
    starts = np.searchsorted(site, np.arange(len(sites) + 1))
    ladder = (starts, src, src - strides[site], np.sqrt(raising[at, site]) / 2)
    for array in (m, casimir, *roots, *ladder):
        array.setflags(write=False)
    for _, idx, take, (row, col) in sectors:
        for array in (idx, take, row, col):
            array.setflags(write=False)
    return _SectorLayout(m, casimir, tuple(roots), tuple(sectors), ladder)


def build_ring_hamiltonian(spec: RingSpec, dim_cap: int = DEFAULT_DIM_CAP) -> dict:
    """Real Hamiltonian of one ring, one block per total-S_z sector.

    Returns {2M: (indices, block)}: the ascending product-basis indices of
    the sector's states (read-only) and H restricted to them, a dense array
    up to DENSE_SECTOR_MAX states and a scipy.sparse CSR array above.  Bond k
    adds J_k m_k m_{k+1} to the diagonal and J_k/2 (S+_k S-_{k+1} + h.c.) off
    it; the index tables come from `_sector_layout`, built once per spin tuple.
    """
    dim = spec.dim
    if dim > dim_cap:
        shown = dim if dim < 10**100 else f"10^{math.log10(dim):.1f}"
        raise DimensionCapError(f"ring dimension {shown} exceeds the cap {dim_cap}")
    layout = _sector_layout(spec.sites)
    m, casimir = layout.m, layout.casimir
    diag = (m**2 - casimir / 3.0) @ np.array(spec.crystal_fields)
    vals = [diag]
    if spec.n_sites == 1:  # a one-site ring: tau . tau = s(s+1)
        diag += spec.bond_couplings[0] * casimir[0]
    for k, (j, root) in enumerate(zip(spec.bond_couplings, layout.roots)):
        diag += j * m[:, k] * m[:, (k + 1) % spec.n_sites]
        amp = (j / 2) * root
        vals += [amp, amp]
    vals = np.concatenate(vals)
    blocks = {}
    for key, idx, take, positions in layout.sectors:
        if idx.size <= DENSE_SECTOR_MAX:
            block = np.zeros((idx.size, idx.size))
            np.add.at(block, positions, vals[take])
        else:
            from scipy import sparse

            block = sparse.csr_array((vals[take], positions), shape=(idx.size, idx.size))
        blocks[key] = (idx, block)
    return blocks


def total_sz_operator(spec: RingSpec) -> np.ndarray:
    return np.diag(_sector_layout(spec.sites).m.sum(axis=1))


@dataclass(frozen=True)
class QubitEncoding:
    """Ground doublet of one ring: |0> has total S_z = -1/2, |1> has +1/2.

    |0> is |1>'s spin flip up to a phase, each zero outside its sector.  gap
    is the energy from the doublet to the next level (inf when nothing lies
    above it).  The relative phase of |1> is gauge-fixed so the transverse
    matrix element at the reference site is real and non-negative.
    """

    ket0: np.ndarray
    ket1: np.ndarray
    gap: float


def _canonical_phase(vec: np.ndarray) -> np.ndarray:
    mags = np.abs(vec)
    if mags.max() == 0.0:
        return vec
    pivot = vec[int(np.argmax(mags >= (1.0 - PIVOT_RTOL) * mags.max()))]
    return vec * (pivot.conj() / abs(pivot))


def _transverse_elements(ket0: np.ndarray, ket1: np.ndarray, spec: RingSpec) -> np.ndarray:
    """<1|tau_{k,x}|0> of every site k: one gather over the ladder table, one
    sum per site.  Refuses kets with weight outside the -1/2 and +1/2 sectors."""
    starts, src, dst, half_roots = _sector_layout(spec.sites).ladder
    if np.delete(ket0, src).any() or np.delete(ket1, dst).any():
        raise ValidationError("doublet kets must lie in the S_z = -1/2 and +1/2 sectors")
    terms = np.append(ket1[dst].conj() * half_roots * ket0[src], 0.0)
    # reduceat gives an empty segment (a spin-0 site) its first term: zero it
    return np.where(starts[1:] > starts[:-1], np.add.reduceat(terms, starts[:-1]), 0.0)


def regauge(encoding: QubitEncoding, spec: RingSpec | None = None) -> QubitEncoding:
    """Reapply the deterministic phase convention to a doublet.

    Strips whatever overall phases |0> and |1> carry (an eigensolver is free
    to pick any): |0> is rotated so its largest-magnitude entry (PIVOT_RTOL)
    is real positive, |1> so that <1|tau_{1,x}|0> on site 1 of `spec` (kets
    in the -1/2 and +1/2 sectors) is real non-negative.  Without a spec, or
    when that element vanishes, |1> falls back to the largest-entry rule.
    """
    ket0 = _canonical_phase(np.asarray(encoding.ket0))
    ket1 = np.asarray(encoding.ket1)
    if spec is not None:
        x10 = _transverse_elements(ket0, ket1, spec)[0]
        starts, _, _, half_roots = _sector_layout(spec.sites).ladder
        # site 1's largest |tau_x| entry is in its part of the ladder table
        if abs(x10) > 1e-12 * max(half_roots[: starts[1]].max(initial=0.0), 1.0):
            ket1 = ket1 * (x10 / abs(x10))  # exactly +-1 on real kets
            return replace(encoding, ket0=ket0, ket1=ket1)
    return replace(encoding, ket0=ket0, ket1=_canonical_phase(ket1))


def _lowest_levels(block, count: int, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """The `count` lowest eigenvalues of one real symmetric sector block,
    ascending, with their eigenvectors as columns.  Dense blocks take the
    full eigendecomposition; CSR blocks take Lanczos (`eigsh`) from a fixed
    start vector, so repeated runs return the same bytes."""
    if isinstance(block, np.ndarray):
        eig = hermitian_eigendecompose(block)
        return eig.values[:count], eig.vectors[:, :count]
    from scipy.sparse.linalg import eigsh

    asym = max_entry_norm(block - block.T)
    if asym > HERMITICITY_RTOL * scale:
        raise ValidationError(f"sector block is not symmetric (asymmetry {asym:.3e})")
    start = np.random.default_rng(0).standard_normal(block.shape[0])
    values, vectors = eigsh(block, k=count, which="SA", v0=start)
    order = np.argsort(values)
    values, vectors = values[order], vectors[:, order]
    residual = np.linalg.norm(block @ vectors - vectors * values, axis=0).max()
    if residual > 1e-10 * scale:
        raise ValidationError(f"sector eigenpairs have residual {residual:.3e}")
    return values, vectors


def _gershgorin_floor(block) -> float:
    """min_i (H_ii - sum_{j != i} |H_ij|) of a dense or CSR block: no
    eigenvalue lies below it."""
    centre = block.diagonal()
    return float((centre - (abs(block).sum(axis=1) - abs(centre))).min())


def ground_doublet(sectors: dict, spec: RingSpec) -> QubitEncoding:
    """Extract the qubit encoding from a ring's sector blocks.

    |1> is the S_z = +1/2 ground state and |0> its spin flip m -> -m: time
    reversal makes sector -1/2 exactly +1/2 reversed (refused otherwise), so
    only +1/2 is diagonalised.  The gap, to the second +1/2 level or the
    ground level of a sector 2M > 1, must exceed GROUND_CLUSTER_RTOL times
    the largest block entry.  Sectors 2M > 1 are visited in ascending order,
    and one whose Gershgorin floor lies above the lowest level so far by
    more than that window is skipped: it cannot hold the level of the gap.
    """
    if 1 not in sectors:
        raise GroundDoubletError("integer total spin: no S_z = +-1/2 doublet")
    (idx0, block0), (idx1, block1) = sectors[-1], sectors[1]
    flipped = np.array_equal(idx0, (spec.dim - 1 - idx1)[::-1])
    if not flipped or (block0 != block1[::-1, ::-1]).sum():
        raise ValidationError("-1/2 sector is not the spin flip of +1/2: H breaks time reversal")
    scale = max(max(max_entry_norm(block) for _, block in sectors.values()), 1.0)
    window = GROUND_CLUSTER_RTOL * scale
    plus, vec1 = _lowest_levels(block1, 2, scale)
    above = list(plus[1:])
    for key in sorted(key for key in sectors if key > 1):
        block = sectors[key][1]
        # a sector whose Gershgorin floor clears the lowest level so far by
        # the window cannot lower it, even after rounding in floor or solver
        if above and _gershgorin_floor(block) > min(above) + window:
            continue
        above.append(_lowest_levels(block, 1, scale)[0][0])
    gap = float(min(above) - plus[0]) if above else math.inf
    if not gap > window:
        raise GroundDoubletError(f"no S_z = +-1/2 ground doublet (gap {gap:.3e})")
    ket1 = np.zeros(spec.dim)
    ket1[idx1] = vec1[:, 0]
    raw = QubitEncoding(ket0=ket1[::-1], ket1=ket1, gap=gap)
    return regauge(raw, spec)


@dataclass(frozen=True)
class SiteMatrixElements:
    """Per-site doublet matrix elements used to derive effective couplings.

    x10[m] = <1|tau_{m,x}|0>   (real >= 0 at the gauge reference site)
    z00[m] = <0|tau_{m,z}|0>
    z11[m] = <1|tau_{m,z}|1>   (= -z00[m] for a time-reversal-paired doublet)
    """

    x10: np.ndarray
    z00: np.ndarray
    z11: np.ndarray


def doublet_matrix_elements(
    encoding: QubitEncoding, spec: RingSpec
) -> SiteMatrixElements:
    """Every site's elements, from the layout's ladder and m tables."""
    x10 = _transverse_elements(encoding.ket0, encoding.ket1, spec)
    # tau_z is diagonal in the product basis: <v|tau_{k,z}|v> = sum_i |v_i|^2 m_k(i)
    z00, z11 = np.abs([encoding.ket0, encoding.ket1]) ** 2 @ _sector_layout(spec.sites).m
    return SiteMatrixElements(x10=x10, z00=z00, z11=z11)


def ring_qubit_encoding(
    spec: RingSpec, dim_cap: int = DEFAULT_DIM_CAP
) -> tuple[QubitEncoding, SiteMatrixElements]:
    """Full pipeline for one ring: sector blocks, doublet, matrix elements.

    The gauge reference is site 1 (the first site).
    """
    enc = ground_doublet(build_ring_hamiltonian(spec, dim_cap=dim_cap), spec)
    return enc, doublet_matrix_elements(enc, spec)
