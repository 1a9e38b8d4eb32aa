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
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionCapError, GroundDoubletError, RingStarError, ValidationError
from .linalg import HERMITICITY_RTOL, hermitian_eigendecompose, lanczos

# Largest full product dimension of a ring (a config's `dim_cap`; larger
# rings exit with code 5).  The sector route holds O(L * dim) numbers: the
# cached sector layout, blocks with at most 2L + 1 entries per row, Lanczos
# bases of a few dozen sector vectors and the two doublet kets.  x = 5 (dim
# 3072) peaks 3.1 MB above the imports, x = 7 50 MB, the layout included.
DEFAULT_DIM_CAP = 4096

DENSE_SECTOR_MAX = 200  # larger sectors are `_SectorOperator`s for `lanczos`

# Lanczos stops at a Ritz residual of this fraction of the largest H entry:
# a ket's elements move by about KET_RTOL, a level by LEVEL_RTOL squared
# over the distance to the next one.  Every pair must be within 1e-10.
KET_RTOL = 1e-14
LEVEL_RTOL = 1e-10

# Rings of one site-spin tuple encoded together hold at most this many
# numbers (8 MB) in their dense sector blocks and Lanczos bases, a basis
# counted as 64 vectors of the largest sector; more take several stacks.
STACK_ENTRIES_MAX = 2**20

# minimum doublet gap, relative to the largest Hamiltonian entry: levels
# closer than this count as degenerate with the ground level
GROUND_CLUSTER_RTOL = 1e-8

# largest |bond coupling| and |crystal field| of a ring: H·v and the norm
# behind each Lanczos beta (a sum of squared entries of about |J| S^2 L)
# then stay finite at any ring the dimension cap admits
RING_COUPLING_MAX = 1e100

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
        for name in ("bond_couplings", "crystal_fields"):
            values = tuple(float(v) for v in getattr(self, name))
            if not all(abs(v) <= RING_COUPLING_MAX for v in values):  # NaN fails too
                raise ValidationError(
                    f"{name} must be finite with magnitudes <= {RING_COUPLING_MAX:g}, got {values}"
                )
            object.__setattr__(self, name, values)

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
    field = m^2 - casimir / 3 is the crystal-field term per unit d_k.
    hops = (bond, root) lists every state that each bond k (sites k, q) can
    hop, bond by bond: k and sqrt((s(s+1) - m_k(m_k+1)) (s(s+1) - m_q(m_q-1))),
    the ladder factor of its S+_k S-_q entry.  Each sector is (2M, idx, take,
    at): idx the ascending product-basis indices of its n states, take the
    positions of its entries in `_entry_values`' [diagonal, hops, mirrored
    hops] values, and at their places row * n + col in the n x n block, in
    ascending place above DENSE_SECTOR_MAX states.
    ladder = (starts, src, dst, half_roots) holds each S+_k from the S_z = -1/2
    sector to +1/2 (site k's at starts[k]:starts[k+1]) and tau_{k,x}'s element
    sqrt(s(s+1) - m(m+1)) / 2; it is empty when the total spin is an integer.
    outside holds the product states outside the -1/2 sector and those
    outside +1/2, where doublet kets must vanish.  dense = (take, places,
    keys, width) lists the entries of the sectors up to DENSE_SECTOR_MAX
    states sector by sector, in ascending 2M: their positions in the values,
    their places in a buffer of width numbers that holds those blocks one
    after another, and their sector's 2M.
    """

    m: np.ndarray
    casimir: np.ndarray
    field: np.ndarray
    hops: tuple[np.ndarray, np.ndarray]
    sectors: tuple[tuple[int, np.ndarray, np.ndarray, np.ndarray], ...]
    ladder: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    outside: tuple[np.ndarray, np.ndarray]
    dense: tuple[np.ndarray, np.ndarray, np.ndarray, int]


# A layout holds the m and field tables, two numbers per hop, two indices per
# H entry (three more per dense-sector entry), the out-of-sector states and
# the ladder table (0.9 MB of it): 19.4 MB for x = 7 (dim 49152), 66 kB for x = 3.
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
    srcs, dsts, bond, root = [], [], [np.empty(0, np.intp)], [np.empty(0)]
    bonds = range(len(sites)) if len(sites) > 1 else ()  # one site: no hops
    for k in bonds:
        q = (k + 1) % len(sites)
        # S+_k raises m_k (its level index falls by one), S-_q lowers m_q
        raise_k = casimir[k] - m[:, k] * (m[:, k] + 1)
        lower_q = casimir[q] - m[:, q] * (m[:, q] - 1)
        src = np.flatnonzero((raise_k > 0) & (lower_q > 0))
        srcs.append(src)
        dsts.append(src - strides[k] + strides[q])
        bond.append(np.full(src.size, k))
        root.append(np.sqrt(raise_k[src] * lower_q[src]))
    hops = (np.concatenate(bond), np.concatenate(root))
    rows = np.concatenate([states, *srcs, *dsts])
    cols = np.concatenate([states, *dsts, *srcs])
    keys, sector = np.unique(two_m.sum(axis=1), return_inverse=True)
    entry_sector = sector[rows]  # an entry never leaves its sector
    position = np.empty(dim, dtype=np.intp)
    sectors = []
    for i, key in enumerate(keys):
        idx = np.flatnonzero(sector == i)
        position[idx] = np.arange(idx.size)
        take = np.flatnonzero(entry_sector == i)
        at = position[rows[take]] * idx.size + position[cols[take]]
        if idx.size > DENSE_SECTOR_MAX:  # rows in order, for `_SectorOperator`
            order = np.argsort(at, kind="stable")
            take, at = take[order], at[order]
        sectors.append((int(key), idx, take, at))
    # every S+_k from the S_z = -1/2 sector (none for integer spin), by site
    minus = np.flatnonzero(keys[sector] == -1)
    raising = casimir - m[minus] * (m[minus] + 1)
    site, at = np.nonzero(raising.T > 0)
    src = minus[at]
    starts = np.searchsorted(site, np.arange(len(sites) + 1))
    ladder = (starts, src, src - strides[site], np.sqrt(raising[at, site]) / 2)
    outside = (np.flatnonzero(keys[sector] != -1), np.flatnonzero(keys[sector] != 1))
    # the top sector (every m maximal) has one state, so some sector is dense
    small = [(key, take, at, idx.size**2) for key, idx, take, at in sectors
             if idx.size <= DENSE_SECTOR_MAX]
    offsets = np.cumsum([0] + [size for *_, size in small])
    dense = (
        np.concatenate([take for _, take, _, _ in small]),
        np.concatenate([at + offset for (_, _, at, _), offset in zip(small, offsets)]),
        np.concatenate([np.full(take.size, key) for key, take, _, _ in small]),
        int(offsets[-1]),
    )
    field = m**2 - casimir / 3.0
    for array in (m, casimir, field, *hops, *ladder, *outside, *dense[:3]):
        array.setflags(write=False)
    for _, idx, take, at in sectors:
        for array in (idx, take, at):
            array.setflags(write=False)
    return _SectorLayout(m, casimir, field, hops, tuple(sectors), ladder, outside, dense)




def _cap_error(spec: RingSpec, dim_cap: int) -> DimensionCapError | None:
    """The error of a ring whose full product dimension exceeds the cap."""
    dim = spec.dim
    if dim <= dim_cap:
        return None
    shown = dim if dim < 10**100 else f"10^{math.log10(dim):.1f}"
    return DimensionCapError(f"ring dimension {shown} exceeds the cap {dim_cap}")


def _entry_values(specs: Sequence[RingSpec], layout: _SectorLayout) -> np.ndarray:
    """(rings, entries) Hamiltonian values of rings of one site-spin tuple, in
    the layout's [diagonal, hops, mirrored hops] order; each row holds the
    bits its ring gets alone.  Bond k adds J_k m_k m_{k+1} to the diagonal and
    J_k/2 (S+_k S-_{k+1} + h.c.) off it."""
    m, casimir = layout.m, layout.casimir
    fields, bonds = np.array([(s.crystal_fields, s.bond_couplings) for s in specs]).swapaxes(0, 1)
    # one (dim, L) @ (L, 1) product per ring: the BLAS call a lone ring makes
    diag = (layout.field @ fields[:, :, None])[:, :, 0]
    if m.shape[1] == 1:  # a one-site ring: tau . tau = s(s+1)
        diag += bonds * casimir[0]
    else:  # J_k m_k m_{k+1} of bond k = 1..L, added in that order
        for k, j in enumerate(bonds.T[:, :, None]):
            diag += j * m[:, k] * m[:, (k + 1) % m.shape[1]]
    bond, root = layout.hops
    amps = (bonds / 2)[:, bond] * root
    return np.concatenate([diag, amps, amps], axis=1)


@dataclass(frozen=True)
class _SectorOperator:
    """A sector's matrix-free blocks, indexed like a dense stack: values is
    (rings, entries), or (entries,) for one ring.  Row i holds values[..., e]
    in column cols[e] for e from starts[i] to the next row's start: columns
    ascending, one entry per place, the diagonal always.  `@` takes a (rings,
    n) stack of vectors: one gather and one reduceat."""

    starts: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape[:-1] + (self.starts.size,) * 2

    @property
    def places(self) -> np.ndarray:  # row * n + col of each entry, ascending
        n = self.starts.size
        return np.repeat(np.arange(n) * n, np.diff(self.starts, append=self.cols.size)) + self.cols

    def __getitem__(self, key) -> "_SectorOperator":
        return _SectorOperator(self.starts, self.cols, self.values[key])

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return np.add.reduceat(self.values * v.take(self.cols, axis=1), self.starts, axis=1)

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.values.shape[:-1] + (self.starts.size**2,))
        dense[..., self.places] = self.values
        return dense.reshape(self.shape)


class _Stack(NamedTuple):
    """Sector blocks of rings of one site-spin tuple.  sectors is {2M:
    (indices, blocks)}, blocks a (rings, n, n) array up to DENSE_SECTOR_MAX
    states and a `_SectorOperator` above; row r of dense holds ring r's
    dense blocks one after another in ascending 2M."""

    sectors: dict
    dense: np.ndarray


def _sector_stacks(
    specs: Sequence[RingSpec], layout: _SectorLayout, lowest: float = -math.inf
) -> _Stack:
    """The stacked blocks of rings of one site-spin tuple, sectors 2M >= lowest."""
    vals = _entry_values(specs, layout)
    dense_take, places, keys, width = layout.dense
    first = keys.searchsorted(lowest)
    # bincount sums entries that share a place in entry order from 0.0, as
    # np.add.at would; row r of the buffer holds ring r's dense blocks
    places = np.add.outer(np.arange(len(specs)) * width, places[first:]).ravel()
    buffer = np.bincount(places, vals[:, dense_take[first:]].ravel(), len(specs) * width)
    buffer = buffer.reshape(-1, width)
    sectors, end, start = {}, 0, width
    for key, idx, take, at in layout.sectors:
        n = idx.size
        end += n * n if n <= DENSE_SECTOR_MAX else 0
        if key < lowest:
            continue
        if n <= DENSE_SECTOR_MAX:
            start = min(start, end - n * n)
            sectors[key] = (idx, buffer[:, end - n * n : end].reshape(-1, n, n))
        else:  # the two hops of a two-site ring that share a place are summed
            first = np.flatnonzero(np.diff(at, prepend=-1))
            starts = np.searchsorted(at[first], np.arange(n) * n)
            values = np.add.reduceat(vals[:, take], first, axis=1)
            sectors[key] = (idx, _SectorOperator(starts, at[first] % n, values))
    return _Stack(sectors, buffer[:, start:])


def build_ring_hamiltonian(spec: RingSpec, dim_cap: int = DEFAULT_DIM_CAP) -> dict:
    """Real Hamiltonian of one ring, one block per total-S_z sector.

    Returns {2M: (indices, block)}: the ascending product-basis indices of
    the sector's states (read-only) and H restricted to them, a dense array
    up to DENSE_SECTOR_MAX states and a matrix-free `_SectorOperator` above
    (`toarray()` gives it dense).  The index tables come from
    `_sector_layout`, built once per spin tuple.
    """
    error = _cap_error(spec, dim_cap)
    if error:
        raise error
    stack = _sector_stacks([spec], _sector_layout(spec.sites))
    return {key: (idx, blocks[0]) for key, (idx, blocks) in stack.sectors.items()}


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


def _pivot_phases(vecs: np.ndarray) -> np.ndarray:
    """The unit factor of each row of `vecs` that makes its first entry within
    PIVOT_RTOL of its largest magnitude real positive (1 for a zero row)."""
    mags = np.abs(vecs)
    top = mags.max(axis=1, keepdims=True)
    first = (mags >= (1.0 - PIVOT_RTOL) * top).argmax(axis=1)
    pivot = np.where(top[:, 0] == 0.0, 1.0, vecs[np.arange(len(vecs)), first])
    return pivot.conj() / abs(pivot)


def _transverse_elements(ket0: np.ndarray, ket1: np.ndarray, layout: _SectorLayout) -> np.ndarray:
    """<1|tau_{k,x}|0> of every site k for each row of the (rings, dim) kets:
    one gather over the ladder table, one sum per site.  Refuses kets with
    weight outside the -1/2 and +1/2 sectors (or of another ring's length)."""
    starts, src, dst, half_roots = layout.ladder
    outside0, outside1 = layout.outside
    if (
        {ket0.shape[1], ket1.shape[1]} != {len(layout.m)}
        or np.count_nonzero(ket0.take(outside0, axis=1))
        or np.count_nonzero(ket1.take(outside1, axis=1))
    ):
        raise ValidationError("doublet kets must lie in the S_z = -1/2 and +1/2 sectors")
    terms = ket1.take(dst, axis=1).conj() * half_roots * ket0.take(src, axis=1)
    terms = np.concatenate([terms, np.zeros((len(terms), 1))], axis=1)
    # reduceat gives an empty segment (a spin-0 site) its first term: zero it
    return np.where(starts[1:] > starts[:-1], np.add.reduceat(terms, starts[:-1], axis=1), 0.0)


def _gauge(ket0: np.ndarray, ket1: np.ndarray, layout: _SectorLayout | None) -> tuple:
    """`regauge` of each row pair of (rings, dim) kets.  With a layout it also
    returns every site's <1|tau_x|0> of the gauged kets (None without)."""
    ket0 = ket0 * _pivot_phases(ket0)[:, None]
    if layout is None:
        return ket0, ket1 * _pivot_phases(ket1)[:, None], None
    x10 = _transverse_elements(ket0, ket1, layout)
    starts, _, _, half_roots = layout.ladder
    # site 1's largest |tau_x| entry is in its part of the ladder table
    site = x10[:, 0]
    by_site = abs(site) > 1e-12 * max(half_roots[: starts[1]].max(initial=0.0), 1.0)
    phase = site / np.where(by_site, abs(site), 1.0)  # exactly +-1 on real kets
    if not by_site.all():
        phase = np.where(by_site, phase, _pivot_phases(ket1))
    return ket0, ket1 * phase[:, None], x10 * phase.conj()[:, None]


def regauge(encoding: QubitEncoding, spec: RingSpec | None = None) -> QubitEncoding:
    """Reapply the deterministic phase convention to a doublet.

    Strips whatever overall phases |0> and |1> carry (an eigensolver is free
    to pick any): |0> is rotated so its largest-magnitude entry (PIVOT_RTOL)
    is real positive, |1> so that <1|tau_{1,x}|0> on site 1 of `spec` (kets
    in the -1/2 and +1/2 sectors) is real non-negative.  Without a spec, or
    when that element vanishes, |1> falls back to the largest-entry rule.
    """
    layout = None if spec is None else _sector_layout(spec.sites)
    kets = (np.asarray(encoding.ket0)[None], np.asarray(encoding.ket1)[None])
    ket0, ket1, _ = _gauge(*kets, layout)
    return replace(encoding, ket0=ket0[0], ket1=ket1[0])


def _lowest_levels(blocks, count: int, scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The `count` (1 or 2) lowest eigenvalues of each real symmetric block
    of a (rings, n, n) stack, values (rings, count), and their eigenvectors,
    vectors (rings, n, count).  Blocks up to DENSE_SECTOR_MAX states take one
    eigh.  A `_SectorOperator` takes `lanczos` from fixed starts (the same
    bytes every run), the +1/2 ground state (count = 2) to KET_RTOL and the
    levels to LEVEL_RTOL; it is refused unless symmetric within
    HERMITICITY_RTOL and every pair's residual is within 1e-10 (times each
    ring's scale)."""
    if blocks.shape[-1] <= DENSE_SECTOR_MAX:
        eig = hermitian_eigendecompose(blocks)
        return eig.values[..., :count], eig.vectors[..., :count]
    n, places = blocks.shape[-1], blocks.places
    transposed = places % n * n + places // n
    mirror = np.argsort(transposed)  # each entry's transpose, if it has one
    asym = np.abs(blocks.values - blocks.values[:, mirror]).max(axis=1)
    if not np.array_equal(transposed[mirror], places) or not (asym <= HERMITICITY_RTOL * scale).all():
        raise ValidationError(f"sector block is not symmetric (asymmetry {asym.max():.3e})")

    def lowest(start, rtol, locked=None):  # each ring's lowest Ritz pair
        pairs = lanczos(lambda rings, v: (blocks if rings.size == scale.size else blocks[rings]) @ v,
                        start, rtol * scale, 1, locked)
        return np.array([v[0] for v, _ in pairs]), np.array([x[0] for _, x in pairs])

    starts = np.random.default_rng(0).standard_normal((2, n))
    pairs = [lowest(np.tile(starts[0], (scale.size, 1)), KET_RTOL if count == 2 else LEVEL_RTOL)]
    if count == 2:
        # A recurrence sees one vector of each eigenspace, so a second ground
        # state needs a second run: from an independent fixed start, kept
        # orthogonal to the ground vector, it finds the second level with its
        # multiplicity (a two-column start block would need a block loop).
        ground = pairs[0][1]
        start = starts[1] - (ground @ starts[1])[:, None] * ground
        pairs.append(lowest(start, LEVEL_RTOL, ground[:, None]))
    residual = np.array([np.linalg.norm(blocks @ v - v * e[:, None], axis=1) for e, v in pairs])
    if not (residual <= 1e-10 * scale).all():
        raise ValidationError(f"sector eigenpairs have residual {residual.max():.3e}")
    return np.stack([e for e, _ in pairs], 1), np.stack([v for _, v in pairs], 2)


@functools.lru_cache(maxsize=16)
def _row_places(sizes: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """For n x n blocks of these sizes stored one after another, row by row:
    where each row starts, where its diagonal entry lies, and each block's
    first row."""
    n = np.array(sizes, dtype=np.intp)
    block_at, first_row = np.cumsum(n**2) - n**2, np.cumsum(n) - n
    block = np.repeat(np.arange(n.size), n)
    row = np.arange(n.sum()) - first_row[block]
    row_at = block_at[block] + row * n[block]
    return row_at, row_at + row, first_row


def _bounds(stack: _Stack) -> tuple[np.ndarray, dict]:
    """Each ring's largest |entry| over the stacked sectors, and {2M: each
    ring's Gershgorin floor min_i (H_ii - sum_{j != i} |H_ij|)}, below every
    eigenvalue of its block.  All dense sectors take one pass."""
    dense = sorted(key for key, (idx, _) in stack.sectors.items() if idx.size <= DENSE_SECTOR_MAX)
    sizes = tuple(stack.sectors[key][0].size for key in dense)
    row_at, diagonal, first_row = _row_places(sizes)
    mags, centre = np.abs(stack.dense), stack.dense[:, diagonal]
    rows = np.add.reduceat(mags, row_at, axis=1)
    floors = np.minimum.reduceat(centre - (rows - np.abs(centre)), first_row, axis=1)
    largest, floors = mags.max(axis=1), dict(zip(dense, floors.T))
    for key, (idx, blocks) in stack.sectors.items():
        if key not in floors:  # a sector operator
            mags, centre = np.abs(blocks.values), blocks.values[:, blocks.places % (idx.size + 1) == 0]
            rows = np.add.reduceat(mags, blocks.starts, axis=1)
            floors[key] = (centre - (rows - np.abs(centre))).min(axis=1)
            largest = np.maximum(largest, mags.max(axis=1))
    return largest, floors


def _breaks_time_reversal(blocks0, blocks1) -> bool:
    """Whether any ring's -1/2 block differs from its +1/2 block reversed; a
    sector operator's entry at place p moves to n^2 - 1 - p."""
    n = blocks1.shape[-1]
    if n <= DENSE_SECTOR_MAX:
        return bool((blocks0 != blocks1[:, ::-1, ::-1]).any())
    flipped = n * n - 1 - blocks1.places[::-1]
    return not np.array_equal(blocks0.places, flipped) or bool((blocks0.values != blocks1.values[:, ::-1]).any())


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


def _site_elements(
    ket0: np.ndarray, ket1: np.ndarray, x10: np.ndarray, layout: _SectorLayout
) -> list[SiteMatrixElements]:
    """Each row pair's elements, given its x10 row."""
    # tau_z is diagonal in the product basis: <v|tau_{k,z}|v> = sum_i |v_i|^2 m_k(i)
    z = np.abs(np.concatenate([ket0, ket1], axis=1).reshape(len(ket0), 2, -1)) ** 2 @ layout.m
    return list(map(SiteMatrixElements, x10, z[:, 0], z[:, 1]))


def _doublets(stack: _Stack, layout: _SectorLayout) -> list:
    """The ground doublet and matrix elements of each ring of one site-spin
    tuple, from their stacked sector blocks: (QubitEncoding,
    SiteMatrixElements), or the GroundDoubletError of a ring without a
    doublet.  A malformed stack raises ValidationError.

    |1> is the S_z = +1/2 ground state and |0> its spin flip m -> -m: time
    reversal makes sector -1/2 exactly +1/2 reversed (refused otherwise), so
    only +1/2 is diagonalised.  The gap, to the second +1/2 level or the
    ground level of a sector 2M > 1, must exceed GROUND_CLUSTER_RTOL times
    the ring's largest block entry.  Sectors 2M > 1 are visited in ascending
    order, each with one eigh over the rings that need it; a ring skips a
    sector whose Gershgorin floor lies above its lowest level so far by more
    than that window, since the sector cannot hold the level of the gap.
    """
    sectors, size = stack.sectors, len(stack.dense)
    if 1 not in sectors:
        return [GroundDoubletError("integer total spin: no S_z = +-1/2 doublet")] * size
    (idx0, blocks0), (idx1, blocks1) = sectors[-1], sectors[1]
    dim = layout.m.shape[0]
    flipped = idx0.size == idx1.size and (idx0 == dim - 1 - idx1[::-1]).all()
    if not flipped or _breaks_time_reversal(blocks0, blocks1):
        raise ValidationError("-1/2 sector is not the spin flip of +1/2: H breaks time reversal")
    largest, floors = _bounds(stack)
    scale = np.maximum(largest, 1.0)
    window = GROUND_CLUSTER_RTOL * scale
    plus, vectors = _lowest_levels(blocks1, 2, scale)
    # each ring's lowest level above its doublet so far (inf for none yet)
    low = plus[:, 1].copy() if plus.shape[1] > 1 else np.full(size, np.inf)
    above = sorted(key for key in sectors if key > 1)
    floors = np.array([floors[key] for key in above]).reshape(len(above), size)
    j = 0
    while j < len(above):
        # a ring skips each sector whose floor clears its lowest level so far
        # by the window: even after rounding in floor or solver, the sector
        # cannot lower that level; the next sector some ring needs is solved
        need = ~(floors[j:] > low + window)
        later = np.logical_or.reduce(need, axis=1).argmax()
        rings = need[later].nonzero()[0]
        if not rings.size:  # no ring needs any later sector
            break
        j += later
        blocks = sectors[above[j]][1]
        levels = _lowest_levels(blocks if rings.size == size else blocks[rings], 1, scale[rings])[0]
        low[rings] = np.minimum(low[rings], levels[:, 0])
        j += 1
    gap = low - plus[:, 0]
    ket1 = np.zeros((size, dim))
    ket1[:, idx1] = vectors[:, :, 0]
    ket0, ket1, x10 = _gauge(ket1[:, ::-1], ket1, layout)
    elements = _site_elements(ket0, ket1, x10, layout)
    return [
        (QubitEncoding(ket0=ket0[i], ket1=ket1[i], gap=float(gap[i])), elements[i])
        if gap[i] > window[i]
        else GroundDoubletError(f"no S_z = +-1/2 ground doublet (gap {gap[i]:.3e})")
        for i in range(size)
    ]


def _unwrap(outcome):
    """An encoding outcome, raised when it is an error."""
    if isinstance(outcome, RingStarError):
        raise outcome
    return outcome


def ground_doublet(sectors: dict, spec: RingSpec) -> QubitEncoding:
    """Extract the qubit encoding from one ring's sector blocks {2M:
    (indices, block)} as `build_ring_hamiltonian` returns them: `_doublets`
    on a stack of one ring, raising the error it reports."""
    stacked = {key: (idx, block[None]) for key, (idx, block) in sectors.items()}
    dense = [block.reshape(1, -1) for _, (idx, block) in sorted(stacked.items())
             if idx.size <= DENSE_SECTOR_MAX]
    stack = _Stack(stacked, np.concatenate(dense, axis=1))
    return _unwrap(_doublets(stack, _sector_layout(spec.sites))[0])[0]


def doublet_matrix_elements(
    encoding: QubitEncoding, spec: RingSpec
) -> SiteMatrixElements:
    """Every site's elements, from the layout's ladder and m tables."""
    layout = _sector_layout(spec.sites)
    ket0, ket1 = np.asarray(encoding.ket0)[None], np.asarray(encoding.ket1)[None]
    return _site_elements(ket0, ket1, _transverse_elements(ket0, ket1, layout), layout)[0]


def _encode_stack(specs: Sequence[RingSpec], layout: _SectorLayout) -> list:
    """`_doublets` of rings of one site-spin tuple from their sectors 2M >= -1
    (those below are mirrors of those above).  A stack that raises is
    encoded ring by ring, so each ring keeps the error it raises alone."""
    try:
        return _doublets(_sector_stacks(specs, layout, lowest=-1), layout)
    except RingStarError as error:
        if len(specs) == 1:
            return [error]
        return [_encode_stack([spec], layout)[0] for spec in specs]


def ring_qubit_encodings(
    specs: Sequence[RingSpec], dim_cap: int = DEFAULT_DIM_CAP
) -> list:
    """Encode many rings in one call.  Entry i is ring i's (QubitEncoding,
    SiteMatrixElements), or the RingStarError that encoding it alone raises:
    a ring over the cap, without a doublet or with a malformed Hamiltonian
    fails alone, and the caller decides which failure to report.

    Rings of one site-spin tuple are encoded as one stack (several past
    STACK_ENTRIES_MAX numbers): one build of the sectors 2M >= -1, one `eigh`
    per dense sector and one `lanczos` call per sector operator, each ring
    getting the bytes it gets alone.  The gauge reference is site 1.
    """
    outcomes = [_cap_error(spec, dim_cap) for spec in specs]
    groups: dict[tuple, list[int]] = {}
    for i, spec in enumerate(specs):
        if outcomes[i] is None:
            groups.setdefault(spec.sites, []).append(i)
    for sites, members in groups.items():
        layout = _sector_layout(sites)
        largest = max(idx.size for _, idx, _, _ in layout.sectors)
        ring = layout.dense[3] + (64 * largest if largest > DENSE_SECTOR_MAX else 0)
        per_stack = max(1, STACK_ENTRIES_MAX // ring)
        for start in range(0, len(members), per_stack):
            stack = members[start : start + per_stack]
            for i, outcome in zip(stack, _encode_stack([specs[i] for i in stack], layout)):
                outcomes[i] = outcome
    return outcomes


def ring_qubit_encoding(
    spec: RingSpec, dim_cap: int = DEFAULT_DIM_CAP
) -> tuple[QubitEncoding, SiteMatrixElements]:
    """Full pipeline for one ring: sector blocks, doublet, matrix elements;
    `ring_qubit_encodings` of one ring, raising its error.

    The gauge reference is site 1 (the first site).
    """
    return _unwrap(ring_qubit_encodings([spec], dim_cap)[0])
