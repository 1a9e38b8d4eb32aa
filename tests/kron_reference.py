"""Slow, independent references for the ring layer.

`spin_operators` forms the dense spin matrices of one site, which the library
never builds, and `site_operator` embeds a single-site matrix into the ring's
product space as an explicit Kronecker chain, the construction the library's
index tables (sector layout and -1/2 -> +1/2 ladder table) replace.  `kron_ring_hamiltonian` sums the dense ring Hamiltonian
from those chains, and `reference_encoding` takes the ground doublet from
its full eigendecomposition, the route the library's sector solver replaces.
`scatter` turns the library's sector blocks back into one dense matrix.
`direct_sector_blocks` builds the sector blocks from scratch for one spec,
the route the library's cached per-spin layout replaces, and
`every_sector_gap` takes the doublet gap from every sector 2M > 1, the route
the library's Gershgorin skip replaces.  Tests compare the library against
all of them.
"""
from __future__ import annotations

import math
from functools import reduce

import numpy as np

from ringstar.errors import GroundDoubletError
from ringstar.linalg import max_entry_norm
from ringstar.rings import _check_spin, _lowest_levels

# the library's doublet window, restated: levels within this fraction of the
# largest Hamiltonian entry count as one multiplet
CLUSTER_RTOL = 1e-8


def spin_operators(s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tau_x, tau_y, tau_z) for one spin-s site.

    tau_z is diagonal with entries s, s-1, ..., -s; the ladder elements are
    the standard sqrt(s(s+1) - m(m+1)).
    """
    s = _check_spin(s)
    dim = int(round(2 * s)) + 1
    m = s - np.arange(dim)
    raising = np.zeros((dim, dim), dtype=np.complex128)
    if dim > 1:
        src = m[1:]
        raising[np.arange(dim - 1), np.arange(1, dim)] = np.sqrt(
            s * (s + 1) - src * (src + 1)
        )
    lowering = raising.conj().T
    sx = (raising + lowering) / 2
    sy = (raising - lowering) / 2j
    sz = np.diag(m).astype(np.complex128)
    return sx, sy, sz


def site_operator(op: np.ndarray, site: int, dims: tuple[int, ...]) -> np.ndarray:
    """Embed a single-site operator (0-based site) into the product space."""
    factors = [
        op if k == site else np.eye(d, dtype=np.complex128)
        for k, d in enumerate(dims)
    ]
    return reduce(np.kron, factors)


def kron_ring_hamiltonian(spec) -> np.ndarray:
    """The ring Hamiltonian summed from Kronecker-embedded spin matrices."""
    dims = spec.site_dims
    n = spec.n_sites
    taus = [spin_operators(s) for s in spec.sites]
    h = np.zeros((spec.dim, spec.dim), dtype=np.complex128)
    for k in range(n):
        nxt = (k + 1) % n
        for axis in range(3):
            h += spec.bond_couplings[k] * (
                site_operator(taus[k][axis], k, dims)
                @ site_operator(taus[nxt][axis], nxt, dims)
            )
    for k, s in enumerate(spec.sites):
        sz = taus[k][2]
        h += spec.crystal_fields[k] * (
            site_operator(sz @ sz, k, dims) - s * (s + 1) / 3.0 * np.eye(spec.dim)
        )
    return h


def dense_block(block) -> np.ndarray:
    """A library sector block as a dense array (sector operators included)."""
    return block if isinstance(block, np.ndarray) else block.toarray()


def scatter(sectors, dim: int) -> np.ndarray:
    """Place every sector block {2M: (indices, block)} into one dense matrix."""
    h = np.zeros((dim, dim))
    for idx, block in sectors.values():
        h[np.ix_(idx, idx)] = dense_block(block)
    return h


def direct_sector_blocks(spec) -> dict:
    """{2M: (indices, block)} as build_ring_hamiltonian returns it, enumerated
    anew for this spec: the product basis, every bond's ladder entries, and
    each sector's entries scattered into a dense block, also where the
    library keeps a matrix-free sector operator."""
    dims = np.array(spec.site_dims)
    strides = np.append(np.cumprod(dims[:0:-1])[::-1], 1)
    levels = (np.arange(spec.dim)[:, None] // strides) % dims
    two_m = np.round(2 * np.array(spec.sites)).astype(int) - 2 * levels
    m = two_m / 2.0
    casimir = np.array([s * (s + 1) for s in spec.sites])
    diag = (m**2 - casimir / 3.0) @ np.array(spec.crystal_fields)
    states = np.arange(spec.dim)
    rows, cols, vals = [states], [states], [diag]
    for k, j in enumerate(spec.bond_couplings):
        q = (k + 1) % spec.n_sites
        if q == k:  # a one-site ring: tau . tau = s(s+1)
            diag += j * casimir[k]
            continue
        diag += j * m[:, k] * m[:, q]
        raise_k = casimir[k] - m[:, k] * (m[:, k] + 1)
        lower_q = casimir[q] - m[:, q] * (m[:, q] - 1)
        src = np.flatnonzero((raise_k > 0) & (lower_q > 0))
        dst = src - strides[k] + strides[q]
        amp = (j / 2) * np.sqrt(raise_k[src] * lower_q[src])
        rows += [src, dst]
        cols += [dst, src]
        vals += [amp, amp]
    rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
    keys, sector = np.unique(two_m.sum(axis=1), return_inverse=True)
    entry_sector = sector[rows]
    position = np.empty(spec.dim, dtype=np.intp)
    blocks = {}
    for i, key in enumerate(keys):
        idx = np.flatnonzero(sector == i)
        position[idx] = np.arange(idx.size)
        sel = entry_sector == i
        block = np.zeros((idx.size, idx.size))
        np.add.at(block, (position[rows[sel]], position[cols[sel]]), vals[sel])
        blocks[int(key)] = (idx, block)
    return blocks


def every_sector_gap(sectors) -> float:
    """ground_doublet's gap with the lowest level of every sector 2M > 1
    computed, by the library's own per-sector solver, so that only the
    choice of sectors differs.  Like the library it takes the -1/2 ground
    energy to be the +1/2 one (the -1/2 block is the +1/2 block mirrored).
    Raises GroundDoubletError where it must."""
    if 1 not in sectors:
        raise GroundDoubletError("integer total spin: no S_z = +-1/2 doublet")
    scale = np.array([max(max(max_entry_norm(dense_block(b)) for _, b in sectors.values()), 1.0)])
    plus = _lowest_levels(sectors[1][1][None], 2, scale)[0][0]
    above = list(plus[1:]) + [
        _lowest_levels(block[None], 1, scale)[0][0, 0]
        for key, (_, block) in sectors.items()
        if key > 1
    ]
    gap = float(min(above) - plus[0]) if above else math.inf
    if not gap > CLUSTER_RTOL * scale:
        raise GroundDoubletError(f"no S_z = +-1/2 ground doublet (gap {gap:.3e})")
    return gap


# the library's pivot tie window, restated: the first entry within this
# fraction of the largest magnitude is made real positive
PIVOT_RTOL = 1e-6


def _largest_entry_real(vec: np.ndarray) -> np.ndarray:
    mags = np.abs(vec)
    first = np.flatnonzero(mags >= (1.0 - PIVOT_RTOL) * mags.max())[0]
    return vec * (np.conj(vec[first]) / mags[first])


def reference_encoding(spec):
    """(gap, x10, z00, z11) of the ring's ground doublet from the dense route.

    Diagonalise the whole Kronecker Hamiltonian, take the levels within
    CLUSTER_RTOL of the ground level, require exactly two, rotate them to
    total-S_z eigenstates -1/2 and +1/2, and fix the phase of |1> by making
    <1|tau_{1,x}|0> real >= 0 (largest entry real positive when it vanishes,
    the first of the entries that tie within PIVOT_RTOL).
    """
    dims = spec.site_dims
    taus = [spin_operators(s) for s in spec.sites]
    h = kron_ring_hamiltonian(spec)
    sz = sum(site_operator(t[2], k, dims) for k, t in enumerate(taus))
    values, vectors = np.linalg.eigh(h)
    window = CLUSTER_RTOL * max(np.abs(h).max(), 1.0)
    cluster = np.nonzero(values - values[0] <= window)[0]
    if len(cluster) != 2:
        raise GroundDoubletError(f"ground multiplet has {len(cluster)} states")
    pair = vectors[:, cluster]
    labels, rotation = np.linalg.eigh(pair.conj().T @ sz @ pair)
    if np.abs(labels - [-0.5, 0.5]).max() > 1e-8:
        raise GroundDoubletError(f"ground doublet carries total S_z = {labels}")
    ket0, ket1 = (pair @ rotation).T
    gap = values[2] - values[cluster].mean() if values.size > 2 else math.inf
    tx = [site_operator(t[0], k, dims) for k, t in enumerate(taus)]
    tz = [site_operator(t[2], k, dims) for k, t in enumerate(taus)]
    ket0 = _largest_entry_real(ket0)
    x10 = np.vdot(ket1, tx[0] @ ket0)
    if abs(x10) > 1e-12 * max(np.abs(taus[0][0]).max(), 1.0):
        ket1 = ket1 * np.exp(1j * np.angle(x10))
    else:
        ket1 = _largest_entry_real(ket1)
    return (
        gap,
        np.array([np.vdot(ket1, t @ ket0) for t in tx]),
        np.array([np.vdot(ket0, t @ ket0) for t in tz]),
        np.array([np.vdot(ket1, t @ ket1) for t in tz]),
    )
