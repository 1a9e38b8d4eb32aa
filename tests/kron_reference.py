"""Slow, independent references for the ring layer.

`site_operator` embeds a single-site matrix into the ring's product space as
an explicit Kronecker chain, the construction the library's tensor-axis
primitive replaces.  `kron_ring_hamiltonian` sums the dense ring Hamiltonian
from those chains, and `reference_encoding` takes the ground doublet from
its full eigendecomposition, the route the library's sector solver replaces.
`scatter` turns the library's sector blocks back into one dense matrix.
Tests compare the library against all of them.
"""
from __future__ import annotations

import math
from functools import reduce

import numpy as np

from ringstar.errors import GroundDoubletError
from ringstar.rings import spin_operators

# the library's doublet window, restated: levels within this fraction of the
# largest Hamiltonian entry count as one multiplet
CLUSTER_RTOL = 1e-8


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


def scatter(sectors, dim: int) -> np.ndarray:
    """Place every sector block {2M: (indices, block)} into one dense matrix."""
    h = np.zeros((dim, dim))
    for idx, block in sectors.values():
        dense = block if isinstance(block, np.ndarray) else block.toarray()
        h[np.ix_(idx, idx)] = dense
    return h


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
