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

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionCapError, GroundDoubletError, ValidationError
from .linalg import hermitian_eigendecompose, max_entry_norm

DEFAULT_DIM_CAP = 4096

# energy window (relative to the max-entry norm of H) within which eigenstates
# count as members of the ground multiplet
GROUND_CLUSTER_RTOL = 1e-8
SZ_LABEL_TOL = 1e-8


def _check_spin(s: float) -> float:
    two_s = round(2 * float(s))
    if abs(2 * float(s) - two_s) > 1e-9 or two_s < 0:
        raise ValidationError(f"spin must be a non-negative half-integer, got {s}")
    return two_s / 2.0


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
        return int(np.prod(self.site_dims))


def _real_factors(s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tau_x, i tau_y, tau_z) of one site: all three are real matrices, and
    tau_y (x) tau_y = -(i tau_y) (x) (i tau_y)."""
    sx, sy, sz = spin_operators(s)
    return sx.real, (1j * sy).real, sz.real


def _on_site(
    op: np.ndarray, site: int, states: np.ndarray, dims: tuple[int, ...]
) -> np.ndarray:
    """Apply a single-site matrix (0-based site) to a ket (dim,) or to the
    columns of a (dim, m) array, along that site's axis of the product space."""
    tensor = states.reshape(dims + states.shape[1:])
    moved = np.moveaxis(np.tensordot(op, tensor, axes=(1, site)), 0, site)
    return moved.reshape(states.shape)


def build_ring_hamiltonian(
    spec: RingSpec, dim_cap: int = DEFAULT_DIM_CAP
) -> np.ndarray:
    """Dense real Hamiltonian of one ring in the tensor-product basis."""
    if spec.dim > dim_cap:
        raise DimensionCapError(
            f"ring dimension {spec.dim} exceeds the cap {dim_cap}"
        )
    dims = spec.site_dims
    n = spec.n_sites
    ops = [_real_factors(s) for s in spec.sites]
    eye = np.eye(spec.dim)
    h = np.zeros((spec.dim, spec.dim))
    for k in range(n):
        nxt = (k + 1) % n
        j = spec.bond_couplings[k]
        for axis, sign in enumerate((1.0, -1.0, 1.0)):
            right = _on_site(ops[nxt][axis], nxt, eye, dims)
            h += (sign * j) * _on_site(ops[k][axis], k, right, dims)
    for k in range(n):
        d = spec.crystal_fields[k]
        if d == 0.0:
            continue
        s = spec.sites[k]
        sz = ops[k][2]
        local = sz @ sz - (s * (s + 1) / 3.0) * np.eye(dims[k])
        h += d * _on_site(local, k, eye, dims)
    return h


def total_sz_operator(spec: RingSpec) -> np.ndarray:
    dims = spec.site_dims
    ones = np.ones(spec.dim)
    diagonal = np.zeros(spec.dim)
    for k, s in enumerate(spec.sites):
        diagonal += _on_site(_real_factors(s)[2], k, ones, dims)
    return np.diag(diagonal)


@dataclass(frozen=True)
class QubitEncoding:
    """Ground doublet of one ring: |0> has total S_z = -1/2, |1> has +1/2.

    gap is the energy from the doublet to the next level (inf when the ring's
    spectrum has nothing above the doublet).  The relative phase of |1> is
    gauge-fixed so the transverse matrix element at the reference site is real
    and non-negative.
    """

    ket0: np.ndarray
    ket1: np.ndarray
    gap: float
    sz0: float
    sz1: float


def _canonical_phase(vec: np.ndarray) -> np.ndarray:
    j = int(np.argmax(np.abs(vec)))
    pivot = vec[j]
    if abs(pivot) == 0.0:
        return vec
    return vec * (pivot.conj() / abs(pivot))


def regauge(
    encoding: QubitEncoding, gauge_operator: np.ndarray | None = None
) -> QubitEncoding:
    """Reapply the deterministic phase convention to a doublet.

    Strips whatever overall phases |0> and |1> carry (an eigensolver is free
    to pick any): |0> is rotated so its largest-magnitude entry is real
    positive, |1> so that <1|gauge_operator|0> is real non-negative.  Without
    a gauge operator, or when that matrix element vanishes, |1> falls back to
    the same largest-entry convention.
    """
    ket0 = _canonical_phase(np.asarray(encoding.ket0, dtype=np.complex128))
    ket1 = np.asarray(encoding.ket1, dtype=np.complex128)
    gauged = False
    if gauge_operator is not None:
        g = np.asarray(gauge_operator)
        x10 = np.vdot(ket1, g @ ket0)
        if abs(x10) > 1e-12 * max(max_entry_norm(g), 1.0):
            ket1 = ket1 * np.exp(1j * np.angle(x10))
            gauged = True
    if not gauged:
        ket1 = _canonical_phase(ket1)
    return QubitEncoding(
        ket0=ket0,
        ket1=ket1,
        gap=encoding.gap,
        sz0=encoding.sz0,
        sz1=encoding.sz1,
    )


def ground_doublet(
    hamiltonian: np.ndarray,
    sz_total: np.ndarray,
    gauge_operator: np.ndarray | None = None,
) -> QubitEncoding:
    """Extract the qubit encoding from a ring Hamiltonian.

    The ground multiplet must consist of exactly two states, with total S_z
    eigenvalues -1/2 and +1/2; anything else (e.g. the high-spin multiplet
    of a ferromagnetic ring) is an error.  When `gauge_operator` is given,
    the phase of |1> is fixed by making <1|gauge_operator|0> real >= 0.
    """
    h = np.asarray(hamiltonian)
    sz = np.asarray(sz_total)
    if h.shape != sz.shape:
        raise ValidationError("hamiltonian and sz_total dimensions differ")
    scale = max(max_entry_norm(h), 1.0)
    comm = max_entry_norm(h @ sz - sz @ h)
    if comm > 1e-9 * scale:
        raise ValidationError(
            f"hamiltonian does not commute with total S_z (residual {comm:.3e})"
        )
    eig = hermitian_eigendecompose(h)
    window = GROUND_CLUSTER_RTOL * scale
    cluster = np.nonzero(eig.values - eig.values[0] <= window)[0]
    if len(cluster) != 2:
        raise GroundDoubletError(
            f"ground multiplet has {len(cluster)} states, expected a doublet"
        )
    block = eig.vectors[:, cluster]
    sz_block = block.conj().T @ sz @ block
    sz_vals, rot = np.linalg.eigh((sz_block + sz_block.conj().T) / 2)
    pair = block @ rot
    if abs(sz_vals[0] + 0.5) > SZ_LABEL_TOL or abs(sz_vals[1] - 0.5) > SZ_LABEL_TOL:
        raise GroundDoubletError(
            f"ground doublet carries total S_z = {sz_vals}, expected -1/2 and +1/2"
        )
    outside = eig.values[len(cluster):]
    doublet_energy = float(eig.values[cluster].mean())
    gap = float(outside[0] - doublet_energy) if outside.size else math.inf
    raw = QubitEncoding(
        ket0=pair[:, 0],
        ket1=pair[:, 1],
        gap=gap,
        sz0=float(sz_vals[0]),
        sz1=float(sz_vals[1]),
    )
    return regauge(raw, gauge_operator)


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
    dims = spec.site_dims
    n = spec.n_sites
    x10 = np.zeros(n, dtype=np.complex128)
    z00 = np.zeros(n, dtype=np.complex128)
    z11 = np.zeros(n, dtype=np.complex128)
    kets = np.stack([encoding.ket0, encoding.ket1], axis=1)
    for m in range(n):
        sx, _, sz = _real_factors(spec.sites[m])
        x10[m] = np.vdot(encoding.ket1, _on_site(sx, m, encoding.ket0, dims))
        z_kets = _on_site(sz, m, kets, dims)
        z00[m] = np.vdot(encoding.ket0, z_kets[:, 0])
        z11[m] = np.vdot(encoding.ket1, z_kets[:, 1])
    return SiteMatrixElements(x10=x10, z00=z00, z11=z11)


def ring_qubit_encoding(
    spec: RingSpec, dim_cap: int = DEFAULT_DIM_CAP
) -> tuple[QubitEncoding, SiteMatrixElements]:
    """Full pipeline for one ring: Hamiltonian, doublet, matrix elements.

    The gauge reference is site 1 (the first site).
    """
    h = build_ring_hamiltonian(spec, dim_cap=dim_cap)
    sz = total_sz_operator(spec)
    tau_x = _real_factors(spec.sites[0])[0]
    gauge = _on_site(tau_x, 0, np.eye(spec.dim), spec.site_dims)
    enc = ground_doublet(h, sz, gauge_operator=gauge)
    return enc, doublet_matrix_elements(enc, spec)
