"""Microscopic ring layer: spin operators, ring Hamiltonians, and the ground
doublet that encodes one qubit."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringstar import rings
from ringstar.errors import DimensionCapError, GroundDoubletError, RingStarError, ValidationError
from ringstar.linalg import hermitian_eigendecompose
from ringstar.rings import (
    DENSE_SECTOR_MAX,
    QubitEncoding,
    RingSpec,
    _lowest_levels,
    _sector_layout,
    build_ring_hamiltonian,
    doublet_matrix_elements,
    ground_doublet,
    regauge,
    ring_qubit_encoding,
    ring_qubit_encodings,
    total_sz_operator,
)

from kron_reference import (
    dense_block,
    direct_sector_blocks,
    every_sector_gap,
    kron_ring_hamiltonian,
    reference_encoding,
    scatter,
    site_operator,
    spin_operators,
)


def test_spin_half_operators_are_half_paulis():
    sx, sy, sz = spin_operators(0.5)
    assert np.allclose(sx, [[0, 0.5], [0.5, 0]])
    assert np.allclose(sy, [[0, -0.5j], [0.5j, 0]])
    assert np.allclose(sz, [[0.5, 0], [0, -0.5]])


@pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.5])
def test_spin_algebra(s):
    sx, sy, sz = spin_operators(s)
    assert np.abs(sx @ sy - sy @ sx - 1j * sz).max() < 1e-13
    casimir = sx @ sx + sy @ sy + sz @ sz
    assert np.abs(casimir - s * (s + 1) * np.eye(sx.shape[0])).max() < 1e-13


def test_spin_operators_reject_bad_spin():
    with pytest.raises(ValueError):
        spin_operators(0.3)
    with pytest.raises(ValueError):
        spin_operators(-0.5)


def test_ring_spec_validation():
    with pytest.raises(ValueError):
        RingSpec(sites=(0.5, 0.5), bond_couplings=(1.0,), crystal_fields=(0.0, 0.0))
    with pytest.raises(ValueError):
        RingSpec(sites=(0.7,), bond_couplings=(1.0,), crystal_fields=(0.0,))
    # a NaN closing bond at x = 5 or an inf field at x = 3 is refused by
    # name, before any Hamiltonian is built
    for field, x, value in [("bond_couplings", 5, np.nan), ("bond_couplings", 5, -np.inf),
                            ("crystal_fields", 3, np.inf)]:
        numbers = {name: getattr(RingSpec.cr_ni(x), name) for name in ("bond_couplings", "crystal_fields")}
        numbers[field] = numbers[field][:-1] + (value,)
        with pytest.raises(ValidationError, match=f"^{field} must be finite"):
            RingSpec(RingSpec.cr_ni(x).sites, **numbers)


@pytest.mark.parametrize("spec", [
    # J = 0 at x = 5: ten +1/2 states share the ground level -1.7 (and five
    # +3/2 states, so the 2M = 3 sector alone shows it too)
    RingSpec((1.5,) * 5 + (1.0,), (0.0,) * 6, (0.3,) * 6),
    # the odd antiferromagnetic ring of eleven spins 1/2: two S = 1/2 doublets
    # share its ground level and no higher spin does, so only the +-1/2
    # sectors show it; a Lanczos recurrence from one start vector sees one
    # vector of the +1/2 ground level and can report a gap of 0.73 instead
    RingSpec((0.5,) * 11, (1.0,) * 11, (0.0,) * 11),
])
def test_degenerate_ground_level_of_a_sector_operator_is_refused(spec):
    assert build_ring_hamiltonian(spec)[1][0].size > DENSE_SECTOR_MAX
    with pytest.raises(GroundDoubletError, match="gap"):
        ring_qubit_encoding(spec)


def test_two_site_ring_counts_its_bond_twice():
    # the closing bond coincides with bond 1, so J=1 gives 2 J tau.tau
    spec = RingSpec(sites=(0.5, 0.5), bond_couplings=(1.0, 1.0), crystal_fields=(0.0, 0.0))
    values = np.linalg.eigvalsh(scatter(build_ring_hamiltonian(spec), spec.dim))
    assert np.allclose(values, [-1.5, 0.5, 0.5, 0.5], atol=1e-13)


def test_ring_hamiltonian_and_total_sz_are_real():
    spec = RingSpec.cr_ni(3)
    assert all(b.dtype == np.float64 for _, b in build_ring_hamiltonian(spec).values())
    assert total_sz_operator(spec).dtype == np.float64


def test_hamiltonian_is_hermitian_and_conserves_sz():
    spec = RingSpec.cr_ni(2)
    h = scatter(build_ring_hamiltonian(spec), spec.dim)
    assert np.abs(h - h.conj().T).max() < 1e-12
    sz = total_sz_operator(spec)
    assert np.abs(h @ sz - sz @ h).max() < 1e-10


def test_cr_ni_bond_layouts():
    literal = RingSpec.cr_ni(3, exchange=17.0, ratio=0.9)
    assert literal.sites == (1.5, 1.5, 1.5, 1.0)
    assert literal.bond_couplings == (17.0, 17.0, 17.0, 0.9 * 17.0)
    symmetric = RingSpec.cr_ni(3, exchange=17.0, ratio=0.9, symmetric_substitute_bonds=True)
    assert symmetric.bond_couplings == (17.0, 17.0, 0.9 * 17.0, 0.9 * 17.0)


def test_dimension_cap():
    with pytest.raises(DimensionCapError):
        build_ring_hamiltonian(RingSpec.cr_ni(3), dim_cap=100)


def test_dimension_cap_names_a_dimension_too_long_to_print():
    # 4**10000 * 3 has 6022 digits, past what str() of an int allows
    spec = RingSpec.cr_ni(10000)
    assert spec.dim == 4**10000 * 3
    message = r"^ring dimension 10\^6021\.1 exceeds the cap 4096$"
    with pytest.raises(DimensionCapError, match=message):
        build_ring_hamiltonian(spec)


def test_single_spin_half_trivial_encoding():
    spec = RingSpec(sites=(0.5,), bond_couplings=(0.0,), crystal_fields=(0.0,))
    enc, elems = ring_qubit_encoding(spec)
    assert enc.gap == np.inf
    assert abs(elems.x10[0] - 0.5) < 1e-14
    assert abs(elems.z00[0] + 0.5) < 1e-14
    assert abs(elems.z11[0] - 0.5) < 1e-14


def test_integer_total_spin_ring_is_a_singlet_not_a_doublet():
    # two s=3/2 plus one s=1 adds to integer spin: the antiferromagnetic
    # ground state is unique, so the qubit extraction must refuse it
    with pytest.raises(GroundDoubletError):
        ring_qubit_encoding(RingSpec.cr_ni(2))


def test_independent_reconstruction_cr3ni():
    """Build the same x=3 ring from raw Kronecker products and compare."""
    j, a, d = 17.0, 0.9, 0.3
    dims = (4, 4, 4, 3)
    ops = {4: spin_operators(1.5), 3: spin_operators(1.0)}
    total = 192

    h = np.zeros((total, total), dtype=np.complex128)
    bonds = [(0, 1, j), (1, 2, j), (2, 3, j), (3, 0, a * j)]
    for p, q, strength in bonds:
        for axis in range(3):
            h += strength * (
                site_operator(ops[dims[p]][axis], p, dims)
                @ site_operator(ops[dims[q]][axis], q, dims)
            )
    for site, dim in enumerate(dims):
        s = 1.5 if dim == 4 else 1.0
        sz = ops[dim][2]
        h += d * (site_operator(sz @ sz, site, dims) - s * (s + 1) / 3.0 * np.eye(total))

    spec = RingSpec.cr_ni(3, exchange=j, ratio=a, crystal_field=d)
    mine = scatter(build_ring_hamiltonian(spec), spec.dim)
    assert np.abs(mine - h).max() < 1e-10

    # doublet data straight from the raw matrix
    values = np.linalg.eigvalsh(h)
    enc, _ = ring_qubit_encoding(spec)
    assert abs(values[0] - values[1]) < 1e-8
    assert abs(enc.gap - (values[2] - (values[0] + values[1]) / 2.0)) < 1e-8


def test_cr3ni_ground_doublet_properties():
    enc, elems = ring_qubit_encoding(RingSpec.cr_ni(3))
    assert enc.gap > 0.0
    # frozen from an independent dense diagonalization of the same model
    assert abs(enc.gap - 24.72156756852044) < 1e-8
    # <S_z> of each ket, measured: the per-site tau_z elements sum to it
    assert abs(elems.z00.sum() + 0.5) < 1e-6 and abs(elems.z11.sum() - 0.5) < 1e-6
    assert abs(np.vdot(enc.ket0, enc.ket1)) < 1e-10
    # gauge makes the reference transverse element real and non-negative
    assert abs(elems.x10[0].imag) < 1e-12
    assert elems.x10[0].real > 0.0
    assert all(v.dtype == np.float64 for v in (enc.ket0, enc.ket1, elems.x10, elems.z00))
    # time-reversal pairing of the doublet
    assert np.abs(elems.z11 + elems.z00).max() < 1e-9
    assert np.abs(elems.z00.imag).max() < 1e-9


def test_site_mirror_only_with_symmetric_bonds():
    # reflection through the substitute site swaps sites 1 and 3; it is a
    # symmetry only when both adjacent bonds carry the same coupling
    _, literal = ring_qubit_encoding(RingSpec.cr_ni(3))
    assert abs(abs(literal.x10[0]) - abs(literal.x10[2])) > 1e-3

    _, mirrored = ring_qubit_encoding(
        RingSpec.cr_ni(3, symmetric_substitute_bonds=True)
    )
    assert abs(mirrored.x10[0] - mirrored.x10[2]) < 1e-9
    assert abs(mirrored.z00[0] - mirrored.z00[2]) < 1e-9


def test_ferromagnetic_ring_has_no_doublet():
    # all 12 sectors hold one level of the S = 11/2 multiplet, degenerate to
    # rounding: only the minimum-gap window tells this from a doublet
    spec = RingSpec.cr_ni(3, exchange=-17.0, crystal_field=0.0)
    with pytest.raises(GroundDoubletError):
        ground_doublet(build_ring_hamiltonian(spec), spec)


def test_broken_time_reversal_is_refused():
    spec = RingSpec.cr_ni(3)
    sectors = build_ring_hamiltonian(spec)
    idx, block = sectors[-1]
    sectors[-1] = (idx, block + 1e-3 * np.eye(idx.size))
    with pytest.raises(ValidationError, match="time reversal"):
        ground_doublet(sectors, spec)


def test_broken_time_reversal_is_refused_for_sector_operators():
    # x = 5: the -1/2 block is a matrix-free operator; one diagonal entry
    # moves by far less than the doublet window, and the block stays symmetric
    spec = RingSpec.cr_ni(5)
    sectors = build_ring_hamiltonian(spec)
    idx, block = sectors[-1]
    assert not isinstance(block, np.ndarray)
    values = block.values.copy()
    values[np.flatnonzero(block.places == 7 * idx.size + 7)] += 1e-12
    sectors[-1] = (idx, replace(block, values=values))
    moved = sectors[-1][1].toarray() != block.toarray()
    assert np.flatnonzero(moved).tolist() == [7 * idx.size + 7]
    with pytest.raises(ValidationError, match="time reversal"):
        ground_doublet(sectors, spec)


def test_encoding_is_deterministic_bit_for_bit():
    # x = 5 takes the Lanczos branch for its +-1/2 sectors
    for x in (3, 5):
        spec = RingSpec.cr_ni(x)
        enc1, el1 = ring_qubit_encoding(spec)
        enc2, el2 = ring_qubit_encoding(spec)
        assert np.array_equal(enc1.ket0, enc2.ket0)
        assert np.array_equal(enc1.ket1, enc2.ket1)
        assert np.array_equal(el1.x10, el2.x10)
        assert np.array_equal(el1.z00, el2.z00)


def test_matrix_elements_match_direct_sandwiches():
    spec = RingSpec.cr_ni(1)
    enc, elems = ring_qubit_encoding(spec)
    taus = [spin_operators(s) for s in spec.sites]
    for m in range(spec.n_sites):
        tx = site_operator(taus[m][0], m, spec.site_dims)
        tz = site_operator(taus[m][2], m, spec.site_dims)
        assert abs(np.vdot(enc.ket1, tx @ enc.ket0) - elems.x10[m]) < 1e-12
        assert abs(np.vdot(enc.ket0, tz @ enc.ket0) - elems.z00[m]) < 1e-12


def test_ladder_table_matches_kron_sandwiches():
    # random complex kets in the -1/2 and +1/2 sectors: x10 is not real, so
    # swapped kets (its conjugate) or a dropped conjugate both show; the
    # spin-0 sites give empty table segments, one of them the last
    rng = np.random.default_rng(3)
    for spec in (
        RingSpec.cr_ni(3),
        RingSpec((1.5, 0.0, 2.0, 0.0), (1.0,) * 4, (0.0,) * 4),
        RingSpec((0.5,), (0.0,), (0.0,)),
    ):
        dims = spec.site_dims
        sz = np.diag(sum(site_operator(spin_operators(s)[2], k, dims) for k, s in enumerate(spec.sites))).real
        kets = np.zeros((2, spec.dim), dtype=np.complex128)
        for ket, two_m in zip(kets, (-1, 1)):
            where = np.flatnonzero(2 * sz == two_m)
            ket[where] = rng.normal(size=where.size) + 1j * rng.normal(size=where.size)
        enc = QubitEncoding(ket0=kets[0], ket1=kets[1], gap=np.inf)
        x10 = doublet_matrix_elements(enc, spec).x10
        for k, s in enumerate(spec.sites):
            tau_x = spin_operators(s)[0]
            reference = np.vdot(kets[1], site_operator(tau_x, k, dims) @ kets[0])
            assert abs(x10[k] - reference) <= 1e-13 * max(abs(reference), 1.0)
        # site 1's largest |tau_x| entry, regauge's scale, is in the table
        starts, _, _, half_roots = _sector_layout(spec.sites).ladder
        largest = np.abs(spin_operators(spec.sites[0])[0]).max()
        assert half_roots[starts[0] : starts[1]].max(initial=0.0) == largest


def test_kets_outside_the_doublet_sectors_are_refused():
    spec = RingSpec.cr_ni(1)
    enc, _ = ring_qubit_encoding(spec)
    stray = np.zeros(spec.dim)
    stray[0] = 1e-9  # product state 0 has every m maximal: S_z = 2
    for bad in (replace(enc, ket0=enc.ket0 + stray), replace(enc, ket1=enc.ket1 + stray)):
        with pytest.raises(ValidationError, match="sectors"):
            doublet_matrix_elements(bad, spec)
        with pytest.raises(ValidationError, match="sectors"):
            regauge(bad, spec)
    # an integer-spin ring has no doublet sectors at all
    with pytest.raises(ValidationError, match="sectors"):
        doublet_matrix_elements(enc, RingSpec.cr_ni(2))


@st.composite
def random_rings(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    spin = st.sampled_from([0.5, 1.0, 1.5, 2.0])
    coeff = st.floats(min_value=-20.0, max_value=20.0, allow_subnormal=False)
    return RingSpec(
        sites=tuple(draw(st.lists(spin, min_size=n, max_size=n))),
        bond_couplings=tuple(draw(st.lists(coeff, min_size=n, max_size=n))),
        crystal_fields=tuple(draw(st.lists(coeff, min_size=n, max_size=n))),
    )


@settings(max_examples=40, deadline=None)
@given(random_rings(), st.integers(min_value=0, max_value=10**6))
@example(RingSpec(sites=(2.0,), bond_couplings=(-3.0,), crystal_fields=(0.7,)), 0)
@example(RingSpec((1.5, 1.0), bond_couplings=(2.0, -0.5), crystal_fields=(0.3, -1.1)), 1)
@example(RingSpec.cr_ni(3, exchange=-17.0, crystal_field=-0.3), 2)
def test_property_ring_operators_match_kron_reference(spec, seed):
    dims = spec.site_dims
    sectors = build_ring_hamiltonian(spec)
    assert all(b.dtype == np.float64 for _, b in sectors.values())
    h = scatter(sectors, spec.dim)
    reference = kron_ring_hamiltonian(spec)
    assert np.abs(h - reference).max() <= 1e-12 * np.abs(reference).max()

    sz_reference = sum(
        site_operator(spin_operators(s)[2], k, dims) for k, s in enumerate(spec.sites)
    )
    assert np.array_equal(total_sz_operator(spec), sz_reference)

    # the matrix elements are sandwiches of single-site operators, so any
    # pair of unit kets in the -1/2 and +1/2 sectors tests them (the only
    # kets an encoding holds); no ground doublet is needed
    rng = np.random.default_rng(seed)
    kets = rng.normal(size=(2, spec.dim)) + 1j * rng.normal(size=(2, spec.dim))
    kets[0, 2 * np.diag(sz_reference).real != -1] = 0.0
    kets[1, 2 * np.diag(sz_reference).real != 1] = 0.0
    if not kets.any():  # integer total spin: no such sectors, any ket is refused
        full = np.ones(spec.dim)
        enc = QubitEncoding(ket0=full, ket1=full, gap=np.inf)
        with pytest.raises(ValidationError, match="sectors"):
            doublet_matrix_elements(enc, spec)
        return
    kets /= np.linalg.norm(kets, axis=1, keepdims=True)
    enc = QubitEncoding(ket0=kets[0], ket1=kets[1], gap=np.inf)
    elems = doublet_matrix_elements(enc, spec)
    for m, s in enumerate(spec.sites):
        tx, _, tz = (site_operator(t, m, dims) for t in spin_operators(s))
        assert abs(np.vdot(kets[1], tx @ kets[0]) - elems.x10[m]) < 1e-12
        assert abs(np.vdot(kets[0], tz @ kets[0]) - elems.z00[m]) < 1e-12
        assert abs(np.vdot(kets[1], tz @ kets[1]) - elems.z11[m]) < 1e-12


@settings(max_examples=40, deadline=None)
@given(random_rings())
@example(RingSpec.cr_ni(1))
@example(RingSpec.cr_ni(2))  # integer total spin: no +-1/2 sectors
@example(RingSpec.cr_ni(3, exchange=-17.0, crystal_field=0.0))
@example(RingSpec(sites=(0.5,), bond_couplings=(0.0,), crystal_fields=(0.0,)))
@example(RingSpec((1.5, 1.0), bond_couplings=(2.0, -0.5), crystal_fields=(0.3, -1.1)))
@example(RingSpec((1.5, 0.5, 2.0), bond_couplings=(3.0, 1.0, 2.0), crystal_fields=(-9.0, 0.0, -7.0)))
@example(RingSpec((0.5, 0.5, 0.5), bond_couplings=(0.0, 1e-06, -3.0), crystal_fields=(0.0, 0.0, 0.0)))
@example(RingSpec((0.5, 1.5, 0.5), bond_couplings=(2.0, 0.0, 0.0), crystal_fields=(0.0, 3.0, 0.0)))
def test_property_sector_encoding_matches_dense_reference(spec):
    try:
        gap, x10, z00, z11 = reference_encoding(spec)
    except GroundDoubletError:
        with pytest.raises(GroundDoubletError):
            ring_qubit_encoding(spec)
        return
    enc, elems = ring_qubit_encoding(spec)
    assert enc.gap == gap or abs(enc.gap - gap) < 1e-10
    # the encoding is real and its gauge a sign: x10[0] >= 0 exactly wherever
    # |x10[0]| clears regauge's threshold
    assert all(v.dtype == np.float64 for v in (enc.ket0, enc.ket1, elems.x10, elems.z00))
    starts, _, _, half_roots = _sector_layout(spec.sites).ladder
    if abs(elems.x10[0]) > 1e-12 * max(half_roots[: starts[1]].max(initial=0.0), 1.0):
        assert elems.x10[0] >= 0.0
    # both routes perturb a doublet ket by about (rounding of H) / gap, so a
    # gap barely above the window leaves the kets, not the method, uncertain
    scale = max(max(abs(b).max() for _, b in build_ring_hamiltonian(spec).values()), 1.0)
    tol = 1e-10 + 1e-14 * scale / gap
    assert np.abs(elems.x10 - x10).max() < tol
    assert np.abs(elems.z00 - z00).max() < tol
    assert np.abs(elems.z11 - z11).max() < tol


@st.composite
def same_shape_rings(draw):
    """Two rings with one tuple of site spins and independent signed bonds
    and fields."""
    n = draw(st.integers(min_value=1, max_value=4))
    sites = tuple(draw(st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0]), min_size=n, max_size=n)))
    coeff = st.floats(min_value=-20.0, max_value=20.0, allow_subnormal=False)
    return tuple(
        RingSpec(
            sites=sites,
            bond_couplings=tuple(draw(st.lists(coeff, min_size=n, max_size=n))),
            crystal_fields=tuple(draw(st.lists(coeff, min_size=n, max_size=n))),
        )
        for _ in range(2)
    )


@settings(max_examples=40, deadline=None)
@given(same_shape_rings())
@example((RingSpec((1.0,), (-3.0,), (0.7,)), RingSpec((1.0,), (2.0,), (-0.4,))))
@example((RingSpec((0.5, 1.5), (2.0, -0.5), (0.3, -1.1)), RingSpec((0.5, 1.5), (1.0, 1.0), (0.0, 0.0))))
@example((RingSpec.cr_ni(5), RingSpec.cr_ni(5, exchange=-9.0, ratio=1.3, crystal_field=-0.8)))
def test_property_cached_layout_gives_direct_blocks_bit_for_bit(pair):
    # alternate the two specs, so a layout that kept values of one spec
    # would show in the blocks of the other
    for spec in pair + pair:
        blocks = build_ring_hamiltonian(spec)
        reference = direct_sector_blocks(spec)
        assert list(blocks) == list(reference)
        for key, (idx, block) in blocks.items():
            ref_idx, ref_block = reference[key]
            assert np.array_equal(idx, ref_idx)
            assert isinstance(block, np.ndarray) == (idx.size <= DENSE_SECTOR_MAX)
            if not isinstance(block, np.ndarray):
                # a sector operator: one entry per place, in ascending place
                assert block.values.shape == block.cols.shape
                assert (np.diff(block.places) > 0).all()
                block = block.toarray()
            assert np.array_equal(block, ref_block)
        with pytest.raises(ValueError):
            idx[0] = 0  # the cached index tables are read-only


@settings(max_examples=40, deadline=None)
@given(random_rings())
@example(RingSpec(sites=(1.5,), bond_couplings=(-3.0,), crystal_fields=(0.7,)))
@example(RingSpec(sites=(2.0,), bond_couplings=(1.0,), crystal_fields=(-0.2,)))
@example(RingSpec((1.5, 1.0), bond_couplings=(2.0, -0.5), crystal_fields=(0.3, -1.1)))
@example(RingSpec((0.5, 0.5), bond_couplings=(1.0, 1.0), crystal_fields=(0.0, 0.0)))
@example(RingSpec.cr_ni(5, exchange=-9.0, ratio=1.3, crystal_field=-0.8))
def test_property_sector_minus_m_is_the_spin_flip_of_plus_m(spec):
    # m -> -m sends product index i to dim-1-i: each -M sector is the +M
    # sector reversed, indices and block, bit for bit (ground_doublet relies
    # on it for -1/2 and refuses blocks that break it)
    sectors = build_ring_hamiltonian(spec)
    assert sorted(sectors) == sorted(-key for key in sectors)
    for key, (idx, block) in sectors.items():
        flip_idx, flip_block = sectors[-key]
        assert np.array_equal(flip_idx, (spec.dim - 1 - idx)[::-1])
        if not isinstance(block, np.ndarray):
            block, flip_block = block.toarray(), flip_block.toarray()
        assert np.array_equal(flip_block, block[::-1, ::-1])


@settings(max_examples=60, deadline=None)
@given(random_rings())
@example(RingSpec.cr_ni(3))
@example(RingSpec.cr_ni(3, exchange=-17.0, crystal_field=0.0))
@example(RingSpec.cr_ni(3, exchange=-17.0, crystal_field=-0.3))
@example(RingSpec((1.5, 0.5, 2.0), bond_couplings=(-3.0, -1.0, -2.0), crystal_fields=(0.0,) * 3))
@example(RingSpec.cr_ni(5, exchange=-11.0, ratio=-0.6, crystal_field=0.9))
def test_property_gershgorin_skip_never_moves_the_gap(spec):
    sectors = build_ring_hamiltonian(spec)
    try:
        gap = every_sector_gap(sectors)
    except GroundDoubletError:
        with pytest.raises(GroundDoubletError):
            ground_doublet(sectors, spec)
        return
    assert ground_doublet(sectors, spec).gap == gap


def assert_same_outcome(outcome, reference):
    """Two encoding outcomes are the same error or the same bytes."""
    if isinstance(reference, RingStarError):
        assert type(outcome) is type(reference) and str(outcome) == str(reference)
        return
    (enc, elems), (ref_enc, ref_elems) = outcome, reference
    assert enc.gap == ref_enc.gap
    for got, want in [(enc.ket0, ref_enc.ket0), (enc.ket1, ref_enc.ket1), (elems.x10, ref_elems.x10),
                      (elems.z00, ref_elems.z00), (elems.z11, ref_elems.z11)]:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# the ferromagnetic x = 3 ring: its S = 11/2 multiplet leaves no gap above the
# window, while rings of its shape beside it in a stack keep theirs
NO_GAP = RingSpec((1.5, 1.5, 1.5, 1.0), (-17.0,) * 4, (0.0,) * 4)


@st.composite
def ring_lists(draw):
    """Lists of x = 1, 2 and 3 rings (x = 2 has integer total spin, so no
    doublet) with random J, a and d; symmetric substitute bonds tie the
    pivot of |1>, which then takes the largest-entry gauge."""
    coeff = st.floats(min_value=-2.0, max_value=2.0, allow_subnormal=False)
    rings = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        x = draw(st.sampled_from([1, 2, 3]))
        exchange = draw(st.floats(min_value=-20.0, max_value=20.0, allow_subnormal=False))
        rings.append(RingSpec.cr_ni(x, exchange, draw(coeff), draw(coeff), draw(st.booleans())))
    return rings


@settings(max_examples=40, deadline=None)
@given(ring_lists())
@example([RingSpec.cr_ni(3), NO_GAP, RingSpec.cr_ni(3, 14.0, 1.1, 0.45), RingSpec.cr_ni(1)])
@example([RingSpec.cr_ni(3, symmetric_substitute_bonds=True), RingSpec.cr_ni(2), RingSpec.cr_ni(3)])
@example([RingSpec.cr_ni(1, -17.0, 0.9, 0.3, True), RingSpec.cr_ni(1, 17.0, -1.0, 0.0, True)])
# x = 5: one Lanczos recurrence per ring over each stacked sector operator
@example([RingSpec.cr_ni(5), RingSpec.cr_ni(3), RingSpec.cr_ni(5, 15.0, 1.1, 0.2),
          RingSpec.cr_ni(5, -9.0, 1.3, -0.8)])
def test_property_stacked_encodings_equal_one_ring_at_a_time(rings):
    outcomes = ring_qubit_encodings(rings)
    assert len(outcomes) == len(rings)
    for spec, outcome in zip(rings, outcomes):
        assert_same_outcome(outcome, ring_qubit_encodings([spec])[0])
        if spec == NO_GAP:
            assert isinstance(outcome, GroundDoubletError) and "gap" in str(outcome)


def test_a_ring_that_breaks_its_stack_keeps_its_own_error():
    # an exchange whose entries overflow fills the blocks with inf and nan:
    # the stacked solve raises, so each ring of the stack is encoded alone;
    # x = 5 rings take Lanczos on their sector operators, one ring at a time
    broken = RingSpec.cr_ni(3, exchange=1e308)
    rings = [RingSpec.cr_ni(3), broken, RingSpec.cr_ni(5), RingSpec.cr_ni(7),
             RingSpec.cr_ni(5, exchange=-9.0, ratio=1.3, crystal_field=-0.8), RingSpec.cr_ni(3, 15.0)]
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf in the broken ring's values
        outcomes = ring_qubit_encodings(rings)
        alone = [ring_qubit_encodings([spec])[0] for spec in rings]
        with pytest.raises(ValidationError, match="breaks time reversal"):
            ring_qubit_encoding(broken)
    assert isinstance(outcomes[1], ValidationError) and isinstance(outcomes[3], DimensionCapError)
    assert not isinstance(outcomes[0], RingStarError) and not isinstance(outcomes[2], RingStarError)
    for outcome, reference in zip(outcomes, alone):
        assert_same_outcome(outcome, reference)


def test_rings_past_the_stack_bound_take_several_stacks(monkeypatch):
    # STACK_ENTRIES_MAX bounds the dense blocks held at once: with room for
    # two x = 3 rings, five rings take three builds and keep their bytes
    specs = [RingSpec.cr_ni(3, 14.0 + k) for k in range(5)]
    whole = ring_qubit_encodings(specs)
    builds, build = [], rings._sector_stacks

    def counting(stack, layout, lowest):
        builds.append(len(stack))
        return build(stack, layout, lowest)

    monkeypatch.setattr(rings, "_sector_stacks", counting)
    monkeypatch.setattr(rings, "STACK_ENTRIES_MAX", 2 * _sector_layout(specs[0].sites).dense[3])
    for outcome, reference in zip(ring_qubit_encodings(specs), whole):
        assert_same_outcome(outcome, reference)
    assert builds == [2, 2, 1]


def test_default_x3_encoding_diagonalises_two_sectors(monkeypatch):
    # 2M = +1 and 3: -1 is the spin flip of +1, and the Gershgorin floors of
    # 2M = 5, 7, 9 and 11 lie above the 2M = 3 level, so they are skipped
    sizes = []

    def counting(matrix):
        sizes.append(matrix.shape[-3:])  # a lone ring is a stack of one
        return hermitian_eigendecompose(matrix)

    monkeypatch.setattr(rings, "hermitian_eigendecompose", counting)
    enc, _ = ring_qubit_encoding(RingSpec.cr_ni(3))
    assert sizes == [(1, 34, 34), (1, 28, 28)]
    assert abs(enc.gap - 24.72156756852044) < 1e-8


def test_regauge_breaks_magnitude_ties_by_first_index():
    # the two largest entries tie up to rounding; whichever of them rounds
    # larger, the first is the pivot, so the gauge does not follow the solver
    tied = np.array([0.0, 1.0, 0.0, -1.0]) / np.sqrt(2.0)
    for wobble in (1.0 - 4e-16, 1.0, 1.0 + 4e-16, 1.0 + 1e-9):
        ket = tied * [1.0, 1.0, 1.0, wobble]
        enc = QubitEncoding(ket0=ket, ket1=-1j * ket, gap=1.0)
        fixed = regauge(enc)
        assert fixed.ket0[1] == fixed.ket1[1] == tied[1]
        assert fixed.ket0[3] < 0.0 and fixed.ket1[3] < 0.0
    # outside the tie window the larger entry is the pivot
    clear = tied * [1.0, 1.0, 1.0, 1.0 + 1e-3]
    assert regauge(QubitEncoding(clear, clear, 1.0)).ket0[3] > 0.0


def test_lanczos_branch_matches_dense_eigh_on_x5_blocks():
    spec = RingSpec.cr_ni(5)
    sectors = build_ring_hamiltonian(spec)
    large = [two_m for two_m, (idx, _) in sectors.items() if idx.size > DENSE_SECTOR_MAX]
    assert {1, -1, 3} <= set(large)
    scale = max(abs(dense_block(b)).max() for _, b in sectors.values())
    for two_m in large:
        block = sectors[two_m][1]
        assert not isinstance(block, np.ndarray)
        dense = block.toarray()
        assert np.array_equal(dense, dense.T)
        values, vectors = (a[0] for a in _lowest_levels(block[None], 2, np.array([scale])))
        exact, exact_vectors = np.linalg.eigh(dense)
        assert np.abs(values - exact[:2]).max() < 1e-10 * scale
        # each Lanczos vector is the dense one up to sign (no degeneracy here)
        assert exact[1] - exact[0] > 1e-3 * scale
        overlaps = np.abs(exact_vectors[:, :2].T @ vectors)
        assert np.abs(np.diag(overlaps) - 1.0).max() < 1e-10
