"""Full-space cross-checks: sector closure, block extraction, three-way
agreement between closed forms, effective propagation, and genuine qubits."""

from functools import cache, reduce

import numpy as np
import pytest
import scipy.linalg
from scipy import sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ringstar.oracle
from ringstar.errors import DimensionCapError, ValidationError
from ringstar.oracle import (
    QUBIT_CAP,
    CheckResult,
    FullSpaceHamiltonian,
    cross_validate,
    embed_in_full_space,
    full_space_hamiltonian,
    krylov_project,
    project_to_subspace,
    single_excitation_indices,
)
from ringstar.star import StarNetwork, build_effective_hamiltonian, uniform_star

_OPS = {  # |1><0|, |0><1| and S^z of either convention, by name
    "up": np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.complex128),
    "down": np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128),
    "halfspin": np.diag([-0.5, 0.5]).astype(np.complex128),
    "pauli": np.diag([-1.0, 1.0]).astype(np.complex128),
}


@cache
def _pair_operator(op_site: str, site: int, op_center: str, n_sites: int):
    """1 x .. x op_site (qubit site + 1) x .. x 1 x op_center, a sparse Kronecker
    chain (read-only: each is shared by every network of its size)."""
    before, after = sparse.identity(2**site), sparse.identity(2 ** (n_sites - 1 - site))
    chain = sparse.kron(sparse.kron(before, _OPS[op_site], "coo"), after, "coo")
    return sparse.kron(chain, _OPS[op_center], "csr")


def reference_hamiltonian(network, z_convention="halfspin"):
    """Star Hamiltonian summed from Kronecker products, site by site (sparse CSR)."""
    n = network.n_sites
    h = sparse.csr_matrix((2 ** (n + 1), 2 ** (n + 1)), dtype=np.complex128)
    for i in range(n):
        flip = _pair_operator("up", i, "down", n) + _pair_operator("down", i, "up", n)
        zz = _pair_operator(z_convention, i, z_convention, n)
        h = h + (network.gammas[i] / 2.0) * (flip + (1.0 + network.deltas[i]) * zz)
    return h


SUBSPACE_BLOCK_TOL = 1e-10


def subspace_block(h_full, n_sites: int) -> np.ndarray:
    """Restrict a full-space Hamiltonian (dense, or the library's matrix-free
    operator) to the single-excitation basis; any coupling from that basis to
    the rest of the space above the tolerance is an error."""
    if isinstance(h_full, FullSpaceHamiltonian):
        h_full = h_full.toarray()
    h = np.asarray(h_full, dtype=np.complex128)
    dim = 2 ** (n_sites + 1)
    if h.shape != (dim, dim):
        raise ValidationError(f"full Hamiltonian must be {dim} x {dim} for {n_sites} sites")
    idx = single_excitation_indices(n_sites)
    rest = np.setdiff1d(np.arange(dim), idx)
    worst = float(np.abs(h[np.ix_(idx, rest)]).max(initial=0.0))
    if worst > SUBSPACE_BLOCK_TOL * max(float(np.abs(h).max()), 1.0):
        raise ValidationError(f"single-excitation sector is not closed: coupling {worst:.3e}")
    return h[np.ix_(idx, idx)]


def with_extra_term(h, partners, hops) -> FullSpaceHamiltonian:
    """The operator h plus one more term: row k couples to partners[k] with weight hops[k]."""
    return FullSpaceHamiltonian(
        h.diagonal, np.vstack([h.partners, partners]), np.vstack([h.hops, hops])
    )


def number_operator(n_qubits: int) -> np.ndarray:
    up = np.diag([0.0, 1.0])
    total = np.zeros((2**n_qubits, 2**n_qubits))
    for q in range(n_qubits):
        factors = [np.eye(2)] * n_qubits
        factors[q] = up
        total += reduce(np.kron, factors)
    return total


def test_single_excitation_indices():
    assert single_excitation_indices(1) == [2, 1]
    assert single_excitation_indices(3) == [8, 4, 2, 1]
    # indices are distinct powers of two: one excited qubit each
    idx = single_excitation_indices(6)
    assert len(set(idx)) == 7
    assert all(bin(i).count("1") == 1 for i in idx)


def test_one_site_block_by_hand():
    net = uniform_star(1, 1.0)
    h = full_space_hamiltonian(net)
    block = subspace_block(h, 1)
    assert np.abs(block - np.array([[0.0, 0.5], [0.5, 0.0]])).max() < 1e-15


def test_excitation_number_is_conserved():
    net = StarNetwork(gammas=np.array([1.0, -0.7, 2.0]), deltas=np.array([0.3, -0.2, 0.9]))
    for convention in ("halfspin", "pauli"):
        h = full_space_hamiltonian(net, convention).toarray()
        assert np.abs(h - h.conj().T).max() < 1e-15
        num = number_operator(4)
        assert np.abs(h @ num - num @ h).max() < 1e-12


def test_block_equals_effective_model_when_transverse():
    net = StarNetwork(
        gammas=np.array([1.0, 0.0, 2.0]), deltas=np.array([-1.0, 0.3, -1.0])
    )
    for convention in ("halfspin", "pauli"):
        block = subspace_block(full_space_hamiltonian(net, convention), 3)
        assert np.abs(block - build_effective_hamiltonian(net)).max() < 1e-14


def test_convention_diagonal_scaling():
    # under a common nonzero product C the single-excitation diagonal of the
    # half-spin qubits is half the effective model's, and the Pauli qubits'
    # is double; the transverse entries agree in all three
    g = np.array([1.0, 2.0, 0.5])
    c = 0.8
    net = StarNetwork(gammas=g, deltas=c / g - 1.0)
    h_eff = build_effective_hamiltonian(net)
    b_half = subspace_block(full_space_hamiltonian(net, "halfspin"), 3)
    b_pauli = subspace_block(full_space_hamiltonian(net, "pauli"), 3)
    off = ~np.eye(4, dtype=bool)
    assert np.abs((b_half - h_eff)[off]).max() < 1e-13
    assert np.abs((b_pauli - h_eff)[off]).max() < 1e-13
    d_eff = np.diag(h_eff)
    assert np.abs(np.diag(b_half).real - d_eff / 2.0).max() < 1e-13
    assert np.abs(np.diag(b_pauli).real - 2.0 * d_eff).max() < 1e-13


def test_embed_project_roundtrip():
    rng = np.random.default_rng(11)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    full = embed_in_full_space(amps, 3)
    assert full.size == 16
    back, leakage = project_to_subspace(full, 3)
    assert np.array_equal(back, amps)
    assert leakage == 0.0


def test_projection_reports_leakage():
    full = np.zeros(16, dtype=complex)
    full[single_excitation_indices(3)] = 0.5
    full[0] = 0.5  # vacuum population outside the sector
    amps, leakage = project_to_subspace(full, 3)
    assert abs(leakage - 0.25) < 1e-15
    assert np.allclose(amps, 0.5)
    with pytest.raises(ValidationError):
        project_to_subspace(np.zeros(8), 3)


def test_subspace_block_rejects_open_sector():
    h = np.zeros((4, 4), dtype=complex)
    h[2, 3] = h[3, 2] = 1.0  # couples a sector state to |11>
    with pytest.raises(ValidationError):
        subspace_block(h, 1)
    with pytest.raises(ValidationError):
        subspace_block(np.zeros((3, 3)), 1)


def test_cross_validate_transverse_network():
    net = uniform_star(3, 1.0)
    start = np.zeros(4, dtype=complex)
    start[3] = 1.0
    checks = cross_validate(net, start, [0.0, 0.7, 2.9])
    names = [c.name for c in checks]
    assert names == [
        "closed_form_vs_spectral",
        "subspace_vs_fullspace",
        "excitation_leakage",
    ]
    for check in checks:
        assert check.threshold is not None
        assert check.passed is True
    assert all(c.passed is not False for c in checks)


def test_cross_validate_zero_coupling_site():
    net = StarNetwork(
        gammas=np.array([1.0, 0.0, 2.0]), deltas=np.array([-1.0, 0.3, -1.0])
    )
    start = np.zeros(4, dtype=complex)
    start[0] = 1.0
    checks = cross_validate(net, start, np.linspace(0.0, 3.0, 7))
    assert all(c.passed is not False for c in checks)
    assert all(c.passed is True for c in checks)


def test_cross_validate_nonzero_constraint_reports_without_asserting():
    g = np.array([1.0, 2.0])
    net = StarNetwork(gammas=g, deltas=1.0 / g - 1.0)  # C = 1
    start = np.zeros(3, dtype=complex)
    start[0] = 1.0
    for convention in ("halfspin", "pauli"):
        checks = cross_validate(net, start, [1.3], z_convention=convention)
        by_name = {c.name: c for c in checks}
        assert by_name["closed_form_vs_spectral"].passed is True
        full_check = by_name["subspace_vs_fullspace"]
        assert full_check.threshold is None
        assert full_check.passed is None
        assert full_check.max_deviation > 1e-3  # genuinely different dynamics
        assert by_name["excitation_leakage"].passed is True
        assert all(c.passed is not False for c in checks)  # unasserted rows do not fail the report


def test_cross_validate_skips_closed_form_without_constraint():
    net = StarNetwork(gammas=np.array([1.0, 1.0]), deltas=np.array([0.0, -0.5]))
    start = np.zeros(3, dtype=complex)
    start[2] = 1.0
    checks = cross_validate(net, start, [0.5])
    names = [c.name for c in checks]
    assert "closed_form_vs_spectral" not in names
    assert len(names) == 2


def test_check_result_semantics():
    assert CheckResult("x", 1e-12, 1e-9).passed is True
    assert CheckResult("x", 1e-6, 1e-9).passed is False
    assert CheckResult("x", 1e-6, None).passed is None


def test_qubit_cap():
    with pytest.raises(DimensionCapError):
        full_space_hamiltonian(uniform_star(QUBIT_CAP, 1.0))
    with pytest.raises(ValidationError):
        full_space_hamiltonian(uniform_star(2, 1.0), "spinhalf")


def _random_couplings(rng, n, regime, decoupled):
    g = rng.uniform(0.2, 2.0, n) * rng.choice([-1.0, 1.0], n)
    if decoupled:
        g[rng.integers(n)] = 0.0
    if regime == "transverse":
        d = np.full(n, -1.0)
    elif regime == "constrained":
        # decoupled sites keep Delta = -1; the others share one product C
        d = rng.uniform(-2.0, 2.0) / np.where(g == 0.0, np.inf, g) - 1.0
    else:
        d = rng.uniform(-2.0, 1.0, n)
    return StarNetwork(gammas=g, deltas=d)


def test_sparse_hamiltonian_equals_kron_reference():
    rng = np.random.default_rng(5)
    for n in range(1, 10):  # 9: the largest star of the benchmark's oracle stream
        for regime in ("transverse", "constrained", "free"):
            net = _random_couplings(rng, n, regime, decoupled=n > 1)
            # one site with gamma = 0 but Delta != -1 contributes nothing either
            g, d = net.gammas.copy(), net.deltas.copy()
            g[0], d[0] = 0.0, 0.4
            for network in (net, StarNetwork(gammas=g, deltas=d)):
                for convention in ("halfspin", "pauli"):
                    h = full_space_hamiltonian(network, convention)
                    assert isinstance(h, FullSpaceHamiltonian)
                    assert h.shape == (2 ** (n + 1),) * 2
                    assert h.partners.shape == h.hops.shape == (n, 2 ** (n + 1))
                    reference = reference_hamiltonian(network, convention)
                    assert np.array_equal(h.toarray(), reference.toarray())
                    row_sum = abs(reference).sum(axis=1).max()
                    assert abs(h.norm_inf() - row_sum) <= 1e-15 * (n + 1) * row_sum


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=7),
    regime=st.sampled_from(["transverse", "constrained", "free"]),
    convention=st.sampled_from(["halfspin", "pauli"]),
    decoupled=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(n=7, regime="free", convention="pauli", decoupled=True, seed=0)
def test_property_matvec_matches_kron_reference(n, regime, convention, decoupled, seed):
    rng = np.random.default_rng(seed)
    net = _random_couplings(rng, n, regime, decoupled)
    v = rng.normal(size=2 ** (n + 1)) + 1j * rng.normal(size=2 ** (n + 1))
    h = full_space_hamiltonian(net, convention)
    reference = reference_hamiltonian(net, convention)
    # each row sums at most n + 1 products, so rounding stays far below this
    bound = 1e-13 * abs(reference).sum(axis=1).max() * np.abs(v).max()
    assert np.abs(h @ v - reference @ v).max() <= bound


def test_subspace_block_accepts_sparse():
    net = StarNetwork(
        gammas=np.array([1.0, 0.0, -0.6]), deltas=np.array([0.2, 0.3, 1.1])
    )
    h = full_space_hamiltonian(net, "pauli")
    assert np.array_equal(subspace_block(h, 3), subspace_block(h.toarray(), 3))
    swap = np.arange(16)
    swap[[0, 8]] = [8, 0]
    weights = np.zeros(16)
    weights[[0, 8]] = 1e-3
    broken = with_extra_term(h, swap, weights)  # couples |psi_1> (index 8) to |0000>
    assert np.abs(broken.toarray() - h.toarray()).max() == 1e-3
    with pytest.raises(ValidationError):
        subspace_block(broken, 3)


def _expm_projection(h_dense, full0, t, n):
    return project_to_subspace(scipy.linalg.expm(-1j * t * h_dense) @ full0, n)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=7),
    regime=st.sampled_from(["transverse", "constrained", "free"]),
    convention=st.sampled_from(["halfspin", "pauli"]),
    uniform_grid=st.booleans(),
    decoupled=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(n=7, regime="free", convention="pauli", uniform_grid=True,
         decoupled=True, seed=0)
@example(n=7, regime="constrained", convention="halfspin", uniform_grid=False,
         decoupled=False, seed=1)
@example(n=1, regime="transverse", convention="halfspin", uniform_grid=False,
         decoupled=True, seed=2)
def test_property_krylov_projection_matches_expm(
    n, regime, convention, uniform_grid, decoupled, seed
):
    rng = np.random.default_rng(seed)
    net = _random_couplings(rng, n, regime, decoupled)
    amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    amps /= np.linalg.norm(amps)
    size = int(rng.integers(1, 6))
    if uniform_grid:
        times = np.linspace(0.0, rng.uniform(0.5, 10.0), size)
    else:
        times = np.sort(rng.uniform(-8.0, 8.0, size))
    h = full_space_hamiltonian(net, convention)
    full0 = embed_in_full_space(amps, n)
    projected, leakage = krylov_project(h, full0, times, n)
    assert projected.shape == (size, n + 1) and leakage.shape == (size,)
    dense = h.toarray()
    for t, row, leak in zip(times, projected, leakage):
        ref_amps, ref_leak = _expm_projection(dense, full0, t, n)
        assert np.abs(row - ref_amps).max() < 1e-10
        assert abs(leak - ref_leak) < 1e-10
        assert leak <= 1e-12


def test_number_breaking_term_shows_as_leakage():
    net = StarNetwork(
        gammas=np.array([1.0, -0.5, 0.8]), deltas=np.array([-1.0, 0.2, -1.0])
    )
    h = full_space_hamiltonian(net)
    k = np.arange(16)
    broken = with_extra_term(h, k ^ 1, np.full(16, 0.3))  # 0.3 sigma_x on the center
    sigma_x_center = np.kron(np.eye(8), [[0.0, 1.0], [1.0, 0.0]])  # center is bit 0
    assert np.array_equal(broken.toarray(), h.toarray() + 0.3 * sigma_x_center)
    full0 = embed_in_full_space(np.array([0.6, 0.0, 0.8j, 0.0]), 3)
    times = np.linspace(0.0, 4.0, 9)
    projected, leakage = krylov_project(broken, full0, times, 3)
    dense = broken.toarray()
    for t, row, leak in zip(times, projected, leakage):
        ref_amps, ref_leak = _expm_projection(dense, full0, t, 3)
        assert np.abs(row - ref_amps).max() < 1e-10
        assert abs(leak - ref_leak) < 1e-10
    assert leakage.max() > 1e-12
    assert krylov_project(h, full0, times, 3)[1].max() <= 1e-12


def test_cross_validate_refuses_before_propagating(monkeypatch):
    def no_propagation(*args, **kwargs):
        raise AssertionError("effective propagation ran before the request checks")

    monkeypatch.setattr(ringstar.oracle, "propagate", no_propagation)
    big = uniform_star(QUBIT_CAP, 1.0)
    start = np.zeros(big.dim, dtype=complex)
    start[0] = 1.0
    with pytest.raises(DimensionCapError):
        cross_validate(big, start, [0.0, 1.0])
    small = uniform_star(2, 1.0)
    with pytest.raises(ValidationError):
        cross_validate(small, np.array([1.0, 0.0, 0.0]), [1.0], z_convention="spin")
