"""Effective star Hamiltonian, closed-form spectrum, subspace propagation."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringstar.errors import ConstraintError, ValidationError
from ringstar.star import (
    StarNetwork,
    analytic_eigensystem,
    as_subspace_state,
    basis_state,
    build_effective_hamiltonian,
    closed_form_from_center,
    closed_form_from_site,
    evolve_subspace,
    phase_angles,
    propagate,
    uniform_star,
)


def constrained_network(gammas, constraint):
    """Deltas chosen so every gamma_i (1 + Delta_i) equals `constraint`."""
    g = np.asarray(gammas, dtype=np.float64)
    return StarNetwork(gammas=g, deltas=constraint / g - 1.0)


def expm_evolve(network, state, time):
    # independent propagator; the library never calls scipy.linalg.expm
    h = build_effective_hamiltonian(network)
    return scipy.linalg.expm(-1j * h * time) @ np.asarray(state, dtype=complex)


def test_hamiltonian_entries_by_hand():
    net = StarNetwork(gammas=np.array([1.0, 2.0, 3.0]), deltas=np.array([0.2, -0.5, 0.1]))
    h = build_effective_hamiltonian(net)
    p = [1.0 * 1.2, 2.0 * 0.5, 3.0 * 1.1]
    assert h.shape == (4, 4)
    for i in range(3):
        assert abs(h[i, i] - p[i] / 4.0) < 1e-15
        assert abs(h[i, 3] - net.gammas[i] / 2.0) < 1e-15
        assert abs(h[3, i] - net.gammas[i] / 2.0) < 1e-15
    assert abs(h[3, 3] + sum(p) / 4.0) < 1e-15
    assert np.array_equal(h, h.T)
    # off-diagonal outer-outer block is exactly zero
    assert h[0, 1] == 0.0 and h[1, 2] == 0.0 and h[0, 2] == 0.0


def test_three_site_hamiltonian_is_traceless():
    # trace = sum_i p_i (N-3)/4, which vanishes identically at N = 3
    rng = np.random.default_rng(0)
    for _ in range(5):
        net = StarNetwork(gammas=rng.uniform(-4, 4, 3), deltas=rng.uniform(-2, 2, 3))
        assert abs(np.trace(build_effective_hamiltonian(net))) < 1e-12


def test_constraint_detection():
    net = constrained_network([1.0, 2.0, 4.0], 0.8)
    assert net.constraint_holds
    assert abs(net.constraint_value - 0.8) < 1e-14
    off = StarNetwork(gammas=np.array([1.0, 1.0]), deltas=np.array([0.0, -0.5]))
    assert not off.constraint_holds


def test_network_validation():
    with pytest.raises(ValidationError):
        StarNetwork(gammas=np.array([1.0, 2.0]), deltas=np.array([0.0]))
    with pytest.raises(ValidationError):
        StarNetwork(gammas=np.array([]), deltas=np.array([]))
    with pytest.raises(ValidationError):
        StarNetwork(gammas=np.array([np.inf]), deltas=np.array([0.0]))
    with pytest.raises(ValidationError):
        uniform_star(0, 1.0)


def test_network_arrays_are_readonly():
    net = uniform_star(3, 1.0)
    with pytest.raises(ValueError):
        net.gammas[0] = 2.0


def test_uniform_star_spectrum_by_hand():
    # gamma = 1, Delta = 0 on three sites: C = 1, Omega = sqrt(3),
    # discriminant sqrt(12 + 4) = 4, so the spectrum is {-5/4, 1/4, 1/4, 3/4}
    net = uniform_star(3, 1.0, delta=0.0)
    es = analytic_eigensystem(net)
    assert abs(es.value_degenerate - 0.25) < 1e-14
    assert np.allclose(es.value_pair, [-1.25, 0.75], atol=1e-14)
    assert sorted(np.round(es.all_values(), 12)) == [-1.25, 0.25, 0.25, 0.75]


def test_analytic_matches_numeric_eigensolver():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 5, 9):
        g = rng.uniform(0.3, 3.0, n) * rng.choice([-1.0, 1.0], n)
        net = constrained_network(g, 1.3)
        h = build_effective_hamiltonian(net)
        es = analytic_eigensystem(net)
        assert np.allclose(np.sort(es.all_values()), np.linalg.eigvalsh(h), atol=1e-10)
        v = es.all_vectors()
        lam = es.all_values()
        scale = max(1.0, float(np.abs(h).max()))
        assert np.abs(h @ v - v * lam).max() < 1e-9 * scale
        assert np.abs(v.T @ v - np.eye(n + 1)).max() < 1e-10


def test_degenerate_subspace_projector_matches_numeric():
    net = constrained_network([1.0, -2.0, 0.5, 1.5], 0.9)
    es = analytic_eigensystem(net)
    d = es.degenerate
    p_analytic = d @ d.T
    h = build_effective_hamiltonian(net)
    vals, vecs = np.linalg.eigh(h)
    mask = np.abs(vals - es.value_degenerate) < 1e-8
    assert mask.sum() == net.n_sites - 1
    block = vecs[:, mask]
    assert np.abs(p_analytic - block @ block.T).max() < 1e-9


def test_pair_vector_closed_form_structure():
    # both non-degenerate eigenvectors are (gamma_1..gamma_N, y) up to norm,
    # with y = 2 lambda - C(N-2)/2
    net = constrained_network([2.0, 1.0, 0.5], -0.7)
    c = net.constraint_value
    es = analytic_eigensystem(net)
    for j in range(2):
        vec = es.pair_vectors[:, j]
        y = 2.0 * es.value_pair[j] - c * (net.n_sites - 2) / 2.0
        expected = np.concatenate([net.gammas, [y]])
        expected /= np.linalg.norm(expected)
        assert np.abs(np.abs(vec) - np.abs(expected)).max() < 1e-12


def test_single_site_star():
    net = constrained_network([2.0], 1.0)
    es = analytic_eigensystem(net)
    assert es.degenerate.shape == (2, 0)
    # 2x2 block [[-c/4, g/2], [g/2, -c/4]] has eigenvalues (-c -+ 2g)/4
    assert np.allclose(np.sort(es.value_pair), [-1.25, 0.75], atol=1e-14)


def test_analytic_refuses_unconstrained_network():
    net = StarNetwork(gammas=np.array([1.0, 1.0]), deltas=np.array([0.0, -0.5]))
    with pytest.raises(ConstraintError):
        analytic_eigensystem(net)
    with pytest.raises(ConstraintError):
        evolve_subspace(net, basis_state(net, 1), 0.5, method="analytic")
    with pytest.raises(ConstraintError):
        phase_angles(net, 0.5)
    with pytest.raises(ConstraintError):
        closed_form_from_site(net, 1, [0.5])
    with pytest.raises(ConstraintError):
        closed_form_from_center(net, [0.5])


def test_auto_falls_back_to_numerical():
    net = StarNetwork(gammas=np.array([1.0, 1.0]), deltas=np.array([0.0, -0.5]))
    psi0 = basis_state(net, 2)
    out = evolve_subspace(net, psi0, 1.7, method="auto")
    ref = expm_evolve(net, psi0, 1.7)
    assert np.abs(out - ref).max() < 1e-10


def test_analytic_and_numerical_evolution_agree():
    net = constrained_network([1.0, 2.0, -0.5, 1.5], 0.6)
    rng = np.random.default_rng(3)
    psi0 = rng.normal(size=5) + 1j * rng.normal(size=5)
    psi0 /= np.linalg.norm(psi0)
    for t in (0.0, 0.4, 3.1, -2.2):
        a = evolve_subspace(net, psi0, t, method="analytic")
        b = evolve_subspace(net, psi0, t, method="numerical")
        c = expm_evolve(net, psi0, t)
        assert np.abs(a - b).max() < 1e-10
        assert np.abs(a - c).max() < 1e-10
        assert abs(np.linalg.norm(a) - 1.0) < 1e-12


def test_closed_form_propagators_match_expm():
    net = constrained_network([1.0, 0.7, 2.2], 1.1)
    times = [0.3, 2.9, -1.6]
    grids = [closed_form_from_site(net, site, times) for site in (1, 2, 3)]
    grids.append(closed_form_from_center(net, times))
    for source, rows in enumerate(grids, start=1):
        assert rows.shape == (len(times), net.dim)
        for t, out in zip(times, rows):
            ref = expm_evolve(net, basis_state(net, source), t)
            assert np.abs(out - ref).max() < 1e-10


def test_phase_angle_sum_identity():
    # theta_1 + theta_2 = -(t/2) sqrt(4 Omega^2 + C^2 (N-1)^2)
    net = constrained_network([1.0, 2.0, 0.4, 0.9], -0.8)
    c = net.constraint_value
    n = net.n_sites
    for t in (0.7, 5.3, -2.0):
        t1, t2 = phase_angles(net, t)
        disc = math.sqrt(4.0 * net.omega**2 + c**2 * (n - 1) ** 2)
        assert abs((t1 + t2) + t * disc / 2.0) < 1e-12 * max(1.0, abs(t) * disc)


def test_decoupled_site_is_frozen():
    # gamma_2 = 0 forces C = 0; the excitation parked there never moves
    net = StarNetwork(gammas=np.array([1.0, 0.0, 2.0]), deltas=np.array([-1.0, 0.3, -1.0]))
    assert net.constraint_holds and net.constraint_value == 0.0
    psi0 = basis_state(net, 2)
    out = evolve_subspace(net, psi0, 4.0, method="analytic")
    assert np.abs(out - psi0).max() < 1e-14
    assert np.abs(closed_form_from_site(net, 2, [4.0, -1.0]) - psi0).max() < 1e-14
    # and the moving sites still agree with the dense propagator
    moving = evolve_subspace(net, basis_state(net, 1), 4.0, method="analytic")
    assert np.abs(moving - expm_evolve(net, basis_state(net, 1), 4.0)).max() < 1e-10
    # the closed-form eigenbasis keeps the frozen site as its own unit vector
    es = analytic_eigensystem(net)
    v = es.all_vectors()
    h = build_effective_hamiltonian(net)
    assert np.abs(h @ v - v * es.all_values()).max() < 1e-12
    assert np.abs(v.T @ v - np.eye(4)).max() < 1e-12
    assert np.array_equal(es.degenerate[:, -1], psi0.real)


def test_zero_coupling_network_statics():
    net = StarNetwork(gammas=np.zeros(2), deltas=np.array([-1.0, -1.0]))
    assert net.constraint_holds
    psi0 = basis_state(net, 1)
    times = [2.0, -1.0, 0.0]
    assert np.array_equal(closed_form_from_site(net, 1, times), [psi0] * 3)
    assert np.array_equal(closed_form_from_center(net, times), [basis_state(net, 3)] * 3)
    es = analytic_eigensystem(net)
    assert np.allclose(es.all_values(), 0.0, atol=1e-15)
    for method in ("analytic", "numerical"):
        assert np.array_equal(propagate(net, psi0, [0.0, 2.0], method), [psi0, psi0])
    with pytest.raises(ValidationError):
        phase_angles(net, 1.0)


def test_state_validation():
    net = uniform_star(3, 1.0)
    with pytest.raises(ValidationError):
        as_subspace_state(np.ones(3), net.dim)
    with pytest.raises(ValidationError):
        as_subspace_state(np.ones(4), net.dim)  # norm 2
    with pytest.raises(ValidationError):
        basis_state(net, 0)
    with pytest.raises(ValidationError):
        basis_state(net, 5)
    with pytest.raises(ValidationError):
        evolve_subspace(net, basis_state(net, 1), 1.0, method="magic")
    with pytest.raises(ValidationError):
        propagate(net, basis_state(net, 1), [[0.0, 1.0]])  # times must be 1-d
    with pytest.raises(ValidationError):
        closed_form_from_site(net, 1, [[0.0, 1.0]])
    with pytest.raises(ValidationError):
        closed_form_from_center(net, [[0.0, 1.0]])
    center = basis_state(net, 4)
    assert center[3] == 1.0 and np.abs(center[:3]).max() == 0.0


def test_closed_form_site_bounds():
    net = uniform_star(3, 1.0)
    with pytest.raises(ValidationError):
        closed_form_from_site(net, 4, [1.0])  # center is not a valid source here
    with pytest.raises(ValidationError):
        closed_form_from_site(net, 0, [1.0])


@st.composite
def constrained_cases(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    mags = draw(
        st.lists(
            st.floats(min_value=0.2, max_value=4.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    c = draw(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
    times = draw(  # unsorted, unevenly spaced, negative times allowed
        st.lists(
            st.floats(min_value=-8.0, max_value=8.0, allow_nan=False),
            min_size=1,
            max_size=8,
        )
    )
    site = draw(st.integers(min_value=1, max_value=n))
    g = np.array(mags) * np.array(signs)
    return constrained_network(g, c), np.array(times), site


@settings(max_examples=40, deadline=None)
@given(constrained_cases())
@example(  # a decoupled source site (gamma = 0 forces C = 0)
    (
        StarNetwork(gammas=np.array([1.0, 0.0, 2.0]), deltas=np.array([-1.0, 0.3, -1.0])),
        np.array([4.0, -2.5, 0.0]),
        2,
    )
)
@example(  # Omega = 0: every state is stationary
    (StarNetwork(gammas=np.zeros(3), deltas=np.full(3, -1.0)), np.array([1.5, -3.0]), 1)
)
def test_property_closed_forms_track_dense_propagator(case):
    net, times, site = case
    for source in (site, net.dim):
        if source == net.dim:
            rows = closed_form_from_center(net, times)
        else:
            rows = closed_form_from_site(net, source, times)
        assert rows.shape == (times.size, net.dim)
        for t, out in zip(times, rows):
            ref = expm_evolve(net, basis_state(net, source), t)
            assert np.abs(out - ref).max() < 1e-9
            assert abs(np.linalg.norm(out) - 1.0) < 1e-10


@settings(max_examples=40, deadline=None)
@given(constrained_cases())
def test_property_analytic_spectrum_matches_numeric(case):
    net = case[0]
    h = build_effective_hamiltonian(net)
    es = analytic_eigensystem(net)
    scale = max(1.0, float(np.abs(h).max()))
    assert np.allclose(
        np.sort(es.all_values()), np.linalg.eigvalsh(h), atol=1e-9 * scale
    )
    v = es.all_vectors()
    assert np.abs(v.T @ v - np.eye(net.dim)).max() < 1e-9


def random_propagation_case(n, regime, initial, seed):
    """A star, a unit initial state and a time grid drawn from one seed.

    regime "transverse" has C = 0 (Delta = -1 on coupled sites), "constrained"
    a common C != 0, and "free" independent anisotropies; the first and last
    may carry decoupled sites (gamma = 0), which force C = 0 when they occur.
    """
    rng = np.random.default_rng(seed)
    g = rng.uniform(0.2, 4.0, n) * rng.choice([-1.0, 1.0], n)
    if regime != "constrained":
        g[rng.random(n) < 0.3] = 0.0
    if regime == "transverse":
        d = np.where(g == 0.0, rng.uniform(-2.0, 2.0, n), -1.0)
    elif regime == "constrained":
        d = rng.uniform(-3.0, 3.0) / g - 1.0
    else:
        d = rng.uniform(-2.0, 2.0, n)
    net = StarNetwork(gammas=g, deltas=d)
    if initial == "site":
        state = basis_state(net, int(rng.integers(1, n + 1)))
    elif initial == "center":
        state = basis_state(net, n + 1)
    else:
        state = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        state /= np.linalg.norm(state)
    times = np.sort(rng.uniform(-8.0, 8.0, int(rng.integers(1, 6))))
    return net, state, times


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=7),
    regime=st.sampled_from(["transverse", "constrained", "free"]),
    initial=st.sampled_from(["site", "center", "arbitrary"]),
    method=st.sampled_from(["auto", "analytic", "numerical"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(n=1, regime="transverse", initial="site", method="analytic", seed=0)
@example(n=1, regime="constrained", initial="center", method="analytic", seed=1)
@example(n=2, regime="constrained", initial="arbitrary", method="analytic", seed=2)
@example(n=2, regime="free", initial="site", method="numerical", seed=3)
@example(n=2, regime="transverse", initial="arbitrary", method="numerical", seed=4)
@example(n=3, regime="free", initial="center", method="auto", seed=5)
def test_property_propagate_matches_expm(n, regime, initial, method, seed):
    net, state, times = random_propagation_case(n, regime, initial, seed)
    if method == "analytic" and not net.constraint_holds:
        with pytest.raises(ConstraintError):
            propagate(net, state, times, method=method)
        return
    rows = propagate(net, state, times, method=method)
    assert rows.shape == (times.size, n + 1)
    for t, row in zip(times, rows):
        assert np.abs(row - expm_evolve(net, state, t)).max() < 1e-10

