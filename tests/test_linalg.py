"""Dense Hermitian eigendecomposition and spectral time evolution.

The propagator is validated against an independent scaling-and-squaring
Taylor exponential so no test depends on the eigensolver being right.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringstar.errors import ValidationError
from ringstar.linalg import (
    EigenSystem,
    hermitian_eigendecompose,
    lanczos,
    max_entry_norm,
    unitary_evolve,
)


def taylor_expm(matrix: np.ndarray) -> np.ndarray:
    """exp(M) by 12th-order Taylor after scaling by a power of two."""
    norm = max(np.abs(matrix).sum(axis=1).max(), 1e-300)
    squarings = max(int(np.ceil(np.log2(norm))) + 1, 0)
    scaled = matrix / (2.0**squarings)
    out = np.eye(matrix.shape[0], dtype=np.complex128)
    term = np.eye(matrix.shape[0], dtype=np.complex128)
    for order in range(1, 13):
        term = term @ scaled / order
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (raw + raw.conj().T) / 2.0


def test_known_two_by_two():
    h = np.array([[0.0, 0.5], [0.5, 0.0]])
    eig = hermitian_eigendecompose(h)
    assert np.allclose(eig.values, [-0.5, 0.5], atol=1e-15)


def test_real_symmetric_input_stays_real():
    rng = np.random.default_rng(11)
    raw = rng.normal(size=(64, 64))
    h = (raw + raw.T) / 2.0
    eig = hermitian_eigendecompose(h)
    assert eig.vectors.dtype == np.float64
    reconstructed = (eig.vectors * eig.values) @ eig.vectors.T
    assert np.abs(reconstructed - h).max() < 1e-11 * max_entry_norm(h) * 64
    # an integer matrix is promoted to float64, not to complex
    integer = hermitian_eigendecompose(np.array([[0, 1], [1, 0]]))
    assert integer.vectors.dtype == np.float64
    complex_input = hermitian_eigendecompose(h.astype(np.complex128))
    assert complex_input.vectors.dtype == np.complex128


def test_reconstruct_round_trip_dim_256():
    rng = np.random.default_rng(7)
    h = random_hermitian(rng, 256)
    eig = hermitian_eigendecompose(h)
    assert np.all(np.diff(eig.values) >= 0.0)
    v = eig.vectors
    reconstructed = (v * eig.values) @ v.conj().T
    assert np.abs(reconstructed - h).max() < 1e-11 * max_entry_norm(h) * 256


def test_rejects_non_square():
    with pytest.raises(ValidationError):
        hermitian_eigendecompose(np.zeros((2, 3)))


def test_rejects_non_finite():
    h = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        hermitian_eigendecompose(h)


def test_rejects_non_hermitian():
    h = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValidationError):
        hermitian_eigendecompose(h)


def test_hermiticity_tolerance_is_relative():
    # asymmetry far below 1e-12 of the largest entry must be accepted
    h = np.array([[1e6, 1.0 + 1e-9], [1.0, -1e6]])
    hermitian_eigendecompose(h)
    with pytest.raises(ValidationError):
        hermitian_eigendecompose(np.array([[1.0, 1e-6], [0.0, -1.0]]))


@pytest.mark.parametrize("complex_entries", [False, True])
def test_a_stack_gives_each_matrix_its_own_bits(complex_entries):
    rng = np.random.default_rng(5)
    stack = np.array([random_hermitian(rng, 6) * 10.0**k for k in range(-3, 4)])
    if not complex_entries:
        stack = stack.real.copy()
    stack = stack.reshape(7, 1, 6, 6)  # any leading shape
    eig = hermitian_eigendecompose(stack)
    assert eig.values.shape == (7, 1, 6) and eig.vectors.shape == (7, 1, 6, 6)
    for index in np.ndindex(7, 1):
        alone = hermitian_eigendecompose(stack[index])
        assert eig.values[index].tobytes() == alone.values.tobytes()
        assert eig.vectors[index].tobytes() == alone.vectors.tobytes()


def test_a_stack_checks_each_matrix_against_its_own_scale():
    # asymmetry 1e-9 is far below 1e-12 of the large matrix's scale, but not
    # of the small matrix's own
    small = np.array([[1.0, 1e-9], [0.0, -1.0]])
    large = np.array([[1e6, 0.0], [0.0, -1e6]])
    hermitian_eigendecompose(np.array([large, large + small]))
    for stack in (np.array([large, small]), np.array([small, large])):
        with pytest.raises(ValidationError, match=r"asymmetry 1\.000e-09 exceeds 1e-12 \* 1\.000e\+00"):
            hermitian_eigendecompose(stack)
    with pytest.raises(ValidationError, match="non-finite"):
        hermitian_eigendecompose(np.array([large, [[np.inf, 0.0], [0.0, 1.0]]]))
    with pytest.raises(ValidationError, match="square"):
        hermitian_eigendecompose(np.zeros((2, 2, 3)))


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_evolution_matches_taylor_exponential(dim, seed):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, dim)
    state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    state /= np.linalg.norm(state)
    for t in (0.0, 0.37, 2.0, -1.4):
        direct = taylor_expm(-1j * t * h) @ state
        spectral = unitary_evolve(h, t, state)
        assert np.abs(direct - spectral).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=10**6),
       st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
def test_evolution_preserves_norm(dim, seed, t):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, dim)
    state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    state /= np.linalg.norm(state)
    out = unitary_evolve(h, t, state)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6),
       st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
       st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
def test_evolution_group_law(seed, t1, t2):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, 4)
    state = rng.normal(size=4) + 1j * rng.normal(size=4)
    state /= np.linalg.norm(state)
    once = unitary_evolve(h, t1 + t2, state)
    twice = unitary_evolve(h, t2, unitary_evolve(h, t1, state))
    assert np.abs(once - twice).max() < 1e-11


def test_evolution_conserves_energy():
    rng = np.random.default_rng(11)
    h = random_hermitian(rng, 6)
    state = rng.normal(size=6) + 1j * rng.normal(size=6)
    state /= np.linalg.norm(state)
    before = np.vdot(state, h @ state).real
    after_state = unitary_evolve(h, 1.7, state)
    after = np.vdot(after_state, h @ after_state).real
    assert abs(before - after) < 1e-12


def test_eigensystem_is_plain_data():
    eig = EigenSystem(values=np.array([1.0]), vectors=np.eye(1))
    assert eig.values[0] == 1.0


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=80),
    rows=st.integers(min_value=1, max_value=3),
    complex_entries=st.booleans(),
    repeated_levels=st.booleans(),
    count=st.sampled_from([0, 1]),
    n_locked=st.integers(min_value=0, max_value=2),
    rtol=st.sampled_from([1e-14, 1e-12, 1e-10, 1e-6]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(n=80, rows=3, complex_entries=True, repeated_levels=False, count=0, n_locked=2,
         rtol=1e-14, seed=1)  # every basis outgrows its first 64 columns
@example(n=80, rows=2, complex_entries=False, repeated_levels=False, count=1, n_locked=1,
         rtol=1e-12, seed=2)
def test_property_lanczos_matches_dense_eigh(n, rows, complex_entries, repeated_levels, count,
                                             n_locked, rtol, seed):
    rng = np.random.default_rng(seed)
    if complex_entries:
        q, _ = np.linalg.qr(rng.normal(size=(rows, n, n)) + 1j * rng.normal(size=(rows, n, n)))
    else:
        q, _ = np.linalg.qr(rng.normal(size=(rows, n, n)))
    levels = rng.normal(size=(rows, n)) * 10.0 ** rng.uniform(-3, 3, (rows, 1))
    if repeated_levels:  # at most three clusters of levels, split by 1e-16 to 1e-2 of the scale
        levels = np.take_along_axis(levels, rng.integers(0, min(3, n), (rows, n)), 1)
        levels *= 1.0 + 10.0 ** rng.uniform(-16, -2, (rows, 1)) * rng.normal(size=(rows, n))
    h = (q * levels[:, None, :]) @ q.conj().swapaxes(1, 2)
    h = (h + h.conj().swapaxes(1, 2)) / 2.0
    exact, vectors = np.linalg.eigh(h)
    norm = np.abs(exact).max(1)
    j = min(n_locked, n - 1)
    locked = vectors[:, :, :j].swapaxes(1, 2) if j else None  # the j lowest, deflated
    start = rng.normal(size=(rows, n)) + (1j * rng.normal(size=(rows, n)) if complex_entries else 0)
    for _ in range(2 if j else 0):  # a start orthogonal to the locked vectors
        start -= ((locked.conj() @ start[:, :, None]).swapaxes(1, 2) @ locked)[:, 0]
    tol = rtol * norm
    out = lanczos(lambda active, v: (h[active] @ v[:, :, None])[:, :, 0], start, tol, count, locked)
    assert len(out) == rows
    for r in range(rows):
        if count == 0:
            basis, alphas, betas = out[r]
            k = basis.shape[0]
            assert 1 <= k <= n - j and alphas.shape == (k,) and betas.shape == (k - 1,)
            assert np.abs(basis.conj() @ basis.T - np.eye(k)).max() <= 1e-12
            if j:
                assert np.abs(basis.conj() @ locked[r].T).max() <= 1e-12
            tridiagonal = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            projected = basis.conj() @ h[r] @ basis.T
            assert np.abs(projected - tridiagonal).max() <= 1e-12 * norm[r]
            if j + k < n:  # stopped at beta <= tol: the span is invariant to within tol
                span = np.vstack([locked[r], basis]) if j else basis
                w = h[r] @ basis[-1]
                for _ in range(2):
                    w = w - (span.conj() @ w) @ span
                assert np.linalg.norm(w) <= tol[r] + 1e-13 * norm[r]
        else:
            (theta,), (ritz,) = out[r]
            assert abs(np.linalg.norm(ritz) - 1.0) <= 1e-12
            residual = np.linalg.norm(h[r] @ ritz - theta * ritz)
            # the stopping rule's beta |y_last| <= tol, plus the rounding of H y itself
            assert residual <= tol[r] + 1e-13 * norm[r]
            if j + 1 == n or exact[r, j + 1] - exact[r, j] > 1e-3 * norm[r]:  # a clear gap
                assert abs(theta - exact[r, j]) <= residual + 1e-12 * norm[r]
