"""W-state generation, coupling-fluctuation robustness, block transfer."""

import cmath
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ringstar.errors import InfeasibleError, ValidationError
from ringstar.protocols import (
    FLUCTUATION_BRANCH,
    FLUCTUATION_CONSTRAINT,
    FLUCTUATION_WINDING,
    apply_phase_correction,
    equal_population_ratio,
    fidelity_curve,
    fluctuation_sweep,
    _solve_ratio,
    generation_error,
    make_transfer_program,
    plan_w_from_center,
    plan_w_from_site,
    w_state,
)
from ringstar.star import (
    StarNetwork,
    basis_state,
    build_effective_hamiltonian,
    evolve_subspace,
    uniform_star,
)

RATIO_PLUS_N3 = (math.sqrt(3.0) + 1.0) ** 2 / 4.0
RATIO_MINUS_N3 = (math.sqrt(3.0) - 1.0) ** 2 / 4.0


def test_w_state_shape():
    w = w_state(4)
    assert w.shape == (5,)
    assert np.allclose(w[:4], 0.5)
    assert w[4] == 0.0
    assert abs(np.linalg.norm(w) - 1.0) < 1e-15
    with pytest.raises(ValidationError):
        w_state(0)


def test_generation_error_extremes():
    assert generation_error(w_state(5)) == 0.0
    center_only = np.zeros(4, dtype=complex)
    center_only[3] = 1.0
    assert generation_error(center_only) == 1.0
    # phases on the sites hurt: |1,-1>/sqrt(2) is orthogonal to the target
    v = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    assert abs(generation_error(v) - 1.0) < 1e-15
    with pytest.raises(ValidationError):
        generation_error(np.array([1.0]))


def test_phase_correction():
    v = np.array([0.5, 0.5j, -0.5, 0.5], dtype=complex)
    same = apply_phase_correction(v, 2, 0.0)
    assert np.array_equal(same, v)
    out = apply_phase_correction(v, 2, math.pi / 5)
    assert out[1] == v[1] * cmath.exp(-1j * math.pi / 5)
    # all other amplitudes pass through untouched
    assert out[0] == v[0] and out[2] == v[2] and out[3] == v[3]
    with pytest.raises(ValidationError):
        apply_phase_correction(v, 0, 1.0)
    with pytest.raises(ValidationError):
        apply_phase_correction(v, 4, 1.0)  # index 4 is the center


def test_center_plan_three_sites():
    net = uniform_star(3, 1.0)
    plan = plan_w_from_center(net)
    assert plan.source == "center"
    assert plan.winding == 0
    assert plan.ratio is None
    assert plan.chi == 0.0
    assert abs(plan.t_w - math.pi / math.sqrt(3.0)) < 1e-14
    assert plan.predicted_error < 1e-12
    # check against an independent dense propagator
    h = build_effective_hamiltonian(net)
    out = scipy.linalg.expm(-1j * h * plan.t_w) @ basis_state(net, 4)
    assert np.abs(np.abs(out[:3]) ** 2 - 1.0 / 3.0).max() < 1e-12
    assert abs(out[3]) < 1e-12
    assert generation_error(out) < 1e-12


def test_center_plan_single_site():
    plan = plan_w_from_center(uniform_star(1, 1.0))
    assert abs(plan.t_w - math.pi) < 1e-14
    assert plan.predicted_error < 1e-12


def test_center_plan_higher_winding():
    plan = plan_w_from_center(uniform_star(4, 2.0), winding=1)
    assert abs(plan.t_w - 3.0 * math.pi / 4.0) < 1e-14
    assert plan.predicted_error < 1e-12
    with pytest.raises(ValidationError):
        plan_w_from_center(uniform_star(4, 2.0), winding=-1)


def test_center_plan_refusals():
    # any longitudinal coupling blocks full evacuation of the center
    with pytest.raises(InfeasibleError):
        plan_w_from_center(uniform_star(3, 1.0, delta=-0.9))
    # unequal couplings skew the populations
    with pytest.raises(InfeasibleError):
        plan_w_from_center(
            StarNetwork(gammas=np.array([1.0, 2.0]), deltas=np.array([-1.0, -1.0]))
        )
    with pytest.raises(InfeasibleError):
        plan_w_from_center(uniform_star(3, -1.0))


def test_equal_population_ratio_closed_form():
    # theta_1 = -pi, N = 3: p = (1 + 3 +- sqrt(12)) / 4 = (sqrt(3) +- 1)^2 / 4
    assert abs(equal_population_ratio(-math.pi, 3, "plus") - RATIO_PLUS_N3) < 1e-14
    assert abs(equal_population_ratio(-math.pi, 3, "minus") - RATIO_MINUS_N3) < 1e-14
    with pytest.raises(ValidationError):
        equal_population_ratio(-math.pi, 1)
    with pytest.raises(ValidationError):
        equal_population_ratio(-math.pi, 3, "both")
    # theta_1 = pi/2 makes the discriminant 2N - N^2 < 0 for N >= 3
    with pytest.raises(InfeasibleError):
        equal_population_ratio(math.pi / 2, 4)


def reference_ratio(n, constraint, gamma_source, winding, branch):
    """The coupling ratio from a scalar scan of the same geomspace grid, one
    residual call per point, refined by brentq; None when no bracket exists."""
    from scipy.optimize import brentq

    def residual(p):
        omega = gamma_source * math.sqrt(1.0 + (n - 1) * p)
        b = constraint * (n - 1) / (2.0 * omega)
        theta1 = winding * math.pi * (b / math.hypot(1.0, b) - 1.0)
        disc = 2.0 * n * (1.0 - math.cos(theta1)) - n * n * math.sin(theta1) ** 2
        if disc < -1e-12:
            return math.nan
        sign = 1.0 if branch == "plus" else -1.0
        root = math.sqrt(max(disc, 0.0))
        return p - (1.0 - n * math.cos(theta1) + sign * root) / (n - 1) ** 2

    grid = np.geomspace(1e-6, 1e6, 2401)
    vals = [residual(p) for p in grid]
    for i in range(len(grid) - 1):
        f0, f1 = vals[i], vals[i + 1]
        if math.isnan(f0) or math.isnan(f1):
            continue
        if f0 == 0.0:
            return float(grid[i])
        if f0 * f1 < 0.0:
            return brentq(residual, grid[i], grid[i + 1], xtol=1e-15, rtol=8.9e-16)
    return None


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    constraint=st.floats(min_value=-3.0, max_value=3.0).filter(lambda c: c != 0.0),
    gamma_source=st.floats(min_value=0.2, max_value=3.0),
    winding=st.integers(min_value=1, max_value=8),
    branch=st.sampled_from(["plus", "minus"]),
)
def test_property_solve_ratio_matches_scalar_scan(n, constraint, gamma_source, winding, branch):
    expected = reference_ratio(n, constraint, gamma_source, winding, branch)
    if expected is None:
        with pytest.raises(InfeasibleError):
            _solve_ratio(n, constraint, gamma_source, winding, branch)
        return
    got = _solve_ratio(n, constraint, gamma_source, winding, branch)
    # the same bracket, refined to brentq's own stopping tolerance (the two
    # runs see residuals that differ in the last bit: numpy's hypot is not
    # correctly rounded, math.hypot is)
    assert abs(got - expected) <= 2.0 * (1e-15 + 8.9e-16 * abs(expected))


def test_site_plan_transverse_three_sites():
    plan = plan_w_from_site(3, 1, 0.0, 1.0, winding=1, branch="plus")
    assert plan.source == 1
    assert abs(plan.ratio - RATIO_PLUS_N3) < 1e-12
    net = plan.network
    assert abs(net.gammas[0] - 1.0) < 1e-14
    assert np.abs(net.gammas[1:] - math.sqrt(RATIO_PLUS_N3)).max() < 1e-12
    assert np.abs(net.deltas + 1.0).max() < 1e-14  # C = 0 means Delta = -1
    assert abs(plan.t_w - 2.0 * math.pi / net.omega) < 1e-12
    assert plan.predicted_error < 1e-10
    # replay on the dense propagator and undo the source phase
    h = build_effective_hamiltonian(net)
    out = scipy.linalg.expm(-1j * h * plan.t_w) @ basis_state(net, 1)
    assert np.abs(np.abs(out[:3]) ** 2 - 1.0 / 3.0).max() < 1e-10
    assert abs(out[3]) < 1e-10
    corrected = apply_phase_correction(out, 1, plan.chi)
    assert generation_error(corrected) < 1e-10


def test_site_plan_minus_branch_ratio():
    plan = plan_w_from_site(3, 2, 0.0, 1.0, winding=1, branch="minus")
    assert abs(plan.ratio - RATIO_MINUS_N3) < 1e-12
    assert plan.predicted_error < 1e-10


def test_site_plan_time_scaling():
    # t_W = 4 k pi / sqrt(4 Omega^2 + C^2 (N-1)^2); N = 3 collapses this to
    # 2 k pi / sqrt(Omega^2 + C^2)
    c = 0.5
    plan = plan_w_from_site(3, 1, c, 1.0, winding=1, branch="plus")
    omega = plan.network.omega
    assert abs(plan.t_w - 2.0 * math.pi / math.sqrt(omega**2 + c**2)) < 1e-12
    assert plan.predicted_error < 1e-8


def test_site_plan_nonzero_constraint_end_to_end():
    plan = plan_w_from_site(
        3, 3, FLUCTUATION_CONSTRAINT, 1.0,
        winding=FLUCTUATION_WINDING, branch=FLUCTUATION_BRANCH,
    )
    net = plan.network
    assert net.constraint_holds
    assert abs(net.constraint_value - 1.0) < 1e-12
    h = build_effective_hamiltonian(net)
    out = scipy.linalg.expm(-1j * h * plan.t_w) @ basis_state(net, 3)
    corrected = apply_phase_correction(out, 3, plan.chi)
    assert generation_error(corrected) < 1e-8
    assert np.abs(np.abs(out[:3]) ** 2 - 1.0 / 3.0).max() < 1e-8


def test_site_plan_winding_search():
    # winding 1 is infeasible at C = 1 on the minus branch; the search must
    # settle on 2, matching the explicit plan
    auto = plan_w_from_site(3, 3, 1.0, 1.0, winding=None, branch="minus")
    assert auto.winding == 2
    explicit = plan_w_from_site(3, 3, 1.0, 1.0, winding=2, branch="minus")
    assert abs(auto.t_w - explicit.t_w) < 1e-12
    assert abs(auto.ratio - explicit.ratio) < 1e-12


def test_site_plan_infeasible_cases():
    with pytest.raises(InfeasibleError):
        plan_w_from_site(3, 1, 9.0, 1.0, winding=1, branch="plus")
    with pytest.raises(InfeasibleError):
        # even winding at C = 0 gives theta_1 = -2 pi k and a negative ratio
        plan_w_from_site(3, 1, 0.0, 1.0, winding=2, branch="minus")


def test_site_plan_validation():
    with pytest.raises(ValidationError):
        plan_w_from_site(1, 1, 0.0, 1.0)
    with pytest.raises(ValidationError):
        plan_w_from_site(3, 4, 0.0, 1.0)
    with pytest.raises(ValidationError):
        plan_w_from_site(3, 1, 0.0, -1.0)
    with pytest.raises(ValidationError):
        plan_w_from_site(3, 1, 0.0, 1.0, winding=0)


def test_fluctuation_sweep_baseline():
    deltas = [-0.1, 0.0, 0.1]
    rows = fluctuation_sweep(deltas)
    assert [r[0] for r in rows] == deltas
    errors = {frac: err for frac, err in rows}
    assert errors[0.0] < 1e-12
    for frac in (-0.1, 0.1):
        assert 0.05 <= errors[frac] / abs(frac) <= 0.15


def test_fluctuation_sweep_monotone_per_side():
    grid = np.linspace(-0.2, 0.2, 41)
    rows = fluctuation_sweep(grid)
    errs = np.array([err for _, err in rows])
    mid = 20  # delta = 0
    left = errs[: mid + 1]
    right = errs[mid:]
    assert np.all(np.diff(left) <= 1e-15)  # decreasing toward zero
    assert np.all(np.diff(right) >= -1e-15)
    assert errs[mid] < 1e-12


def test_fluctuation_sweep_rejects_large_fluctuations():
    with pytest.raises(ValidationError):
        fluctuation_sweep([1.0])
    with pytest.raises(ValidationError):
        fluctuation_sweep([-1.5])


def test_transfer_two_block_balanced():
    # N = 5, L = 2, amplitudes (1,1)/sqrt(2), overall scale sqrt(2): the four
    # coupled sites all carry gamma = 1, Omega = 2, and the block pattern
    # crosses at t = pi with period 2 pi
    amp = 1.0 / math.sqrt(2.0)
    prog = make_transfer_program(5, 2, [amp, amp], gamma_scale=math.sqrt(2.0))
    assert np.allclose(prog.network.gammas, [1.0, 1.0, 1.0, 1.0, 0.0], atol=1e-14)
    assert abs(prog.network.omega - 2.0) < 1e-14
    assert abs(prog.t_transfer - math.pi) < 1e-6
    assert prog.peak_target_fidelity > 1.0 - 1e-10

    curve = fidelity_curve(prog, [0.0, math.pi, 2.0 * math.pi])
    assert abs(curve.return_fidelity[0] - 1.0) < 1e-12
    assert abs(curve.target_fidelity[1] - 1.0) < 1e-12
    assert abs(curve.return_fidelity[2] - 1.0) < 1e-12


def test_transfer_decoupled_site_stays_empty():
    amp = 1.0 / math.sqrt(2.0)
    prog = make_transfer_program(5, 2, [amp, amp], gamma_scale=math.sqrt(2.0))
    initial = np.zeros(6, dtype=complex)
    initial[:2] = amp
    out = evolve_subspace(prog.network, initial, 1.3)
    assert out[4] == 0.0


def test_transfer_generic_pattern():
    c = np.array([3.0, 4.0, 12.0]) / 13.0
    prog = make_transfer_program(7, 3, c, gamma_scale=1.7)
    assert prog.peak_target_fidelity > 1.0 - 1e-9
    # the received pattern matches the sent one site by site
    initial = np.zeros(8, dtype=complex)
    initial[:3] = c
    out = evolve_subspace(prog.network, initial, prog.t_transfer)
    assert np.abs(np.abs(out[3:6]) - c).max() < 1e-6
    assert np.abs(out[:3]).max() < 1e-5
    assert abs(out[6]) == 0.0 and abs(out[7]) < 1e-5


def test_transfer_validation():
    amp = 1.0 / math.sqrt(2.0)
    with pytest.raises(ValidationError):
        make_transfer_program(4, 2, [amp, amp])  # needs 2L+1 = 5 sites
    with pytest.raises(ValidationError):
        make_transfer_program(5, 0, [])
    with pytest.raises(ValidationError):
        make_transfer_program(5, 2, [amp])  # wrong length
    with pytest.raises(ValidationError):
        make_transfer_program(5, 2, [1.0, 1.0])  # norm sqrt(2)
    with pytest.raises(ValidationError):
        make_transfer_program(5, 2, [1.0, 0.0])  # zero entry
    with pytest.raises(ValidationError):
        make_transfer_program(5, 2, [amp, amp], gamma_scale=0.0)


def test_transfer_nonzero_constraint_peak_degrades():
    # a longitudinal component spoils the clean crossing; the program still
    # reports the honest (lower) peak instead of claiming unit fidelity
    amp = 1.0 / math.sqrt(2.0)
    clean = make_transfer_program(5, 2, [amp, amp], gamma_scale=math.sqrt(2.0))
    skewed = make_transfer_program(
        5, 2, [amp, amp], gamma_scale=math.sqrt(2.0), constraint=1.5
    )
    assert clean.peak_target_fidelity > 1.0 - 1e-10
    assert skewed.peak_target_fidelity < clean.peak_target_fidelity - 1e-3


@settings(max_examples=40, deadline=None)
@given(
    block=st.integers(min_value=1, max_value=3),
    spare=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    transverse=st.booleans(),
)
def test_property_transfer_fidelities_stay_in_unit_interval(
    block, spare, seed, transverse
):
    # rounding alone can push |<a|b>|^2 of unit vectors just above 1
    rng = np.random.default_rng(seed)
    amps = rng.uniform(0.3, 1.0, block)
    prog = make_transfer_program(
        2 * block + 1 + spare,
        block,
        amps / np.linalg.norm(amps),
        gamma_scale=float(rng.uniform(0.5, 2.0)),
        constraint=0.0 if transverse else float(rng.uniform(0.1, 0.5)),
    )
    curve = fidelity_curve(prog, np.linspace(0.0, 3.0 * prog.t_transfer, 97))
    fidelities = np.concatenate(
        [[prog.peak_target_fidelity], curve.return_fidelity, curve.target_fidelity]
    )
    assert np.all((fidelities >= 0.0) & (fidelities <= 1.0))
