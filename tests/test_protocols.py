"""W-state generation, coupling-fluctuation robustness, block transfer."""

import cmath
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
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
)
from ringstar.star import (
    StarNetwork,
    basis_state,
    build_effective_hamiltonian,
    evolve_subspace,
    propagate,
    uniform_star,
)

RATIO_PLUS_N3 = (math.sqrt(3.0) + 1.0) ** 2 / 4.0
RATIO_MINUS_N3 = (math.sqrt(3.0) - 1.0) ** 2 / 4.0


def test_generation_error_extremes():
    w = np.zeros(6, dtype=complex)
    w[:5] = 1.0 / math.sqrt(5.0)  # the W state of five sites, center empty
    assert generation_error(w) == 0.0
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


@settings(max_examples=200, deadline=None)
@example(2, 0.0, 0)
@example(2, 1.0, 3)
@example(10**6, 0.0, 0)
@example(10**6, 1.0, 31)
@given(
    n=st.integers(min_value=2, max_value=10**6),
    fraction=st.floats(min_value=0.0, max_value=1.0),
    turns=st.integers(min_value=0, max_value=31),
)
def test_property_equal_population_ratio_stays_in_its_branch_bracket(n, fraction, turns):
    # a real ratio needs cos theta_1 <= 2/N - 1: theta_1 with cos theta_1 a
    # `fraction` of the way from -1 to 2/N - 1, `turns` full turns further down
    theta1 = -math.acos(-1.0 + 2.0 * fraction / n) - 2.0 * math.pi * turns
    assume(2.0 * n * (1.0 - math.cos(theta1)) - n * n * math.sin(theta1) ** 2 >= 0.0)
    brackets = {
        "plus": (1.0 / (n - 1), (math.sqrt(n) - 1.0) ** -2),
        "minus": ((math.sqrt(n) + 1.0) ** -2, 1.0 / (n - 1)),
    }
    for branch, (lo, hi) in brackets.items():
        # relative to the bracket's top: at N = 2, 3 - sqrt(8) on the minus
        # branch cancels to 1.3e-15 of its own size
        p = equal_population_ratio(theta1, n, branch)
        assert lo - 1e-15 * hi <= p <= hi * (1.0 + 1e-15)


def reference_ratio(n, constraint, gamma_source, winding, branch):
    """The smallest coupling ratio from an independent scan: 400001 geometric
    points over p in [1e-9, 1e3], each sign-change cell in turn refined by
    brentq, and the first root with a real ratio (discriminant >= -1e-12)
    returned; None when there is none.  The residual clamps a negative
    discriminant to zero, so it stays finite and continuous everywhere."""
    from scipy.optimize import brentq

    def terms(p):
        omega = gamma_source * np.sqrt(1.0 + (n - 1) * p)
        b = constraint * (n - 1) / (2.0 * omega)
        theta1 = winding * math.pi * (b / np.sqrt(1.0 + b * b) - 1.0)
        disc = 2.0 * n * (1.0 - np.cos(theta1)) - n * n * np.sin(theta1) ** 2
        sign = 1.0 if branch == "plus" else -1.0
        ratio = (1.0 - n * np.cos(theta1) + sign * np.sqrt(np.maximum(disc, 0.0))) / (n - 1) ** 2
        return p - ratio, disc

    grid = np.geomspace(1e-9, 1e3, 400001)
    vals = terms(grid)[0]
    for i in np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0)):
        lo, hi = float(grid[i]), float(grid[i + 1])
        f_lo, f_hi = (float(terms(x)[0]) for x in (lo, hi))
        if f_lo * f_hi < 0.0:
            root = brentq(lambda x: float(terms(x)[0]), lo, hi, xtol=1e-300, rtol=8.9e-16)
        else:  # a zero at an end, or one that scalar rounding moves onto an end
            root = lo if abs(f_lo) <= abs(f_hi) else hi
        if terms(root)[1] >= -1e-12:
            return root
    return None


# (N, C, gamma_source, winding, branch) -> the smallest ratio, from a
# 96001-point grid: the roots sit next to cells where no real ratio exists,
# which a scan that skipped those cells refused or passed over; the same rows
# are @examples of the property below
ROOTS_NEXT_TO_INFEASIBLE_CELLS = [
    (10, -0.6125485144108256, 2.658317368354364, 7, "minus", 0.10086717314413425),
    (32, -0.10335420950681157, 2.2572371452402735, 2, "plus", 0.03391733566086845),
    (52, -0.216469743962023, 2.2380863468659666, 7, "minus", 0.018824187322643474),
    (9, 0.26026411160820345, 0.6106253746641235, 5, "plus", 0.14454735956122386),
    (19, 0.09645131502163246, 0.5951137667899952, 4, "plus", 0.05850436043816097),
    (41, -0.061407055562716986, 2.7236374230565614, 7, "plus", 0.02649861723133947),
]


@settings(max_examples=60, deadline=None)
@example(10, -0.6125485144108256, 2.658317368354364, 7, "minus")
@example(32, -0.10335420950681157, 2.2572371452402735, 2, "plus")
@example(52, -0.216469743962023, 2.2380863468659666, 7, "minus")
@example(9, 0.26026411160820345, 0.6106253746641235, 5, "plus")
@example(19, 0.09645131502163246, 0.5951137667899952, 4, "plus")
@example(41, -0.061407055562716986, 2.7236374230565614, 7, "plus")
# a root where the residual is flat: two refinements of one cell part by 5.8e-15
@example(2, 1.21875, 0.203125, 4, "plus")
@given(
    n=st.integers(min_value=2, max_value=300),
    constraint=st.one_of(
        st.sampled_from([0.0, 1e-300, -1e-300]),
        st.floats(min_value=1e-3, max_value=30.0),
        st.floats(min_value=-30.0, max_value=-1e-3),
    ),
    gamma_source=st.floats(min_value=0.03, max_value=10.0),
    winding=st.integers(min_value=1, max_value=64),
    branch=st.sampled_from(["plus", "minus"]),
)
def test_property_solve_ratio_is_the_smallest_root_of_a_fine_scan(
    n, constraint, gamma_source, winding, branch
):
    expected = reference_ratio(n, constraint, gamma_source, winding, branch)
    if expected is None:
        with pytest.raises(InfeasibleError):
            _solve_ratio(n, constraint, gamma_source, winding, branch)
        return
    got = _solve_ratio(n, constraint, gamma_source, winding, branch)
    assert abs(got - expected) <= 1e-12 * expected


@pytest.mark.parametrize(
    "n, constraint, gamma_source, winding, branch, p", ROOTS_NEXT_TO_INFEASIBLE_CELLS
)
def test_site_plan_found_next_to_infeasible_cells(
    n, constraint, gamma_source, winding, branch, p
):
    plan = plan_w_from_site(
        n, 1, constraint, gamma_source, winding=winding, branch=branch
    )
    assert abs(plan.ratio - p) <= 1e-12 * p
    assert plan.predicted_error < 1e-8


@pytest.mark.parametrize("n", [2, 3, 57, 10**6, 10**7])
@pytest.mark.parametrize("winding", [1, 7, 63])
@pytest.mark.parametrize("branch", ["plus", "minus"])
def test_solve_ratio_at_zero_constraint_is_the_explicit_ratio(n, winding, branch):
    # theta_1 = -k pi whatever p is, so the root is (sqrt N -+ 1)^-2, an end
    # of the scanned bracket; at N = 10^6 it lies below 1e-6
    got = _solve_ratio(n, 0.0, 1.0, winding, branch)
    assert got == equal_population_ratio(-winding * math.pi, n, branch)


# (N, source, C, gamma_source, winding, branch) -> the smallest ratio at that
# winding: a geometric grid over [1e-6, 1e6] refused the first and passed over
# the second's smaller root
SMALLEST_ROOTS_AT_HIGH_WINDING = [
    ((159, 1, -0.005824580929192481, 0.4948323832735992, 51, "minus"), 0.0062893603436888),
    ((172, 1, 0.0033699492891657227, 0.0675913864793404, 58, "plus"), 0.0058525004358214),
]


@pytest.mark.parametrize("args, p", SMALLEST_ROOTS_AT_HIGH_WINDING, ids=["refused", "larger-root"])
def test_site_plan_takes_the_smallest_root_at_high_winding(args, p):
    n, source, constraint, gamma_source, winding, branch = args
    plan = plan_w_from_site(
        n, source, constraint, gamma_source, winding=winding, branch=branch
    )
    assert abs(plan.ratio - p) <= 1e-12 * p
    assert plan.predicted_error <= 1e-8


def test_winding_search_finds_the_first_feasible_winding():
    # windings 1-45 have no self-consistent ratio; a geometric grid over
    # [1e-6, 1e6] also missed 46-50
    plan = plan_w_from_site(227, 1, 0.012143374943272304, 4.700712154984587, branch="plus")
    assert plan.winding == 46
    assert plan.predicted_error <= 1e-8
    for k in range(1, 46):
        with pytest.raises(InfeasibleError):
            _solve_ratio(227, 0.012143374943272304, 4.700712154984587, k, "plus")


def test_solve_ratio_has_no_floor_on_p():
    # the minus branch's p ~ 1/N is below 1e-6 at N = 2 * 10^6
    got = _solve_ratio(2_000_000, 1.2645320649476263e-06, 1.0, 3, "minus")
    assert abs(got - 4.992991499371255e-07) <= 1e-12 * got
    plan = plan_w_from_site(2_000_000, 1, 1.2645320649476263e-06, 1.0, winding=3, branch="minus")
    assert plan.ratio == got
    assert plan.predicted_error <= 1e-8


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


@pytest.mark.parametrize("constraint", [0.0, 0.5])
def test_site_plan_and_fluctuation_sweep_reject_an_unknown_branch(constraint):
    # at C != 0 the ratio comes from the self-consistent solve, which never
    # reaches equal_population_ratio's check
    message = "branch must be 'plus' or 'minus', got 'bogus'"
    with pytest.raises(ValidationError, match=message):
        plan_w_from_site(5, 2, constraint, 1.0, branch="bogus")
    with pytest.raises(ValidationError, match=message):
        fluctuation_sweep([0.0], constraint=constraint, branch="bogus")


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


def test_fluctuation_sweep_evolves_the_plan_it_stresses(monkeypatch):
    from ringstar import protocols

    plan = plan_w_from_site(
        3, 3, FLUCTUATION_CONSTRAINT, 1.0,
        winding=FLUCTUATION_WINDING, branch=FLUCTUATION_BRANCH,
    )
    seen = []

    def spy(network, state, time, *args, **kwargs):
        seen.append((network, time))
        return evolve_subspace(network, state, time, *args, **kwargs)

    monkeypatch.setattr(protocols, "evolve_subspace", spy)
    fluctuation_sweep([-0.1, 0.0, 0.05])
    assert len(seen) == 3
    for network, time in seen:
        assert np.array_equal(network.gammas, plan.network.gammas)
        assert time == plan.t_w
    assert np.array_equal(seen[1][0].deltas, plan.network.deltas)


def rescaled_sweep_reference(delta_values, constraint, winding, branch):
    """The sweep on the site plan rescaled so both passive couplings are 1
    (C and t_W rescale with the couplings, so the errors do not change)."""
    plan = plan_w_from_site(3, 3, constraint, 1.0, winding=winding, branch=branch)
    s = 1.0 / float(plan.network.gammas[0])
    gammas = plan.network.gammas * s
    c0 = constraint * s
    rows = []
    for frac in delta_values:
        deltas = c0 / gammas - 1.0
        deltas[2] = c0 * (1.0 + frac) / gammas[2] - 1.0
        h = build_effective_hamiltonian(StarNetwork(gammas=gammas, deltas=deltas))
        out = scipy.linalg.expm(-1j * h * (plan.t_w / s)) @ np.eye(4)[2]
        rows.append((frac, generation_error(apply_phase_correction(out, 3, plan.chi))))
    return rows


@pytest.mark.parametrize(
    "constraint, winding, branch, delta_values",
    [
        (FLUCTUATION_CONSTRAINT, FLUCTUATION_WINDING, FLUCTUATION_BRANCH,
         np.linspace(-0.2, 0.2, 9)),
        (0.0, 1, "plus", [-0.5, -0.01, 0.0, 0.3]),
        (0.5, 1, "plus", np.linspace(-0.9, 0.9, 7)),
        (-0.7, 2, "minus", [-0.25, 0.0, 0.125, 0.6]),
        (1.5, 3, "plus", np.linspace(-0.4, 0.4, 5)),
    ],
)
def test_fluctuation_sweep_matches_the_rescaled_plan(
    constraint, winding, branch, delta_values
):
    got = fluctuation_sweep(delta_values, constraint, winding, branch)
    expected = rescaled_sweep_reference(delta_values, constraint, winding, branch)
    assert [frac for frac, _ in got] == [float(v) for v in delta_values]
    assert max(abs(a[1] - b[1]) for a, b in zip(got, expected)) <= 1e-13


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


def transfer_scalar(program, constraint):
    """F(t) and dF/dt of a transfer program from its two-level scalar.

    Only the bright mode of the two blocks moves.  With d = C(N-2)/4 on the
    sites, e = -C L/2 on the center, delta = (d-e)/2 and
    nu = sqrt(delta^2 + Omega^2/4):
        F(t) = |e^{i delta t} (cos nu t - i (delta/nu) sin nu t) - 1|^2 / 4
             = |sum_k c_k (e^{i w_k t} - 1)|^2 / 4
    over w = delta -+ nu with c = (nu +- delta) / (2 nu), where each
    e^{iwt} - 1 = -2 sin^2(wt/2) + i sin(wt).  The w and c that nearly
    vanish when |delta| >> Omega come from (nu - |delta|)(nu + |delta|) =
    Omega^2/4, so a suppressed transfer keeps its relative precision.
    """
    n, block = program.network.n_sites, program.block
    omega = program.network.omega
    delta = (constraint * (n - 2) / 4.0 + constraint * block / 2.0) / 2.0
    nu = math.sqrt(delta**2 + omega**2 / 4.0)
    outer = nu + abs(delta)
    inner = omega**2 / 4.0 / outer  # nu - |delta|
    if delta >= 0.0:
        terms = ((outer / (2.0 * nu), -inner), (inner / (2.0 * nu), outer))
    else:
        terms = ((inner / (2.0 * nu), -outer), (outer / (2.0 * nu), inner))

    def parts(t):
        x = -2.0 * sum(c * math.sin(w * t / 2.0) ** 2 for c, w in terms)
        y = sum(c * math.sin(w * t) for c, w in terms)
        return x, y

    def fidelity(t):
        x, y = parts(t)
        return (x * x + y * y) / 4.0

    def slope(t):
        # d/dt (x + iy) = 2 m sin(nu t) e^{i delta t}, m = -Omega^2 / (8 nu)
        x, y = parts(t)
        m = -(omega**2) / (8.0 * nu)
        return m * math.sin(nu * t) * (x * math.cos(delta * t) + y * math.sin(delta * t))

    return fidelity, slope


@settings(max_examples=60, deadline=None)
@given(
    block=st.integers(min_value=1, max_value=3),
    spare=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_transfer_time_is_the_scalar_peak(block, spare, seed):
    from scipy.optimize import brentq

    rng = np.random.default_rng(seed)
    amps = rng.uniform(0.3, 1.0, block)
    constraint = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0))
    prog = make_transfer_program(
        2 * block + 1 + spare,
        block,
        amps / np.linalg.norm(amps),
        gamma_scale=float(rng.uniform(0.5, 2.0)),
        constraint=constraint,
    )
    fidelity, slope = transfer_scalar(prog, constraint)
    horizon = 8.0 * math.pi / prog.network.omega
    times = np.linspace(0.0, horizon, 4097)
    if np.argmax([fidelity(t) for t in times]) == times.size - 1 and slope(horizon) > 0.0:
        # the fidelity still rises at the end of the scan: no peak, the horizon
        assert prog.t_transfer == horizon
        assert abs(prog.peak_target_fidelity - fidelity(horizon)) <= 1e-12
        return
    step = times[1]
    lo, hi = prog.t_transfer - step, prog.t_transfer + step
    peak = brentq(slope, lo, hi, xtol=1e-15, rtol=8.9e-16)
    assert abs(prog.t_transfer - peak) <= 1e-12 * peak
    assert abs(prog.peak_target_fidelity - fidelity(peak)) <= 1e-12


def test_transfer_time_stops_at_the_horizon_while_the_fidelity_rises():
    # the coarse maximum is the last scan point, and the fidelity still rises
    # there: the reported time is the end of the scan, not a peak
    prog = make_transfer_program(7, 1, [1.0], gamma_scale=1.0, constraint=2.0)
    fidelity, slope = transfer_scalar(prog, 2.0)
    horizon = 8.0 * math.pi / prog.network.omega
    assert prog.t_transfer == horizon
    assert slope(horizon) > 0.0
    assert abs(prog.peak_target_fidelity - fidelity(horizon)) <= 1e-12
    assert abs(prog.peak_target_fidelity - 0.848) < 1e-3


def test_suppressed_transfer_reports_its_scan_peak_not_time_zero():
    # at C = 1e5 the target fidelity stays below 1e-9 over the whole scan, so
    # a tie rule absolute in 1e-9 takes the first scan point, t = 0
    amp = 2.0**-0.5
    prog = make_transfer_program(5, 2, [amp, amp], gamma_scale=1.0, constraint=1e5)
    fidelity, _ = transfer_scalar(prog, 1e5)
    times = np.linspace(0.0, 8.0 * math.pi / prog.network.omega, 4097)
    best = max(fidelity(t) for t in times)
    assert 0.0 < best < 1e-9
    assert prog.t_transfer > 0.0
    assert abs(prog.peak_target_fidelity - best) <= 1e-12 * best


@settings(max_examples=60, deadline=None)
@given(
    block=st.integers(min_value=1, max_value=3),
    spare=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    constraint=st.one_of(st.just(0.0), st.floats(min_value=0.1, max_value=2.0),
                         st.floats(min_value=-2.0, max_value=-0.1)),
)
def test_property_transfer_fidelities_match_propagated_states(block, spare, seed, constraint):
    # the curve and the peak come from the bright mode's two phasors; the
    # reference diagonalises the full (N+1)-dimensional H
    rng = np.random.default_rng(seed)
    amps = rng.uniform(0.3, 1.0, block)
    c = amps / np.linalg.norm(amps)
    prog = make_transfer_program(
        2 * block + 1 + spare, block, c, gamma_scale=float(rng.uniform(0.5, 2.0)),
        constraint=constraint,
    )
    initial = np.zeros(prog.network.dim, dtype=complex)
    target = np.zeros(prog.network.dim, dtype=complex)
    initial[:block] = c
    target[block : 2 * block] = c
    times = np.append(rng.uniform(0.0, 8.0 * math.pi / prog.network.omega, 32), prog.t_transfer)
    states = propagate(prog.network, initial, times, "numerical")
    curve = fidelity_curve(prog, times)
    assert np.abs(curve.return_fidelity - np.abs(states @ initial) ** 2).max() <= 1e-12
    assert np.abs(curve.target_fidelity - np.abs(states @ target) ** 2).max() <= 1e-12
    assert abs(prog.peak_target_fidelity - abs(states[-1] @ target) ** 2) <= 1e-12


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
