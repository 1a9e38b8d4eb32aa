"""Acceptance suite: one test per contract criterion, each printing a single
pass/fail line (run with -s to see them inline).  Every tolerance is stated
next to the check it guards."""

import math
import time

import numpy as np

from ringstar.coupling import (
    Linker,
    b_sweep_evaluator,
    effective_coupling,
    find_delta_transitions,
)
from ringstar.oracle import (
    QUBIT_CAP,
    cross_validate,
    embed_in_full_space,
    full_space_hamiltonian,
    project_to_subspace,
)
from ringstar.linalg import hermitian_eigendecompose
from ringstar.protocols import (
    apply_phase_correction,
    generation_error,
    make_transfer_program,
    fluctuation_sweep,
    plan_w_from_center,
    plan_w_from_site,
)
from ringstar.rings import RingSpec, ring_qubit_encoding
from ringstar.star import (
    StarNetwork,
    analytic_eigensystem,
    basis_state,
    build_effective_hamiltonian,
    closed_form_from_center,
    closed_form_from_site,
    evolve_subspace,
    uniform_star,
)


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {label} ({detail})"
    print(line)
    assert ok, line


def _random_constrained(rng, n: int) -> StarNetwork:
    g = rng.uniform(0.2, 2.0, n) * rng.choice([-1.0, 1.0], n)
    c = rng.uniform(-2.0, 2.0)
    return StarNetwork(gammas=g, deltas=c / g - 1.0)


def _full_space_evolve(network, state, t):
    h = full_space_hamiltonian(network).toarray()
    eig = hermitian_eigendecompose(h)
    full0 = embed_in_full_space(state, network.n_sites)
    phases = np.exp(-1j * eig.values * t)
    return eig.vectors @ (phases * (eig.vectors.conj().T @ full0))


def test_criterion_1_spectral_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_value = 0.0
    worst_residual = 0.0
    for n in range(2, 13):
        for _ in range(100):
            net = _random_constrained(rng, n)
            c = net.constraint_value
            omega = net.omega
            disc = math.sqrt(4.0 * omega**2 + c**2 * (n - 1) ** 2)
            reference = np.sort(
                np.concatenate(
                    [
                        np.full(n - 1, c * (n - 2) / 4.0),
                        [(-c - disc) / 4.0, (-c + disc) / 4.0],
                    ]
                )
            )
            h = build_effective_hamiltonian(net)
            numeric = np.linalg.eigvalsh(h)
            worst_value = max(worst_value, float(np.abs(reference - numeric).max()))
            es = analytic_eigensystem(net)
            v = es.vectors
            resid = np.abs(h @ v - v * es.values).max()
            worst_residual = max(worst_residual, float(resid))
    elapsed = time.perf_counter() - start
    ok = worst_value <= 1e-10 and worst_residual <= 1e-9 and elapsed < 10.0
    _report(
        1,
        "closed-form spectrum matches dense eigensolver, N = 2..12 x 100 sets",
        ok,
        f"value dev {worst_value:.2e} <= 1e-10, residual {worst_residual:.2e}"
        f" <= 1e-9, {elapsed:.1f}s < 10s",
    )


def test_criterion_2_closed_form_propagators():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        net = _random_constrained(rng, n)
        t = float(rng.uniform(-10.0, 10.0))
        source = int(rng.integers(1, n + 2))
        if source == n + 1:
            analytic = closed_form_from_center(net, [t])[0]
        else:
            analytic = closed_form_from_site(net, source, [t])[0]
        numeric = evolve_subspace(net, basis_state(net, source), t, method="numerical")
        worst = max(worst, float(np.abs(analytic - numeric).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 30.0
    _report(
        2,
        "closed-form propagation matches spectral propagation, 1000 triples",
        ok,
        f"componentwise dev {worst:.2e} <= 1e-10, {elapsed:.1f}s < 30s",
    )


def test_criterion_3_w_generation_from_center():
    worst_pop = 0.0
    worst_err = 0.0
    for n in range(2, 9):
        for gamma in (1.0, 0.6):
            net = uniform_star(n, gamma)
            for k in (0, 1, 2):
                plan = plan_w_from_center(net, winding=k)
                assert abs(plan.t_w - (2 * k + 1) * math.pi / net.omega) < 1e-12
                out = evolve_subspace(
                    net, basis_state(net, n + 1), plan.t_w, method="numerical"
                )
                pops = np.abs(out[:n]) ** 2
                worst_pop = max(worst_pop, float(np.abs(pops - 1.0 / n).max()))
                worst_err = max(worst_err, generation_error(out))
    ok = worst_pop <= 1e-10 and worst_err <= 1e-10
    _report(
        3,
        "center-sourced W reaches uniform populations at odd multiples of pi/Omega",
        ok,
        f"population dev {worst_pop:.2e} <= 1e-10, E_r {worst_err:.2e} <= 1e-10",
    )


def test_criterion_4_w_generation_from_site():
    worst_time = 0.0
    worst_err = 0.0
    for constraint, branch in ((0.0, "plus"), (0.0, "minus"), (0.5, "plus")):
        plan = plan_w_from_site(3, 1, constraint, 1.0, winding=1, branch=branch)
        omega = plan.network.omega
        expected_t = 2.0 * math.pi / math.sqrt(constraint**2 + omega**2)
        worst_time = max(worst_time, abs(plan.t_w - expected_t))
        out = evolve_subspace(
            plan.network, basis_state(plan.network, 1), plan.t_w, method="numerical"
        )
        corrected = apply_phase_correction(out, 1, plan.chi)
        worst_err = max(worst_err, generation_error(corrected))
    ok = worst_time <= 1e-10 and worst_err <= 1e-8
    _report(
        4,
        "site-sourced W plan at N = 3: t_W = 2 pi / sqrt(C^2 + Omega^2), "
        "corrected error small",
        ok,
        f"time dev {worst_time:.2e} <= 1e-10, E_r {worst_err:.2e} <= 1e-8",
    )


def test_criterion_5_fluctuation_response():
    # E_r grows quadratically near delta = 0, so the ratio-band statement can
    # only hold at the edge of the window: it is checked at |delta| = 0.1,
    # monotonicity and the zero at the origin over the whole window.
    start = time.perf_counter()
    grid = np.linspace(-0.1, 0.1, 21)
    rows = fluctuation_sweep(grid)
    errs = np.array([e for _, e in rows])
    mid = 10
    zero_ok = errs[mid] <= 1e-8
    ratio_lo = errs[0] / 0.1
    ratio_hi = errs[-1] / 0.1
    band_ok = 0.05 <= ratio_lo <= 0.15 and 0.05 <= ratio_hi <= 0.15
    mono_ok = bool(
        np.all(np.diff(errs[: mid + 1]) <= 1e-15)
        and np.all(np.diff(errs[mid:]) >= -1e-15)
    )
    elapsed = time.perf_counter() - start
    ok = zero_ok and band_ok and mono_ok and elapsed < 5.0
    _report(
        5,
        "generation error vs coupling fluctuation: zero at origin, ~|delta|/10 "
        "at the window edge, monotone per side",
        ok,
        f"E_r(0) {errs[mid]:.2e} <= 1e-8, edge ratios {ratio_lo:.3f}/{ratio_hi:.3f}"
        f" in [0.05, 0.15], monotone {mono_ok}, {elapsed:.1f}s < 5s",
    )


def test_criterion_6_block_transfer():
    start = time.perf_counter()
    amp = 1.0 / math.sqrt(2.0)
    program = make_transfer_program(5, 2, [amp, amp], gamma_scale=math.sqrt(2.0))
    net = program.network
    initial = np.zeros(6, dtype=complex)
    initial[:2] = amp
    target = np.zeros(6, dtype=complex)
    target[2:4] = amp

    f0 = abs(np.vdot(initial, initial)) ** 2
    period_state = evolve_subspace(net, initial, 2.0 * math.pi)
    f_period = abs(np.vdot(initial, period_state)) ** 2
    half_state = evolve_subspace(net, initial, math.pi)
    f_half = abs(np.vdot(target, half_state)) ** 2
    spectator = 0.0
    for t in np.linspace(0.0, 2.0 * math.pi, 101):
        out = evolve_subspace(net, initial, float(t))
        spectator = max(spectator, float(abs(out[4]) ** 2))
    elapsed = time.perf_counter() - start
    ok = (
        abs(f0 - 1.0) < 1e-15
        and abs(f_period - 1.0) <= 1e-9
        and f_half >= 1.0 - 1e-8
        and spectator <= 1e-12
        and elapsed < 5.0
    )
    _report(
        6,
        "two-site block transfer: unit return at the period, unit crossing at "
        "the half period, spectator site empty",
        ok,
        f"F(2pi) dev {abs(f_period - 1.0):.2e} <= 1e-9, F_target(pi) "
        f"{f_half:.12f} >= 1-1e-8, spectator {spectator:.2e} <= 1e-12, "
        f"{elapsed:.1f}s < 5s",
    )


def test_criterion_7_microscopic_ring_layer():
    start = time.perf_counter()
    spec = RingSpec.cr_ni(3)  # three spin-3/2 plus one spin-1, J=17, a=0.9, d=0.3
    enc, elems = ring_qubit_encoding(spec)
    gap_ok = enc.gap > 0.0
    doublet_ok = abs(elems.z00.sum() + 0.5) < 1e-8 and abs(elems.z11.sum() - 0.5) < 1e-8

    evaluate = b_sweep_evaluator()
    transitions = find_delta_transitions(evaluate, 0.0, 5.0)
    rising = [tr for tr in transitions if tr.rising]
    one_rising = len(rising) == 1
    pole_ok = one_rising and abs(rising[0].b - 3.0028977666847823) < 1e-6

    links = [Linker(1, 2, 1.0), Linker(4, 4, 0.7)]
    base = effective_coupling(elems, elems, links)
    scaled = effective_coupling(
        elems, elems, [Linker(l.ring_site, l.central_site, 3.7 * l.strength) for l in links]
    )
    scaling_ok = abs(scaled.delta - base.delta) <= 1e-12
    elapsed = time.perf_counter() - start
    ok = gap_ok and doublet_ok and one_rising and pole_ok and scaling_ok and elapsed < 60.0
    _report(
        7,
        "substituted ring gives a gapped S_z = +-1/2 doublet; anisotropy flips "
        "sign once along the linker-ratio sweep; uniform exchange scaling "
        "leaves it fixed",
        ok,
        f"gap {enc.gap:.6f} > 0, rising transitions {len(rising)} == 1 at "
        f"b {rising[0].b if rising else float('nan'):.6f}, scaling dev "
        f"{abs(scaled.delta - base.delta):.2e} <= 1e-12, {elapsed:.1f}s < 60s",
    )


def test_criterion_8_full_space_closure():
    leak_worst = 0.0

    # center-sourced W on genuine qubits
    net3 = uniform_star(3, 1.0)
    plan3 = plan_w_from_center(net3)
    full = _full_space_evolve(net3, basis_state(net3, 4), plan3.t_w)
    amps, leak = project_to_subspace(full, 3)
    leak_worst = max(leak_worst, leak)
    center_err = generation_error(amps)
    center_pop = float(np.abs(np.abs(amps[:3]) ** 2 - 1.0 / 3.0).max())

    # site-sourced W on genuine qubits
    plan_site = plan_w_from_site(3, 1, 0.0, 1.0, winding=1)
    full = _full_space_evolve(
        plan_site.network, basis_state(plan_site.network, 1), plan_site.t_w
    )
    amps, leak = project_to_subspace(full, 3)
    leak_worst = max(leak_worst, leak)
    site_err = generation_error(apply_phase_correction(amps, 1, plan_site.chi))

    # block transfer on genuine qubits
    amp = 1.0 / math.sqrt(2.0)
    program = make_transfer_program(5, 2, [amp, amp], gamma_scale=math.sqrt(2.0))
    initial = np.zeros(6, dtype=complex)
    initial[:2] = amp
    target = np.zeros(6, dtype=complex)
    target[2:4] = amp
    full = _full_space_evolve(program.network, initial, math.pi)
    amps, leak = project_to_subspace(full, 5)
    leak_worst = max(leak_worst, leak)
    transfer_fidelity = float(abs(np.vdot(target, amps)) ** 2)

    # away from pure transverse coupling the qubit conventions genuinely
    # disagree with the effective model; that deviation is recorded, not bounded
    g = np.array([1.0, 2.0])
    skewed = StarNetwork(gammas=g, deltas=1.0 / g - 1.0)
    checks = cross_validate(skewed, basis_state(skewed, 3), [1.3])
    by_name = {c.name: c for c in checks}
    discrepancy = by_name["subspace_vs_fullspace"]
    reported_ok = (
        discrepancy.threshold is None
        and discrepancy.passed is None
        and all(c.passed is not False for c in checks)
    )

    ok = (
        center_err <= 1e-8
        and center_pop <= 1e-8
        and site_err <= 1e-8
        and transfer_fidelity >= 1.0 - 1e-8
        and leak_worst <= 1e-12
        and reported_ok
    )
    _report(
        8,
        "full-space qubit dynamics reproduces the W and transfer protocols at "
        "C = 0 and stays inside the single-excitation sector",
        ok,
        f"W errors {center_err:.2e}/{site_err:.2e} <= 1e-8, transfer fidelity "
        f"{transfer_fidelity:.12f} >= 1-1e-8, leakage {leak_worst:.2e} <= 1e-12, "
        f"C != 0 deviation {discrepancy.max_deviation:.2e} reported unasserted",
    )


def test_criterion_8_at_the_qubit_cap():
    # the full-space check at its advertised size: 14 genuine qubits, C = 0,
    # a W release from the center followed over two generation times
    start = time.perf_counter()
    rng = np.random.default_rng(814)
    n = QUBIT_CAP - 1
    g = rng.uniform(0.5, 1.5, n) * rng.choice([-1.0, 1.0], n)
    net = StarNetwork(gammas=g, deltas=np.full(n, -1.0))
    times = np.linspace(0.0, 2.0 * math.pi / net.omega, 1001)
    checks = cross_validate(net, basis_state(net, n + 1), times)
    by_name = {c.name: c for c in checks}
    elapsed = time.perf_counter() - start
    ok = (
        [c.threshold for c in checks] == [1e-9, 1e-9, 1e-12]
        and all(c.passed is not False for c in checks)
        and elapsed < 10.0
    )
    _report(
        8,
        f"full-space closure at the {QUBIT_CAP}-qubit cap on a 1001-point grid",
        ok,
        f"closed form {by_name['closed_form_vs_spectral'].max_deviation:.2e}, "
        f"full space {by_name['subspace_vs_fullspace'].max_deviation:.2e} <= 1e-9, "
        f"leakage {by_name['excitation_leakage'].max_deviation:.2e} <= 1e-12, "
        f"{elapsed:.1f}s < 10s",
    )
