"""Effective pair couplings extracted from linked ring doublets."""
from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from ringstar import cli, coupling
from ringstar.coupling import (
    Linker,
    SweepRow,
    b_sweep_evaluator,
    effective_coupling,
    find_delta_transitions,
    ring_pair_coupling,
    star_from_rings,
    sweep_anisotropy_ad,
    sweep_anisotropy_b,
)
from ringstar.errors import (
    AnisotropyDivergenceError,
    DimensionCapError,
    GroundDoubletError,
    ValidationError,
)
from ringstar.rings import (
    QubitEncoding,
    RingSpec,
    SiteMatrixElements,
    doublet_matrix_elements,
    regauge,
    ring_qubit_encoding,
    ring_qubit_encodings,
)

SPIN_HALF = RingSpec(sites=(0.5,), bond_couplings=(0.0,), crystal_fields=(0.0,))


def test_two_spin_half_rings_single_linker():
    # x10 = 1/2 and z00 = -1/2 on both sides, so gamma = 1/4 and Delta = 0
    pair, gap = ring_pair_coupling(SPIN_HALF, SPIN_HALF, [Linker(1, 1, 1.0)])
    assert abs(pair.gamma - 0.25) < 1e-14
    assert abs(pair.delta) < 1e-14
    assert gap == np.inf


def test_common_strength_scaling():
    spec = RingSpec.cr_ni(3)
    links = [Linker(1, 2, 1.0), Linker(4, 4, 0.7)]
    base, _ = ring_pair_coupling(spec, spec, links)
    scaled, _ = ring_pair_coupling(
        spec, spec, [Linker(l.ring_site, l.central_site, 3.5 * l.strength) for l in links]
    )
    assert abs(scaled.gamma - 3.5 * base.gamma) < 1e-12 * abs(base.gamma) * 3.5
    assert abs(scaled.delta - base.delta) < 1e-12


def test_scale_argument_rescales_gamma_only():
    pair, _ = ring_pair_coupling(SPIN_HALF, SPIN_HALF, [Linker(1, 1, 1.0)], scale=8.0)
    assert abs(pair.gamma - 2.0) < 1e-14
    assert abs(pair.delta) < 1e-14


def test_gauge_independence():
    # A solver is free to hand back the doublet with arbitrary overall
    # phases; re-fixing the gauge must wipe that freedom out before the
    # couplings are formed.
    spec = RingSpec.cr_ni(3)
    enc, elems = ring_qubit_encoding(spec)
    links = [Linker(1, 2, 1.0), Linker(4, 4, 2.0)]
    base = effective_coupling(elems, elems, links)
    rng = np.random.default_rng(5)
    for _ in range(4):
        phase0, phase1 = np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
        rotated = QubitEncoding(
            ket0=enc.ket0 * phase0,
            ket1=enc.ket1 * phase1,
            gap=enc.gap,
        )
        refixed = regauge(rotated, spec)
        twisted = doublet_matrix_elements(refixed, spec)
        out = effective_coupling(twisted, elems, links)
        assert abs(out.gamma - base.gamma) < 1e-10
        assert abs(out.delta - base.delta) < 1e-10


def test_vanishing_transverse_sum_is_a_divergence():
    elems = SiteMatrixElements(
        x10=np.zeros(2, dtype=np.complex128),
        z00=np.full(2, -0.4, dtype=np.complex128),
        z11=np.full(2, 0.4, dtype=np.complex128),
    )
    with pytest.raises(AnisotropyDivergenceError):
        effective_coupling(elems, elems, [Linker(1, 1, 1.0)])


def test_empty_linker_list_rejected():
    with pytest.raises(ValidationError):
        ring_pair_coupling(SPIN_HALF, SPIN_HALF, [])


def test_linker_site_bounds():
    with pytest.raises(ValidationError):
        ring_pair_coupling(SPIN_HALF, SPIN_HALF, [Linker(2, 1, 1.0)])


def test_star_from_rings_collects_pairs():
    central = SPIN_HALF
    rings = [SPIN_HALF, SPIN_HALF]
    links = [[Linker(1, 1, 1.0)], [Linker(1, 1, 2.0)]]
    net = star_from_rings(central, rings, links)
    assert np.allclose(net.gammas, [0.25, 0.5])
    assert np.allclose(net.deltas, [0.0, 0.0])


# frozen transition locations for the x=3 ring at J=17, a=0.9, d=0.3 with
# linkers (1,2)=1 and (4,4)=b; cross-checked below against the closed-form
# ratios of doublet matrix elements
B_ZERO = 2.477036029961104
B_POLE = 3.0028977666847823
B_MINUS_ONE = 2.922329682423149


def test_b_transitions_zero_then_pole():
    ev = b_sweep_evaluator()
    found = find_delta_transitions(ev, 0.0, 5.0)
    assert [t.kind for t in found] == ["zero", "pole"]
    assert [t.rising for t in found] == [False, True]
    assert all(type(t.rising) is bool for t in found)
    assert abs(found[0].b - B_ZERO) < 1e-9
    assert abs(found[1].b - B_POLE) < 1e-9


def test_b_transitions_match_matrix_element_ratios():
    _, el = ring_qubit_encoding(RingSpec.cr_ni(3))
    x = el.x10.real
    z = el.z00.real
    assert abs(-(x[0] * x[1]) / x[3] ** 2 - B_POLE) < 1e-10
    assert abs((z[0] * z[1] - x[0] * x[1]) / (x[3] ** 2 - z[3] ** 2) - B_ZERO) < 1e-10
    assert (
        abs((z[0] * z[1] - 2 * x[0] * x[1]) / (2 * x[3] ** 2 - z[3] ** 2) - B_MINUS_ONE)
        < 1e-10
    )


def test_level_crossing_reporting_at_minus_one():
    ev = b_sweep_evaluator()
    found = find_delta_transitions(ev, 0.0, 5.0, level=-1.0)
    zeros = [t for t in found if t.kind == "zero"]
    assert len(zeros) == 1
    assert abs(zeros[0].b - B_MINUS_ONE) < 1e-9


def brentq_transitions(evaluate, b_start, b_stop, level=0.0, points=501):
    """Reference: the same scan, each sign-change cell refined by scalar brentq.

    Poles are the root of gamma and zeros the root of Delta - level, with no
    use of the affine form.  Each cell is bracketed by the b values actually
    sampled, so a sample nudged off the pole is not evaluated on it again; a
    nudge that still diverges moves to the middle of the interior-side cell.
    """
    grid = np.linspace(b_start, b_stop, points)
    width = (b_stop - b_start) / (points - 1)
    used, gammas, offsets = [], [], []
    for j, b in enumerate(grid):
        b = float(b)
        try:
            pair = evaluate(b)
        except AnisotropyDivergenceError:
            try:
                pair = evaluate(b + 1e-9 * width)
                b += 1e-9 * width
            except AnisotropyDivergenceError:
                b += width / 2 if j < points - 1 else -width / 2
                pair = evaluate(b)
        used.append(b)
        gammas.append(pair.gamma)
        offsets.append(pair.delta - level)

    def gamma_of(b):
        try:
            return evaluate(b).gamma
        except AnisotropyDivergenceError:
            return 0.0  # below the divergence threshold is the root

    found = []
    for j in range(points - 1):
        if offsets[j] * offsets[j + 1] >= 0.0:
            continue
        lo, hi = used[j], used[j + 1]
        if gammas[j] * gammas[j + 1] < 0.0:
            b_at = brentq(gamma_of, lo, hi, xtol=1e-14, rtol=8.9e-16)
            kind = "pole"
        else:
            b_at = brentq(
                lambda b: evaluate(b).delta - level, lo, hi, xtol=1e-14, rtol=8.9e-16
            )
            kind = "zero"
        found.append((b_at, kind, offsets[j] < 0.0))
    return found


@settings(max_examples=150, deadline=None)
@given(
    x=st.sampled_from([1, 3]),
    sites=st.tuples(*[st.integers(min_value=0, max_value=3)] * 4),
    strength=st.floats(0.1, 3.0) | st.floats(-3.0, -0.1),
    a=st.floats(0.5, 1.5),
    # at d = 0 the ring is isotropic, z00 = -x10 on every site and Delta is 0
    # for every linker set, so the sign of Delta - 0 is rounding noise (the
    # SU(2) property below holds that invariant)
    d=st.floats(0.05, 0.5) | st.floats(-0.5, -0.05),
    level=st.floats(-3.0, 3.0),
    # a pole sits at -(x10 product of the reference) / (that of the tuned
    # linker), which lies in [-7, 4] for these rings
    b_start=st.floats(-7.0, 0.0),
    width=st.floats(1.0, 11.0),
    points=st.sampled_from([11, 101, 501]),
)
@example(x=3, sites=(0, 1, 3, 3), strength=1.0, a=0.9, d=0.3, level=0.0,
         b_start=0.0, width=5.0, points=501)
# the middle of the three samples is the pole: a pole cell and a zero cell
# each end on the nudged sample
@example(x=3, sites=(0, 1, 3, 3), strength=1.0, a=0.9, d=0.3, level=0.5,
         b_start=0.0, width=2 * B_POLE, points=3)
# the first (then the last) sample is the pole and its nudge, 2e-12, stays in
# the divergence window; Delta is constant here, so there is no transition
@example(x=3, sites=(0, 0, 0, 0), strength=1.0, a=1.0, d=0.5, level=0.0,
         b_start=-1.0, width=1.0, points=501)
@example(x=3, sites=(0, 0, 0, 0), strength=1.0, a=1.0, d=0.5, level=0.0,
         b_start=-2.0, width=1.0, points=501)
def test_property_transitions_match_brentq_reference(
    x, sites, strength, a, d, level, b_start, width, points
):
    n = x + 1
    ev = b_sweep_evaluator(
        x=x,
        a=a,
        d=d,
        reference=Linker(1 + sites[0] % n, 1 + sites[1] % n, strength),
        tuned_sites=(1 + sites[2] % n, 1 + sites[3] % n),
    )
    b_stop = b_start + width
    want = brentq_transitions(ev, b_start, b_stop, level=level, points=points)
    got = find_delta_transitions(ev, b_start, b_stop, level=level, points=points)
    assert [(t.kind, t.rising) for t in got] == [w[1:] for w in want]
    for t, (b_ref, _, _) in zip(got, want):
        assert abs(t.b - b_ref) <= 1e-12 * max(1.0, abs(b_ref))


@settings(max_examples=40, deadline=None)
@given(
    xs=st.tuples(st.sampled_from([1, 3, 5]), st.sampled_from([1, 3, 5])),
    bonds=st.lists(st.floats(1.0, 20.0), min_size=12, max_size=12),
    links=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.floats(-3.0, 3.0)),
                   min_size=1, max_size=4),
)
@example(xs=(5, 3), bonds=[17.0] * 5 + [15.3] + [17.0] * 6, links=[(0, 0, 1.0), (3, 2, -0.7)])
def test_property_isotropic_rings_keep_the_su2_invariant(xs, bonds, links):
    # d = 0 leaves an antiferromagnetic ring SU(2)-symmetric, so by
    # Wigner-Eckart its doublet has |x10| = |z00| on every site and Delta = 0
    # for any linkers: a reference for x = 5, where the Kronecker route is slow
    specs = [RingSpec((1.5,) * x + (1.0,), tuple(bonds[6 * i : 6 * i + x + 1]), (0.0,) * (x + 1))
             for i, x in enumerate(xs)]
    (_, ring), (_, central) = ring_qubit_encodings(specs)
    for elems in (ring, central):
        assert np.abs(np.abs(elems.x10) - np.abs(elems.z00)).max() <= 1e-12 * np.abs(elems.z00).max()
    linkers = [Linker(1 + m % (xs[0] + 1), 1 + n % (xs[1] + 1), s) for m, n, s in links]
    try:
        pair = effective_coupling(ring, central, linkers)
    except AnisotropyDivergenceError:
        return
    # the rounding of the x and z sums, over the transverse sum
    terms = sum(abs(l.strength * ring.x10[l.ring_site - 1] * central.x10[l.central_site - 1])
                for l in linkers)
    assert abs(pair.delta) <= 1e-12 * terms / abs(pair.gamma)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 8: a pole and a zero in one scan cell leave Delta - level "
    "with one sign at both ends, so the scan reports neither",
)
def test_pole_and_zero_sharing_a_scan_cell_are_both_reported():
    ev = b_sweep_evaluator(
        x=1, a=0.816, d=-0.467, reference=Linker(2, 2, 1.0), tuned_sites=(1, 2)
    )
    found = find_delta_transitions(ev, -7.0, 4.0, level=0.88)
    # where a fine scan of the same evaluator over [0.3, 0.5] places them
    assert [t.kind for t in found] == ["pole", "zero"]
    assert abs(found[0].b - 0.3943694) < 1e-6
    assert abs(found[1].b - 0.4131277) < 1e-6


def test_scan_point_on_the_pole_is_nudged():
    ev = b_sweep_evaluator()
    calls = []

    def evaluate(b):
        calls.append(b)
        return ev(b)

    found = find_delta_transitions(evaluate, 0.0, 2 * B_POLE, level=0.5, points=3)
    # the sample at B_POLE diverges and is taken again 1e-9 of a cell later;
    # the scan makes no other call
    assert calls == [0.0, B_POLE, B_POLE + 1e-9 * B_POLE, 2 * B_POLE]
    assert [(t.kind, t.rising) for t in found] == [("pole", True), ("zero", False)]
    assert abs(found[0].b - B_POLE) < 1e-9


def test_b_sweep_rows_and_divergent_row_kept():
    rows = sweep_anisotropy_b([0.0, B_POLE, 5.0])
    assert len(rows) == 3
    assert rows[0].status == "ok" and rows[2].status == "ok"
    assert rows[1].status == "divergent"
    assert rows[1].b == pytest.approx(B_POLE)
    assert rows[1].gamma is None and rows[1].delta is None


def test_b_sweep_matches_evaluator():
    ev = b_sweep_evaluator()
    rows = sweep_anisotropy_b([0.5, 1.5])
    for row, b in zip(rows, (0.5, 1.5)):
        pair = ev(b)
        assert row.gamma == pytest.approx(pair.gamma, rel=1e-12)
        assert row.delta == pytest.approx(pair.delta, rel=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    x=st.sampled_from([1, 3]),
    sites=st.tuples(*[st.integers(min_value=0, max_value=3)] * 4),
    on_reference=st.booleans(),
    strength=st.floats(0.1, 3.0) | st.floats(-3.0, -0.1),
    d=st.floats(-0.5, 0.5),
    scale=st.floats(0.1, 10.0),
    # with the tuned linker on the reference's sites the pole is b = -1 exactly
    bs=st.lists(st.floats(-7.0, 4.0) | st.sampled_from([-1.0, 0.0]), max_size=20),
)
@example(x=3, sites=(3, 3, 0, 0), on_reference=True, strength=-1.5, d=0.3,
         scale=1.0, bs=[-1.0, 0.5])
def test_property_b_evaluator_is_effective_coupling_bit_for_bit(
    x, sites, on_reference, strength, d, scale, bs
):
    n = x + 1
    reference = Linker(1 + sites[0] % n, 1 + sites[1] % n, strength)
    tuned = (1 + sites[2] % n, 1 + sites[3] % n)
    if on_reference:
        tuned = (reference.ring_site, reference.central_site)
    ev = b_sweep_evaluator(
        x=x, d=d, reference=reference, tuned_sites=tuned, scale=scale
    )
    _, elems = ring_qubit_encoding(RingSpec.cr_ni(x, crystal_field=d))
    for b in bs:
        links = [reference, Linker(*tuned, b * strength)]
        try:
            want = effective_coupling(elems, elems, links, scale=scale)
        except AnisotropyDivergenceError:
            with pytest.raises(AnisotropyDivergenceError):
                ev(b)
            continue
        assert not (on_reference and b == -1.0)  # the exact pole must diverge
        got = ev(b)
        assert (got.gamma, got.delta) == (want.gamma, want.delta)


def per_b_rows(b_values, reference, tuned_sites, x=3):
    """`sweep_anisotropy_b`'s rows at its default a and d, one
    `effective_coupling` call per b."""
    enc, elems = ring_qubit_encoding(RingSpec.cr_ni(x))
    rows = []
    for b in b_values:
        links = [reference, Linker(*tuned_sites, b * reference.strength)]
        try:
            pair = effective_coupling(elems, elems, links)
        except AnisotropyDivergenceError:
            rows.append(SweepRow(0.9, 0.3, b, None, None, enc.gap, "divergent"))
        else:
            rows.append(SweepRow(0.9, 0.3, b, pair.gamma, pair.delta, enc.gap, "ok"))
    return rows


@pytest.mark.parametrize("x", [1, 3])
def test_b_sweep_rows_equal_per_b_effective_coupling_rows(x, monkeypatch):
    calls = []
    monkeypatch.setattr(coupling, "b_sweep_evaluator", lambda *a, **k: calls.append(k))
    bs = [-2.5, -1.0, 0.0, 0.5, 3.0]
    # tuned linker on the reference's sites: b = -1 is exactly the pole
    reference = Linker(1, 2, -0.8)
    rows = sweep_anisotropy_b(bs, x=x, reference=reference, tuned_sites=(1, 2))
    assert rows == per_b_rows(bs, reference, (1, 2), x=x)
    assert [row.status for row in rows] == ["ok", "divergent", "ok", "ok", "ok"]
    assert rows[1].gap is not None
    # default reference and tuned sites (x + 1, x + 1)
    rows = sweep_anisotropy_b(bs, x=x)
    assert rows == per_b_rows(bs, Linker(1, 2, 1.0), (x + 1, x + 1), x=x)
    # the sweep never goes through the public evaluator the tracer counts
    assert calls == []


def test_b_sweep_without_a_doublet_keeps_every_b():
    rows = sweep_anisotropy_b([0.0, 1.0], x=2)
    assert rows == [
        SweepRow(0.9, 0.3, b, None, None, None, "no-doublet") for b in (0.0, 1.0)
    ]


def test_sweeps_check_linker_sites_before_any_ed(encoded):
    # x = 2 rings have no doublet: before the check, these gave "no-doublet"
    # rows, and the x = 1 evaluator failed only on its first call
    b_cases = [
        ({"x": 2, "tuned_sites": (9, 9)}, "linker ring site 9 out of range"),
        ({"x": 2, "tuned_sites": (1, 0)}, "linker central site 0 out of range"),
        ({"x": 1, "tuned_sites": (9, 9)}, "linker ring site 9 out of range"),
        ({"x": 1, "reference": Linker(1, 3, 1)}, "linker central site 3 out of range"),
    ]
    for keywords, message in b_cases:
        with pytest.raises(ValidationError, match=message):
            sweep_anisotropy_b([0.0, 1.0], **keywords)
        with pytest.raises(ValidationError, match=message):
            b_sweep_evaluator(**keywords)
    ad_cases = [
        ([Linker(9, 9, 1.0)], "linker ring site 9 out of range"),
        ([Linker(1, 4, 1.0)], "linker central site 4 out of range"),
        ([], "need at least one linker"),
    ]
    for linkers, message in ad_cases:
        with pytest.raises(ValidationError, match=message):
            sweep_anisotropy_ad([0.9], [0.3], linkers, x=2)
    assert encoded == []


def test_ad_sweep_grid_shape_and_consistency():
    links = [Linker(1, 2, 1.0), Linker(4, 4, 0.7)]
    rows = sweep_anisotropy_ad([0.9], [0.3], links)
    assert len(rows) == 1
    direct, gap = ring_pair_coupling(RingSpec.cr_ni(3), RingSpec.cr_ni(3), links)
    assert rows[0].status == "ok"
    assert rows[0].gamma == pytest.approx(direct.gamma, rel=1e-12)
    assert rows[0].delta == pytest.approx(direct.delta, rel=1e-12)
    assert rows[0].gap == pytest.approx(gap, rel=1e-12)


def test_ad_sweep_delta_monotone_in_d_near_uniform_ring():
    links = [Linker(1, 2, 1.0), Linker(4, 4, 0.7)]
    d_grid = [0.0, 0.125, 0.25, 0.375, 0.5]
    rows = sweep_anisotropy_ad([1.0], d_grid, links)
    deltas = [row.delta for row in rows]
    assert all(row.status == "ok" for row in rows)
    diffs = np.diff(deltas)
    assert np.all(diffs > 0) or np.all(diffs < 0)


def test_ad_sweep_row_statuses():
    # x = 2 gives an integer total spin, so the ring has no Kramers doublet
    (row,) = sweep_anisotropy_ad([0.9], [0.3], [Linker(1, 2, 1.0)], x=2)
    assert (row.a, row.d, row.b) == (0.9, 0.3, None)
    assert row.status == "no-doublet"
    assert row.gamma is None and row.delta is None and row.gap is None
    # cancelling linkers: the transverse sum vanishes, but the ring is fine
    cancelling = [Linker(1, 2, 1.0), Linker(1, 2, -1.0)]
    (row,) = sweep_anisotropy_ad([0.9], [0.3], cancelling, x=3)
    assert row.status == "divergent"
    assert row.gamma is None and row.delta is None
    assert row.gap == ring_qubit_encoding(RingSpec.cr_ni(3))[0].gap


@pytest.fixture
def encoded(monkeypatch):
    """The specs `ringstar.coupling` encodes, alone or stacked, in call order."""
    specs = []

    def counting(spec, dim_cap):
        specs.append(spec)
        return ring_qubit_encoding(spec, dim_cap=dim_cap)

    def counting_stack(batch, dim_cap):
        specs.extend(batch)
        return ring_qubit_encodings(batch, dim_cap=dim_cap)

    monkeypatch.setattr("ringstar.coupling.ring_qubit_encoding", counting)
    monkeypatch.setattr("ringstar.coupling.ring_qubit_encodings", counting_stack)
    return specs


def test_ring_pair_coupling_encodes_a_shared_ring_once(encoded):
    spec = RingSpec.cr_ni(3)
    ring_pair_coupling(spec, spec, [Linker(1, 2, 1.0)])
    assert encoded == [spec]


def test_ring_pair_coupling_checks_linker_sites_before_any_ed(encoded):
    with pytest.raises(ValidationError, match="linker central site 5 out of range 1..4"):
        ring_pair_coupling(RingSpec.cr_ni(1), RingSpec.cr_ni(3), [Linker(1, 5, 1.0)])
    assert encoded == []


def test_star_from_rings_checks_every_linker_set_before_any_ed(encoded):
    # the bad site is on the last ring: no ring, the central one included, is encoded
    central, ring = RingSpec.cr_ni(3), RingSpec.cr_ni(1)
    links = [[Linker(1, 2, 1.0)], [Linker(1, 2, 1.0)], [Linker(1, 2, 1.0), Linker(3, 1, 1.0)]]
    with pytest.raises(ValidationError, match="linker ring site 3 out of range 1..2"):
        star_from_rings(central, [ring, ring, ring], links)
    assert encoded == []


@pytest.mark.parametrize("outer, error, exit_code, stderr", [
    ((2, 3), GroundDoubletError, 3,
     "error [validation]: integer total spin: no S_z = +-1/2 doublet\n"),
    ((3, 2), DimensionCapError, 5,
     "error [dimension-cap]: ring dimension 192 exceeds the cap 100\n"),
])
def test_the_first_failing_ring_in_first_use_order_decides(tmp_path, capsys, outer, error,
                                                          exit_code, stderr):
    # central first, then the outer rings in config order: x = 2 has integer
    # total spin (no doublet), x = 3 has 192 states (over the cap)
    rings = [RingSpec.cr_ni(x) for x in outer]
    with pytest.raises(error) as raised:
        star_from_rings(RingSpec.cr_ni(1), rings, [[Linker(1, 1, 1.0)]] * 2, dim_cap=100)
    assert type(raised.value) is error
    link = {"ring_site": 1, "central_site": 1, "strength": 1.0}
    payload = {"mode": "microscopic", "dim_cap": 100, "microscopic": {
        "central": {"x": 1}, "rings": [{"x": x} for x in outer], "linkers": [[link]] * 2}}
    cfg, out = tmp_path / "cfg.json", tmp_path / "x.csv"
    cfg.write_text(json.dumps(payload), encoding="utf-8")
    assert cli.main(["spectrum", "--config", str(cfg), "--out", str(out)]) == exit_code
    assert capsys.readouterr().err == stderr
    assert not out.exists()


def test_ad_grid_points_without_a_doublet_get_their_own_rows():
    # a = -3 with d <= 0 leaves the x = 3 ring without a doublet; every other
    # point is the one-point sweep's row, and a cap fails the whole grid
    links = [Linker(1, 2, 1.0), Linker(4, 4, 0.7)]
    a_grid, d_grid = [-3.0, 0.9], [-5.0, 0.3]
    rows = sweep_anisotropy_ad(a_grid, d_grid, links)
    assert [row.status for row in rows] == ["no-doublet", "ok", "ok", "ok"]
    assert rows == [sweep_anisotropy_ad([a], [d], links)[0] for a in a_grid for d in d_grid]
    with pytest.raises(DimensionCapError, match="ring dimension 192 exceeds the cap 100"):
        sweep_anisotropy_ad(a_grid, d_grid, links, dim_cap=100)


def test_linker_site_messages_give_the_valid_range():
    for links, message in [
        ([Linker(9, 1, 1.0)], "linker ring site 9 out of range 1..2"),
        ([Linker(0, 1, 1.0)], "linker ring site 0 out of range 1..2"),
        ([Linker(1, 5, 1.0)], "linker central site 5 out of range 1..4"),
    ]:
        with pytest.raises(ValidationError) as raised:
            coupling._check_linkers(links, 2, 4)
        assert str(raised.value) == message


def test_star_from_rings_encodes_each_distinct_ring_once(encoded):
    central, ring = RingSpec.cr_ni(3), RingSpec.cr_ni(1)
    links = [Linker(1, 2, 1.0)]
    star = star_from_rings(central, [ring, ring, central], [links] * 3)
    assert encoded == [central, ring]
    assert star.gammas[0] == star.gammas[1]
