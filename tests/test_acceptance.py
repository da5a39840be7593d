"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints one pass/fail line (visible with -s or on failure) and
asserts the criterion exactly as specified.  Two target values are not
supported by the mode algebra (criteria 8 and 11); their assertions are
kept as stated and fail with the measured numbers in the message rather
than being loosened.  README.md discusses both.
"""

import time

import numpy as np

from elliptic_oam import quantum, verify, vortex
from elliptic_oam.beams import eval_hig, eval_ig, sample_grid
from elliptic_oam.ince import ModeIndex, Parity, ince_ode_residual, solve_ince, valid_modes
from elliptic_oam.linalg import plane_quadrature_grid
from elliptic_oam.verify import (
    GOLDEN_CROSSING_75_77,
    GOLDEN_OAM_22_AT_2,
    GOLDEN_TURNING_POINT_73,
    GOLDEN_TURNING_POINT_75,
    ig22_closed_form,
    quadrature_weights,
)

from oracles import geometry, random_states

EPS_GRID = (0.01, 0.5, 1.0, 2.0, 5.0, 10.0)


def report(number, ok, detail):
    print(f"ACCEPTANCE {number:02d} [{'PASS' if ok else 'FAIL'}] {detail}")


def helical(p, m, sign, eps):
    return quantum.oam_expectation(
        quantum.helical_state(ModeIndex(p, m, Parity.EVEN), sign, eps)
    )


def test_criterion_01_ince_ode_residual():
    start = time.perf_counter()
    worst = 0.0
    for mode in valid_modes(12):
        for eps in EPS_GRID:
            worst = max(worst, ince_ode_residual(solve_ince(mode, eps)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed <= 10.0
    report(1, ok, f"max residual {worst:.3e} (<= 1e-9), runtime {elapsed:.1f}s (<= 10s)")
    assert worst <= 1e-9
    assert elapsed <= 10.0


def test_criterion_02_zero_ellipticity_eigenvalue_anchor():
    worst = max(abs(solve_ince(mode, 0.0).eigenvalue - mode.m**2) for mode in valid_modes(12))
    report(2, worst <= 1e-8, f"max |a - m^2| at eps=0: {worst:.3e} (<= 1e-8)")
    assert worst <= 1e-8


def test_criterion_03_decomposition_quadrature_equivalence():
    start = time.perf_counter()
    worst = 0.0
    modes = valid_modes(8)
    plane = verify._QuadraturePlane(1.0)  # one LG table for the three eps, as in the battery
    for eps in (0.5, 2.0, 5.0):
        for mode, oracle in zip(modes, verify._overlap_weights(modes, eps, plane)):
            weights = dict(quantum.decompose(mode, eps).terms)
            worst = max(worst, max(abs(weights[i] - oracle[i]) for i in oracle))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-7 and elapsed <= 60.0
    report(3, ok, f"max |D - overlap| {worst:.3e} (<= 1e-7), runtime {elapsed:.1f}s (<= 60s)")
    assert worst <= 1e-7
    assert elapsed <= 60.0


def test_criterion_04_ig22_closed_form():
    computed = dict(quantum.decompose(ModeIndex(2, 2, Parity.EVEN), 0.5).terms)
    worst = max(abs(computed[i] - d) for i, d in ig22_closed_form(0.5).items())
    logged = "1 - sqrt(1 + eps^2)" in verify.IG22_NOTE
    ok = worst <= 1e-10 and logged
    report(4, ok, f"max closed-form deviation {worst:.3e} (<= 1e-10), typo resolution logged: {logged}")
    assert worst <= 1e-10
    assert logged


def test_criterion_05_limit_anchors():
    worst2 = max(abs(helical(p, 2, "plus", 1e-6) - 2.0) for p in (2, 4, 6, 8))
    worst7 = max(abs(helical(7, m, "plus", 1e-6) - m) for m in (1, 3, 5, 7))
    ok = worst2 <= 1e-5 and worst7 <= 1e-5
    report(5, ok, f"max |<Lz> - l| at eps=1e-6: degree-2 {worst2:.3e}, order-7 {worst7:.3e} (<= 1e-5)")
    assert worst2 <= 1e-5
    assert worst7 <= 1e-5


def test_criterion_06_extremal_degree_monotonicity():
    grid = np.geomspace(0.01, 30.0, 512)
    down = quantum.oam_curve(ModeIndex(7, 7, Parity.EVEN), "plus", grid)
    up = quantum.oam_curve(ModeIndex(7, 1, Parity.EVEN), "plus", grid)
    decreasing = bool(np.all(np.diff(down.oam) < 0.0))
    increasing = bool(np.all(np.diff(up.oam) > 0.0))
    report(6, decreasing and increasing,
           f"(7,7) strictly decreasing: {decreasing}, (7,1) strictly increasing: {increasing}")
    assert decreasing
    assert increasing


def test_criterion_07_turning_points_and_crossing():
    dense = np.linspace(0.2, 12.0, 2001)
    found = {}
    for m, golden in ((3, GOLDEN_TURNING_POINT_73), (5, GOLDEN_TURNING_POINT_75)):
        curve = quantum.oam_curve(ModeIndex(7, m, Parity.EVEN), "plus", dense)
        interior_minima = [
            i for i in range(1, len(dense) - 1)
            if curve.oam[i] < curve.oam[i - 1] and curve.oam[i] < curve.oam[i + 1]
        ]
        points = quantum.find_turning_points(curve)
        found[m] = (len(interior_minima), min(abs(e - golden) for e in points))
    grid = np.linspace(0.02, 16.0, 2001)
    a = quantum.oam_curve(ModeIndex(7, 5, Parity.EVEN), "plus", grid)
    b = quantum.oam_curve(ModeIndex(7, 7, Parity.EVEN), "plus", grid)
    crossings = quantum.find_crossings(a, b)
    cross_dev = min(abs(e - GOLDEN_CROSSING_75_77) for e in crossings)
    ok = (
        found[3][0] >= 1 and found[5][0] >= 1
        and found[3][1] <= 1e-3 and found[5][1] <= 1e-3
        and len(crossings) >= 1 and all(0.0 < e <= 16.0 for e in crossings)
        and cross_dev <= 1e-3
    )
    report(7, ok, f"minima deviations (7,3) {found[3][1]:.2e}, (7,5) {found[5][1]:.2e}; "
                  f"crossing deviation {cross_dev:.2e} (<= 1e-3)")
    assert found[3][0] >= 1 and found[5][0] >= 1
    assert found[3][1] <= 1e-3 and found[5][1] <= 1e-3
    assert len(crossings) >= 1 and all(0.0 < e <= 16.0 for e in crossings)
    assert cross_dev <= 1e-3


def test_criterion_08_large_ellipticity_convergence():
    gap = abs(helical(7, 7, "plus", 200.0) - helical(7, 1, "plus", 200.0))
    report(8, gap <= 0.02, f"|<Lz>(7,7) - <Lz>(7,1)| at eps=200: {gap:.4f} (<= 0.02)")
    assert gap <= 0.02, (
        f"gap at eps=200 is {gap:.4f}; the curves do converge (gap ~ 16/eps, "
        f"0.016 at eps=1000, common limit ~ sqrt(7)) but are not within 0.02 "
        f"of each other by eps=200"
    )


def test_criterion_09_non_integer_oam():
    value = helical(2, 2, "plus", 2.0)
    in_open_interval = 1.0 + 0.05 < value < 2.0 - 0.05
    deviation = abs(value - GOLDEN_OAM_22_AT_2)
    ok = in_open_interval and deviation <= 1e-12
    report(9, ok, f"<Lz>(2,2) at eps=2: {value!r}, golden deviation {deviation:.2e}")
    assert in_open_interval
    assert deviation <= 1e-12


def test_criterion_10_orthonormality():
    start = time.perf_counter()
    geo = geometry()
    X, Y, W = plane_quadrature_grid(8.0, 128)
    fields = [eval_ig(mode, 2.0, geo, X, Y) for mode in valid_modes(6)]
    gram = np.array([[np.sum(np.conj(a) * b * W).real for b in fields] for a in fields])
    worst = float(np.max(np.abs(gram - np.eye(len(fields)))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed <= 120.0
    report(10, ok, f"max |Gram - I| over {len(fields)} modes: {worst:.3e} (<= 1e-6), "
                   f"runtime {elapsed:.1f}s (<= 120s)")
    assert worst <= 1e-6
    assert elapsed <= 120.0


def test_criterion_11_vortex_structure():
    geo = geometry()
    mode = ModeIndex(5, 3, Parity.EVEN)
    half = vortex.census_window(1.0, 2.0)
    field = sample_grid(lambda x, y: eval_hig(mode, "plus", 2.0, geo, x, y), half, 512)
    spacing = field.spacing
    detections = vortex.find_vortices(field)
    on_axis_plus = sorted(
        (v for v in detections if abs(v.y) < spacing and v.charge == 1), key=lambda v: v.x
    )
    count_ok = len(on_axis_plus) == 3

    semifocal = 1.0  # f(0) = w0 sqrt(eps/2) at eps = 2
    extremal = [on_axis_plus[0], on_axis_plus[-1]] if on_axis_plus else []
    at_foci = len(extremal) == 2 and all(
        min(max(abs(v.x - s * semifocal), abs(v.y)) for s in (1.0, -1.0)) <= spacing
        for v in extremal
    )

    parity_counts = []
    for parity in (Parity.EVEN, Parity.ODD):
        pf = sample_grid(
            lambda x, y: eval_ig(ModeIndex(5, 3, parity), 2.0, geo, x, y), half, 512
        )
        parity_counts.append(len(vortex.find_vortices(pf)))
    parity_ok = parity_counts == [0, 0]

    positions = [(round(float(v.x), 4), round(float(v.y), 4)) for v in on_axis_plus]
    ok = count_ok and at_foci and parity_ok
    report(11, ok, f"on-axis +1 count {len(on_axis_plus)} (== 3), positions {positions}, "
                   f"extremal pair at foci (+-{semifocal}, 0): {at_foci}, "
                   f"parity-mode vortex counts {parity_counts} (== [0, 0])")
    assert count_ok
    assert parity_ok
    assert at_foci, (
        f"extremal on-axis charge-+1 pair sits at x = +-{abs(on_axis_plus[-1].x):.4f} w0, "
        f"not at the foci (+-{semifocal} w0); nearest distance "
        f"{abs(abs(on_axis_plus[-1].x) - semifocal) / spacing:.1f} grid cells; the pair "
        f"tracks the angular nodal zeros on the interfocal segment, strictly inside the foci"
    )


def test_criterion_12_quantum_consistency_identities():
    even_state = quantum._parity_state(quantum.decompose(ModeIndex(5, 3, Parity.EVEN), 2.0))
    odd_state = quantum._parity_state(quantum.decompose(ModeIndex(5, 3, Parity.ODD), 2.0))
    parity_zero = quantum.oam_expectation(even_state) == 0.0 and quantum.oam_expectation(odd_state) == 0.0

    plus = helical(7, 5, "plus", 2.5)
    minus = helical(7, 5, "minus", 2.5)
    sign_exact = plus + minus == 0.0

    worst_moment = 0.0
    for state in random_states(200):
        moment = sum(l * p for l, p in quantum.oam_distribution(state).items())
        worst_moment = max(worst_moment, abs(moment - quantum.oam_expectation(state)))

    # the weights depend only on ellipticity; recover <Lz> through the
    # field-overlap route at two waists and compare
    def field_route_oam(waist):
        even = quadrature_weights(ModeIndex(7, 3, Parity.EVEN), 2.0, waist=waist)
        odd = quadrature_weights(ModeIndex(7, 3, Parity.ODD), 2.0, waist=waist)
        return sum(l * d * even[l] for l, d in odd.items())

    waist_gap = abs(field_route_oam(1.0) - field_route_oam(1.6))

    ok = parity_zero and sign_exact and worst_moment <= 1e-12 and waist_gap <= 1e-13
    report(12, ok, f"parity states zero: {parity_zero}, sign flip exact: {sign_exact}, "
                   f"max first-moment gap {worst_moment:.2e} (<= 1e-12), waist gap {waist_gap:g}")
    assert parity_zero
    assert sign_exact
    assert worst_moment <= 1e-12
    assert waist_gap <= 1e-13
