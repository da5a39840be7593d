"""Tests for LG decompositions, helical states, and the OAM algebra."""

import math
import re
import sys
from collections import Counter

import numpy as np
import pytest

from elliptic_oam import ince, quantum, verify
from elliptic_oam.errors import GridError, InvalidModeError, SolverError, UnnormalizedStateError
from elliptic_oam.ince import ModeIndex, Parity, series_harmonics, solve_ince, valid_modes
from elliptic_oam.quantum import (
    OamCurve,
    QuantumModeState,
    _parity_state,
    decompose,
    find_crossings,
    find_turning_points,
    helical_state,
    oam_curve,
    oam_distribution,
    oam_expectation,
)

from elliptic_oam.verify import ig22_closed_form, quadrature_weights

from oracles import (
    fourier_lg_weights,
    loop_crossings,
    loop_turning_points,
    mp_lg_weights,
    random_states,
    symmetric_lg_weights,
)

M22 = ModeIndex(2, 2, Parity.EVEN)


def helical_lg_state(n, l, sign=+1):
    return QuantumModeState([n], [l], [1.0 / math.sqrt(2.0)], [sign * 1j / math.sqrt(2.0)])


class TestDecompose:
    def test_small_ellipticity_single_dominant_term(self):
        weights = dict(decompose(M22, 1e-8).terms)
        assert abs(weights[2] - 1.0) < 1e-8
        assert abs(weights[0]) < 1e-8

    def test_order_zero_is_trivial(self):
        result = decompose(ModeIndex(0, 0, Parity.EVEN), 3.0)
        assert result.terms == ((0, 1.0),)

    def test_ig22_weights_and_quadrature(self):
        result = decompose(M22, 0.5)
        weights = dict(result.terms)
        total = sum(d * d for d in weights.values())
        assert abs(total - 1.0) < 1e-12
        oracle = quadrature_weights(M22, 0.5)
        for l, d in weights.items():
            assert abs(d - oracle[l]) < 1e-8

    def test_closed_form_at_half(self):
        weights = dict(decompose(M22, 0.5).terms)
        closed_form = ig22_closed_form(0.5)
        assert closed_form.keys() == {2, 0}
        for l, d in closed_form.items():
            assert abs(weights[l] - d) < 1e-10

    def test_gouy_order_structure(self):
        for mode in valid_modes(12):
            result = decompose(mode, 2.0)
            ls = [l for l, _ in result.terms]
            assert ls == result.charges.tolist() and result.weights.shape == result.charges.shape
            assert ls == list(range(mode.p, 0 if mode.parity is Parity.ODD else -1, -2))
            assert ls == solve_ince(mode, 2.0).harmonics[::-1].tolist()

    @pytest.mark.parametrize("eps", [0.5, 2.0, 5.0])
    def test_matches_overlap_oracle_through_p5(self, eps):
        modes = valid_modes(5)
        polys = [solve_ince(mode, eps) for mode in modes]
        for mode, oracle in zip(modes, verify._overlap_weights(polys, verify._QuadraturePlane(1.0))):
            weights = dict(decompose(mode, eps).terms)
            for l, d in weights.items():
                assert abs(d - oracle[l]) < 1e-7

    @pytest.mark.parametrize("eps", [1e-3, 0.5, 3.7, 50.0, 400.0])
    def test_matches_symmetric_eigenvector_through_p40(self, eps):
        worst = 0.0
        for mode in valid_modes(40):
            weights = decompose(mode, eps).weights
            oracle = symmetric_lg_weights(mode, eps)
            oracle *= math.copysign(1.0, oracle @ weights)
            worst = max(worst, float(np.max(np.abs(weights - oracle))))
        assert worst <= 1e-13

    def test_deterministic_across_calls(self):
        a = decompose(ModeIndex(7, 5, Parity.ODD), 3.3)
        b = decompose(ModeIndex(7, 5, Parity.ODD), 3.3)
        assert a.terms == b.terms

    def test_order_past_factorial_overflow(self):
        weights = decompose(ModeIndex(200, 2, Parity.EVEN), 0.5)
        assert abs(sum(d * d for _, d in weights.terms) - 1.0) < 1e-12


class TestLadderWeights:
    """The whole-grid kernel route to D against per-eps oracles, chunking and error semantics."""

    @pytest.mark.parametrize("eps", [1e-300, 1e-6, 0.35, 3.0, 50.0, 1e4])
    def test_matches_both_oracles_through_p40(self, eps):
        worst = 0.0
        for mode in valid_modes(40):
            weights = decompose(mode, eps).weights
            symmetric = symmetric_lg_weights(mode, eps)
            symmetric *= math.copysign(1.0, symmetric @ weights)
            fourier = fourier_lg_weights(mode, eps)
            worst = max(worst, float(np.max(np.abs(weights - symmetric))), float(np.max(np.abs(weights - fourier))))
        assert worst <= 1e-13

    def test_chunk_boundaries_are_invisible(self):
        mode = ModeIndex(20, 10, Parity.EVEN)
        chunk = ince._chunk_size(series_harmonics(mode).size)
        grid = np.geomspace(0.05, 60.0, 2 * chunk + 1)
        single = np.array([oam_curve(mode, "minus", [e]).oam[0] for e in grid])
        for size in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
            assert np.array_equal(oam_curve(mode, "minus", grid[:size]).oam, single[:size]), size
        for parity in Parity:
            ladder = ModeIndex(20, 10, parity)
            _, weights = quantum._ladder_weights(ladder, grid)
            assert all(np.array_equal(w, decompose(ladder, e).weights) for w, e in zip(weights, grid))

    def test_curve_makes_no_per_point_solves(self, monkeypatch):
        # a per-eps loop would call solve_ince or eigvalsh once per point; each
        # kernel call of the Ince route is one eigvalsh stack
        calls = Counter()

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        for name, module in list(sys.modules.items()):
            if name.startswith("elliptic_oam"):
                for function in ("solve_ince", "eigen_tridiagonal"):
                    if hasattr(module, function):
                        monkeypatch.setattr(module, function, counted(function, getattr(module, function)))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
        mode, points = ModeIndex(20, 10, Parity.EVEN), 1000
        oam_curve(mode, "plus", np.geomspace(0.01, 100.0, points))
        chunk = ince._chunk_size(series_harmonics(mode).size)
        assert calls["solve_ince"] == 0 and calls["eigen_tridiagonal"] == calls["eigvalsh"]
        assert 0 < calls["eigvalsh"] <= 2 * math.ceil(points / chunk)

    @pytest.mark.parametrize("grid", [[1.0, 1e308], [1.0, 1e200]], ids=["bands", "coupling-product"])
    def test_overflow_is_a_solver_error(self, grid):
        with pytest.raises(SolverError):
            oam_curve(ModeIndex(7, 5, Parity.EVEN), "plus", grid)
        with pytest.raises(SolverError):
            decompose(ModeIndex(7, 5, Parity.ODD), grid[1])

    @pytest.mark.parametrize("grid", [[-1.0, 1.0], [1.0, math.inf], [0.5, math.nan]])
    def test_outside_the_domain_is_invalid(self, grid):
        with pytest.raises(InvalidModeError):
            oam_curve(ModeIndex(7, 5, Parity.EVEN), "plus", grid)

    @pytest.mark.parametrize("grid", ["ab", ["a", "b"]], ids=["string", "list-of-strings"])
    def test_non_numeric_grid_is_invalid_and_named(self, grid):
        with pytest.raises(InvalidModeError, match=re.escape(repr(grid))):
            oam_curve(ModeIndex(5, 3, Parity.EVEN), "plus", grid)

    def test_tiny_ellipticity_is_the_lg_limit(self):
        curve = oam_curve(ModeIndex(3, 1, Parity.EVEN), "plus", [1e-300, 1e-299, 1e-298])
        assert np.array_equal(curve.oam, [1.0, 1.0, 1.0])

    def test_eigenvalue_collision_is_a_solver_error(self, monkeypatch):
        eigvalsh = np.linalg.eigvalsh

        def colliding(stack):
            values = eigvalsh(stack)
            values[-1, 1] = values[-1, 0]
            return values

        monkeypatch.setattr(np.linalg, "eigvalsh", colliding)
        with pytest.raises(SolverError, match="collision"):
            oam_curve(ModeIndex(7, 5, Parity.EVEN), "plus", [0.5, 1.0, 2.0])

    # the rank's eigenvalue stays O(p^2) while the largest grows like eps:
    # a residual bound relative to that eigenvalue alone refused all of these
    SMALL_EIGENVALUE_MODES = [
        ModeIndex(p, m, parity)
        for p, m, parity in [(4, 2, "even"), (6, 4, "odd"), (8, 4, "even"), (10, 6, "odd"), (12, 6, "even")]
        + [(14, 8, "odd"), (16, 8, "even"), (18, 10, "odd"), (20, 10, "even")]
    ]

    @pytest.mark.parametrize("eps", [1e7, 1e100])
    def test_huge_ellipticity_matches_extended_precision(self, eps):
        for mode in valid_modes(20):
            decompose(mode, eps)
        worst = max(
            float(np.max(np.abs(decompose(mode, eps).weights - mp_lg_weights(mode, eps))))
            for mode in self.SMALL_EIGENVALUE_MODES
        )
        assert worst <= 1e-15

    def test_residual_failure_is_a_solver_error(self, monkeypatch):
        # the twisted solve refines an eigenvalue that is off toward the true one, so
        # the residual against the eigenvalue it was handed is about the offset
        eigvalsh = np.linalg.eigvalsh

        def perturbed(stack):
            values = eigvalsh(stack)
            values[-1] += 1e-6 * (1.0 + np.abs(values[-1]))
            return values

        monkeypatch.setattr(np.linalg, "eigvalsh", perturbed)
        with pytest.raises(SolverError, match="residual"):
            oam_curve(ModeIndex(7, 5, Parity.EVEN), "plus", [0.5, 1.0, 2.0])


class TestHelicalState:
    def test_single_term_limit(self):
        state = helical_state(ModeIndex(1, 1, Parity.EVEN), "plus", 1e-9)
        assert state.n.tolist() == [0] and state.l.tolist() == [1]
        assert abs(state.even[0] - 1.0 / math.sqrt(2.0)) < 1e-9
        assert abs(state.odd[0] - 1j / math.sqrt(2.0)) < 1e-9

    def test_odd_ladder_padded_at_zero_charge(self):
        state = helical_state(ModeIndex(4, 2, Parity.EVEN), "minus", 1.5)
        assert state.l.tolist() == [4, 2, 0] and state.n.tolist() == [0, 1, 2]
        assert state.odd[2] == 0.0 and state.even[2] != 0.0

    def test_normalized_by_construction(self):
        state = helical_state(ModeIndex(7, 5, Parity.EVEN), "plus", 3.0)
        assert abs(state.norm_squared() - 1.0) < 1e-12

    def test_field_level_round_trip(self):
        # LG synthesis of the state amplitudes reproduces the helical field
        from elliptic_oam.beams import eval_hig, eval_lg

        from oracles import geometry

        geo = geometry()
        xs = np.linspace(-2.5, 2.5, 31)
        X, Y = np.meshgrid(xs, xs)
        state = helical_state(M22, "plus", 2.0)
        synth = sum(
            c_even * eval_lg(n, l, "even", geo, X, Y) + (c_odd * eval_lg(n, l, "odd", geo, X, Y) if l else 0.0)
            for n, l, c_even, c_odd in zip(state.n, state.l, state.even, state.odd)
        )
        direct = eval_hig(M22, "plus", 2.0, geo, X, Y)
        assert np.max(np.abs(synth - direct)) < 1e-8

    def test_rejects_m_zero(self):
        with pytest.raises(InvalidModeError):
            helical_state(ModeIndex(2, 0, Parity.EVEN), "plus", 1.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_ellipticity(self, eps):
        with pytest.raises(InvalidModeError):
            decompose(M22, eps)
        with pytest.raises(InvalidModeError):
            helical_state(M22, "plus", eps)


class TestOamExpectation:
    def test_helical_lg_eigenvalue(self):
        assert oam_expectation(helical_lg_state(0, 2)) == pytest.approx(2.0, abs=1e-14)

    def test_pure_even_state_carries_none(self):
        for parity in Parity:
            assert oam_expectation(_parity_state(decompose(ModeIndex(5, 3, parity), 2.0))) == 0.0

    def test_matches_weight_product_formula(self):
        eps = 5.0
        de = dict(decompose(ModeIndex(7, 3, Parity.EVEN), eps).terms)
        do = dict(decompose(ModeIndex(7, 3, Parity.ODD), eps).terms)
        explicit = sum(l * d * de[l] for l, d in do.items())
        state = helical_state(ModeIndex(7, 3, Parity.EVEN), "plus", eps)
        assert abs(oam_expectation(state) - explicit) < 1e-13

    def test_sign_flip_negates(self):
        plus = oam_expectation(helical_state(ModeIndex(7, 5, Parity.EVEN), "plus", 2.0))
        minus = oam_expectation(helical_state(ModeIndex(7, 5, Parity.EVEN), "minus", 2.0))
        assert plus + minus == 0.0

    def test_rejects_unnormalized(self):
        state = QuantumModeState([0], [1], [0.5 + 0.0j], [0.0])
        with pytest.raises(UnnormalizedStateError):
            oam_expectation(state)


class TestHelicalSign:
    def test_enum_round_trip(self):
        from elliptic_oam.quantum import HelicalSign

        assert HelicalSign("plus") is HelicalSign.PLUS
        assert HelicalSign(HelicalSign.MINUS.value).value_int == -1
        a, b = helical_state(M22, HelicalSign("plus"), 0.5), helical_state(M22, "plus", 0.5)
        for name in ("n", "l", "even", "odd"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize("sign", ["up", "Plus", 1, None])
    def test_unknown_sign_rejected(self, sign):
        from elliptic_oam.beams import eval_hig

        from oracles import geometry

        with pytest.raises(InvalidModeError):
            helical_state(M22, sign, 0.5)
        with pytest.raises(InvalidModeError):
            oam_curve(M22, sign, [0.5, 1.0])
        with pytest.raises(InvalidModeError):
            eval_hig(M22, sign, 0.5, geometry(), 0.1, 0.1)


class TestOamDistribution:
    def test_helical_lg_is_pure(self):
        dist = oam_distribution(helical_lg_state(0, 2))
        assert set(dist) == {2}
        assert dist[2] == pytest.approx(1.0, abs=1e-14)

    def test_even_lg_is_balanced(self):
        state = QuantumModeState([0], [2], [1.0 + 0.0j], [0.0])
        dist = oam_distribution(state)
        assert dist[2] == pytest.approx(0.5, abs=1e-14)
        assert dist[-2] == pytest.approx(0.5, abs=1e-14)

    def test_helical_ig_probabilities(self):
        eps = 0.5
        state = helical_state(M22, "plus", eps)
        de = dict(decompose(M22, eps).terms)[2]
        do = dict(decompose(ModeIndex(2, 2, Parity.ODD), eps).terms)[2]
        dist = oam_distribution(state)
        assert dist[2] == pytest.approx(((de + do) / 2.0) ** 2, abs=1e-14)
        assert dist[-2] == pytest.approx(((de - do) / 2.0) ** 2, abs=1e-14)
        moment = sum(l * p for l, p in dist.items())
        assert abs(moment - oam_expectation(state)) < 1e-14

    def test_first_moment_identity_random_states(self):
        for state in random_states(200):
            moment = sum(l * p for l, p in oam_distribution(state).items())
            assert abs(moment - oam_expectation(state)) < 1e-12


INVALID_STATES = {
    "unequal-lengths": ([0, 1], [2, 0], [0.6, 0.8], [0.0]),
    "negative-n": ([-1], [2], [1.0], [0.0]),
    "negative-l": ([0], [-2], [1.0], [0.0]),
    "odd-at-zero-charge": ([1, 0], [0, 2], [0.6, 0.0], [0.8j, 0.0]),
    "duplicate-row": ([0, 0], [2, 2], [0.6, 0.0], [0.0, 0.8j]),
}


class TestStateValidation:
    @pytest.mark.parametrize("columns", INVALID_STATES.values(), ids=INVALID_STATES.keys())
    def test_invalid_rows_rejected(self, columns):
        with pytest.raises(InvalidModeError):
            QuantumModeState(*columns)


class TestOamCurve:
    def test_left_edge_anchor(self):
        curve = oam_curve(M22, "plus", [1e-6, 1e-3])
        assert abs(curve.oam[0] - 2.0) < 1e-5

    def test_extremal_degree_monotonicity(self):
        grid = np.geomspace(0.01, 30.0, 96)
        down = oam_curve(ModeIndex(7, 7, Parity.EVEN), "plus", grid)
        up = oam_curve(ModeIndex(7, 1, Parity.EVEN), "plus", grid)
        assert np.all(np.diff(down.oam) < 0.0)
        assert np.all(np.diff(up.oam) > 0.0)

    def test_high_order_sign_is_not_rounding_noise(self):
        # the leading Fourier entries of (60,42) fall below rounding at small
        # eps; a sign read off them flipped <Lz> to about -42 at some points
        curve = oam_curve(ModeIndex(60, 42, Parity.EVEN), "plus", np.geomspace(0.01, 300.0, 257))
        assert np.all(curve.oam > 0.0)
        assert [e for e in find_turning_points(curve) if e < 1.0] == []

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(InvalidModeError):
            oam_curve(M22, "plus", [0.0, 1.0])
        with pytest.raises(InvalidModeError):
            oam_curve(M22, "plus", [math.nan, 1.0])

    def test_grid_must_increase(self):
        with pytest.raises(GridError):
            OamCurve(M22, sign=None, epsilons=np.array([1.0, 1.0]), oam=np.array([0.0, 0.0]))


class TestCurveAnalysis:
    def test_monotone_curve_has_no_turning_points(self):
        grid = np.geomspace(0.01, 30.0, 64)
        curve = oam_curve(ModeIndex(7, 7, Parity.EVEN), "plus", grid)
        assert find_turning_points(curve) == []

    def test_73_has_exactly_one_interior_minimum(self):
        grid = np.linspace(0.2, 12.0, 600)
        curve = oam_curve(ModeIndex(7, 3, Parity.EVEN), "plus", grid)
        points = find_turning_points(curve)
        assert len(points) == 1
        assert abs(points[0] - 1.9337) < 5e-3

    def test_parabola_vertex_recovery(self):
        xs = np.linspace(0.5, 3.5, 31)
        ys = (xs - 1.77) ** 2 + 0.25
        curve = OamCurve(M22, sign=None, epsilons=xs, oam=ys)
        points = find_turning_points(curve)
        assert len(points) == 1
        assert abs(points[0] - 1.77) < 1e-12

    def test_identical_curves_never_cross(self):
        grid = np.geomspace(0.1, 10.0, 32)
        curve = oam_curve(M22, "plus", grid)
        assert find_crossings(curve, curve) == []

    def test_synthetic_lines_cross_where_expected(self):
        xs = np.linspace(0.0, 6.0, 25)
        a = OamCurve(M22, sign=None, epsilons=xs, oam=xs.copy())
        b = OamCurve(M22, sign=None, epsilons=xs, oam=6.0 - xs)
        crossings = find_crossings(a, b)
        assert len(crossings) == 1
        assert abs(crossings[0] - 3.0) < 1e-9

    def test_mismatched_grids_rejected(self):
        a = oam_curve(M22, "plus", [0.5, 1.0, 2.0])
        b = oam_curve(M22, "plus", [0.5, 1.1, 2.0])
        with pytest.raises(GridError):
            find_crossings(a, b)

    def test_underflowing_parabola_falls_back_to_the_sample(self):
        # both products in the fit's denominator underflow to zero
        xs = np.array([1e-170, 2e-170, 3e-170])
        curve = OamCurve(M22, sign=None, epsilons=xs, oam=np.array([0.0, 1e-160, 0.0]))
        assert find_turning_points(curve) == loop_turning_points(curve) == [2e-170]

    def test_vertex_is_bit_identical_to_the_per_sample_loop(self):
        # here pow(x, 2) and x * x round (x1 - x0)^2 differently, which moves the vertex by one ulp
        xs = np.array([0.3604920552045193, 0.7782409683113781, 1.655433234197119])
        curve = OamCurve(M22, sign=None, epsilons=xs, oam=np.array([0.0, 1.0, 0.9901112812831188]))
        assert find_turning_points(curve) == loop_turning_points(curve) == [1.2138022307670902]

    def test_exact_zero_at_a_sample_is_one_crossing(self):
        xs = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        a = OamCurve(M22, sign=None, epsilons=xs, oam=np.array([0.0, 1.0, 0.0, -1.0, 0.0, -1.0, 0.0]))
        b = OamCurve(M22, sign=None, epsilons=xs, oam=np.zeros(7))
        # a touch at 5 and the zeros at the ends are not crossings
        assert find_crossings(a, b) == loop_crossings(a, b) == [3.0]

    def test_75_crosses_77(self):
        grid = np.linspace(8.0, 16.0, 400)
        a = oam_curve(ModeIndex(7, 5, Parity.EVEN), "plus", grid)
        b = oam_curve(ModeIndex(7, 7, Parity.EVEN), "plus", grid)
        crossings = find_crossings(a, b)
        assert len(crossings) == 1
        assert abs(crossings[0] - 12.0968) < 5e-3


class TestWaistIndependence:
    def test_quadrature_weights_ignore_waist(self):
        a = quadrature_weights(ModeIndex(3, 1, Parity.EVEN), 2.0, waist=1.0)
        b = quadrature_weights(ModeIndex(3, 1, Parity.EVEN), 2.0, waist=1.7)
        for index in a:
            assert abs(a[index] - b[index]) < 1e-9
