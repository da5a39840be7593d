"""Tests for LG decompositions, helical states, and the OAM algebra."""

import math

import numpy as np
import pytest

from elliptic_oam.errors import GridError, InvalidModeError, UnnormalizedStateError
from elliptic_oam.ince import ModeIndex, Parity, valid_modes
from elliptic_oam.quantum import (
    LGIndex,
    OamCurve,
    QuantumModeState,
    decompose,
    find_crossings,
    find_turning_points,
    helical_state,
    oam_curve,
    oam_distribution,
    oam_expectation,
)

from elliptic_oam.verify import ig22_closed_form, quadrature_weights

M22 = ModeIndex(2, 2, Parity.EVEN)


def helical_lg_state(n, l, sign=+1):
    return QuantumModeState(
        {
            LGIndex(Parity.EVEN, n, l): 1.0 / math.sqrt(2.0),
            LGIndex(Parity.ODD, n, l): sign * 1j / math.sqrt(2.0),
        }
    )


class TestDecompose:
    def test_small_ellipticity_single_dominant_term(self):
        weights = decompose(M22, 1e-8).weights()
        assert abs(weights[LGIndex(Parity.EVEN, 0, 2)] - 1.0) < 1e-8
        assert abs(weights[LGIndex(Parity.EVEN, 1, 0)]) < 1e-8

    def test_order_zero_is_trivial(self):
        result = decompose(ModeIndex(0, 0, Parity.EVEN), 3.0)
        assert result.terms == ((LGIndex(Parity.EVEN, 0, 0), 1.0),)

    def test_ig22_weights_and_quadrature(self):
        result = decompose(M22, 0.5)
        weights = result.weights()
        total = sum(d * d for d in weights.values())
        assert abs(total - 1.0) < 1e-12
        oracle = quadrature_weights(M22, 0.5)
        for index, d in weights.items():
            assert abs(d - oracle[index]) < 1e-8

    def test_closed_form_at_half(self):
        weights = decompose(M22, 0.5).weights()
        closed_form = ig22_closed_form(0.5)
        assert closed_form.keys() == {LGIndex(Parity.EVEN, 0, 2), LGIndex(Parity.EVEN, 1, 0)}
        for index, d in closed_form.items():
            assert abs(weights[index] - d) < 1e-10

    def test_gouy_order_structure(self):
        for mode in (ModeIndex(7, 3, Parity.ODD), ModeIndex(8, 0, Parity.EVEN)):
            result = decompose(mode, 2.0)
            for index, _ in result.terms:
                assert 2 * index.n + index.l == mode.p
                assert index.parity is mode.parity
            ls = [index.l for index, _ in result.terms]
            assert ls == sorted(ls, reverse=True)

    @pytest.mark.parametrize("eps", [0.5, 2.0, 5.0])
    def test_matches_overlap_oracle_through_p5(self, eps):
        for mode in valid_modes(5):
            weights = decompose(mode, eps).weights()
            oracle = quadrature_weights(mode, eps)
            for index, d in weights.items():
                assert abs(d - oracle[index]) < 1e-7

    def test_deterministic_across_calls(self):
        a = decompose(ModeIndex(7, 5, Parity.ODD), 3.3)
        b = decompose(ModeIndex(7, 5, Parity.ODD), 3.3)
        assert a.terms == b.terms

    def test_order_past_factorial_overflow(self):
        weights = decompose(ModeIndex(200, 2, Parity.EVEN), 0.5)
        assert abs(sum(d * d for _, d in weights.terms) - 1.0) < 1e-12


class TestHelicalState:
    def test_single_term_limit(self):
        state = helical_state(ModeIndex(1, 1, Parity.EVEN), "plus", 1e-9)
        even = state.amplitudes[LGIndex(Parity.EVEN, 0, 1)]
        odd = state.amplitudes[LGIndex(Parity.ODD, 0, 1)]
        assert abs(even - 1.0 / math.sqrt(2.0)) < 1e-9
        assert abs(odd - 1j / math.sqrt(2.0)) < 1e-9

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
            c * eval_lg(i.n, i.l, i.parity.value, geo, X, Y)
            for i, c in state.amplitudes.items()
        )
        direct = eval_hig(M22, "plus", 2.0, geo, X, Y)
        assert np.max(np.abs(synth - direct)) < 1e-8

    def test_rejects_m_zero(self):
        with pytest.raises(InvalidModeError):
            helical_state(ModeIndex(2, 0, Parity.EVEN), "plus", 1.0)


class TestOamExpectation:
    def test_helical_lg_eigenvalue(self):
        assert oam_expectation(helical_lg_state(0, 2)) == pytest.approx(2.0, abs=1e-14)

    def test_pure_even_state_carries_none(self):
        state = QuantumModeState({i: complex(d) for i, d in decompose(ModeIndex(5, 3, Parity.EVEN), 2.0).terms})
        assert oam_expectation(state) == 0.0

    def test_matches_weight_product_formula(self):
        eps = 5.0
        de = decompose(ModeIndex(7, 3, Parity.EVEN), eps).weights()
        do = decompose(ModeIndex(7, 3, Parity.ODD), eps).weights()
        explicit = sum(
            i.l * d * de[LGIndex(Parity.EVEN, i.n, i.l)] for i, d in do.items()
        )
        state = helical_state(ModeIndex(7, 3, Parity.EVEN), "plus", eps)
        assert abs(oam_expectation(state) - explicit) < 1e-13

    def test_sign_flip_negates(self):
        plus = oam_expectation(helical_state(ModeIndex(7, 5, Parity.EVEN), "plus", 2.0))
        minus = oam_expectation(helical_state(ModeIndex(7, 5, Parity.EVEN), "minus", 2.0))
        assert plus + minus == 0.0

    def test_rejects_unnormalized(self):
        state = QuantumModeState({LGIndex(Parity.EVEN, 0, 1): 0.5 + 0.0j})
        with pytest.raises(UnnormalizedStateError):
            oam_expectation(state)


class TestHelicalSign:
    def test_enum_round_trip(self):
        from elliptic_oam.quantum import HelicalSign

        assert HelicalSign("plus") is HelicalSign.PLUS
        assert HelicalSign(HelicalSign.MINUS.value).value_int == -1
        assert helical_state(M22, HelicalSign("plus"), 0.5) == helical_state(M22, "plus", 0.5)


class TestOamDistribution:
    def test_helical_lg_is_pure(self):
        dist = oam_distribution(helical_lg_state(0, 2))
        assert set(dist) == {2}
        assert dist[2] == pytest.approx(1.0, abs=1e-14)

    def test_even_lg_is_balanced(self):
        state = QuantumModeState({LGIndex(Parity.EVEN, 0, 2): 1.0 + 0.0j})
        dist = oam_distribution(state)
        assert dist[2] == pytest.approx(0.5, abs=1e-14)
        assert dist[-2] == pytest.approx(0.5, abs=1e-14)

    def test_helical_ig_probabilities(self):
        eps = 0.5
        state = helical_state(M22, "plus", eps)
        de = decompose(M22, eps).weights()[LGIndex(Parity.EVEN, 0, 2)]
        do = decompose(ModeIndex(2, 2, Parity.ODD), eps).weights()[LGIndex(Parity.ODD, 0, 2)]
        dist = oam_distribution(state)
        assert dist[2] == pytest.approx(((de + do) / 2.0) ** 2, abs=1e-14)
        assert dist[-2] == pytest.approx(((de - do) / 2.0) ** 2, abs=1e-14)
        moment = sum(l * p for l, p in dist.items())
        assert abs(moment - oam_expectation(state)) < 1e-14

    def test_first_moment_identity_random_states(self):
        rng = np.random.default_rng(1234)
        basis = []
        for p in range(5):
            for l in range(p % 2, p + 1, 2):
                basis.append(LGIndex(Parity.EVEN, (p - l) // 2, l))
                if l >= 1:
                    basis.append(LGIndex(Parity.ODD, (p - l) // 2, l))
        for _ in range(200):
            raw = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
            raw /= np.linalg.norm(raw)
            state = QuantumModeState(dict(zip(basis, raw)))
            moment = sum(l * p for l, p in oam_distribution(state).items())
            assert abs(moment - oam_expectation(state)) < 1e-12


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

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(InvalidModeError):
            oam_curve(M22, "plus", [0.0, 1.0])

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
