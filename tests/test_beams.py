"""Tests for field evaluation: coordinates, envelopes, LG/HG/IG/HIG modes."""

import math

import numpy as np
import pytest

from elliptic_oam.beams import (
    BeamGeometry,
    cartesian_to_elliptic,
    elliptic_to_cartesian,
    eval_gaussian,
    eval_hg,
    eval_hig,
    eval_ig,
    eval_lg,
    sample_grid,
)
from elliptic_oam.errors import GridError, InvalidModeError
from elliptic_oam.ince import ModeIndex, Parity, valid_modes
from elliptic_oam.linalg import plane_quadrature_grid
from elliptic_oam.quantum import decompose
from elliptic_oam.verify import series_ig

from oracles import geometry, mp_hg, mp_lg


class TestEllipticCoordinates:
    def test_focus_maps_to_origin_of_chart(self):
        pt = cartesian_to_elliptic(0.8, 0.0, 0.8)
        assert pt.xi == 0.0 and pt.eta == 0.0

    def test_center_maps_to_interfocal_midpoint(self):
        pt = cartesian_to_elliptic(0.0, 0.0, 0.8)
        assert abs(pt.xi) < 1e-15
        assert abs(pt.eta - math.pi / 2.0) < 1e-15

    def test_random_round_trip(self):
        rng = np.random.default_rng(11)
        f = 1.3
        x = rng.uniform(-5.0, 5.0, 400)
        y = rng.uniform(-5.0, 5.0, 400)
        pt = cartesian_to_elliptic(x, y, f)
        assert np.all(pt.xi >= 0.0)
        assert np.all((pt.eta >= 0.0) & (pt.eta < 2.0 * np.pi))
        xb, yb = elliptic_to_cartesian(pt, f)
        err = np.hypot(xb - x, yb - y) / (1.0 + np.hypot(x, y))
        assert np.max(err) <= 1e-12

    def test_interfocal_segment_is_stable(self):
        f = 1.0
        for x in np.linspace(-0.999, 0.999, 21):
            pt = cartesian_to_elliptic(x, 0.0, f)
            xb, yb = elliptic_to_cartesian(pt, f)
            assert abs(xb - x) < 1e-12 and abs(yb) < 1e-12


class TestGaussian:
    def test_unit_amplitude_at_waist_origin(self):
        assert eval_gaussian(geometry(), 0.0, 0.0) == 1.0 + 0.0j

    def test_envelope_at_one_waist(self):
        assert abs(abs(eval_gaussian(geometry(), 1.0, 0.0)) - math.exp(-1.0)) < 1e-15

    def test_rayleigh_range_amplitude_and_gouy(self):
        geo = geometry(z=math.pi)  # z_R = k w^2 / 2 = pi for w = 1, k = 2 pi
        value = eval_gaussian(geo, 0.0, 0.0)
        assert abs(abs(value) - 1.0 / math.sqrt(2.0)) < 1e-15
        assert abs(np.angle(value) + math.pi / 4.0) < 1e-15

    def test_geometry_validation(self):
        with pytest.raises(InvalidModeError):
            BeamGeometry(waist=-1.0, wavenumber=1.0)
        with pytest.raises(InvalidModeError):
            BeamGeometry(waist=1.0, wavenumber=0.0)


class TestLaguerreGauss:
    def test_fundamental_is_gaussian(self):
        geo = geometry()
        xs = np.linspace(-2.0, 2.0, 7)
        lg = eval_lg(0, 0, "even", geo, xs, xs / 2.0)
        gauss = eval_gaussian(geo, xs, xs / 2.0)
        assert np.allclose(lg, math.sqrt(2.0 / math.pi) * gauss, atol=1e-15)

    def test_helical_phase_quadrants(self):
        geo = geometry()
        assert abs(np.angle(eval_lg(0, 1, "helical_plus", geo, 0.7, 0.0))) < 1e-12
        assert abs(np.angle(eval_lg(0, 1, "helical_plus", geo, 0.0, 0.7)) - math.pi / 2) < 1e-12
        assert abs(np.angle(eval_lg(0, 1, "helical_minus", geo, 0.0, 0.7)) + math.pi / 2) < 1e-12

    def test_gram_matrix_is_identity(self):
        geo = geometry()
        X, Y, W = plane_quadrature_grid(8.0, 128)
        fields = []
        for p in range(7):
            for l in range(p % 2, p + 1, 2):
                n = (p - l) // 2
                fields.append(eval_lg(n, l, "even", geo, X, Y))
                if l >= 1:
                    fields.append(eval_lg(n, l, "odd", geo, X, Y))
        gram = np.array([[np.sum(np.conj(a) * b * W).real for b in fields] for a in fields])
        assert np.max(np.abs(gram - np.eye(len(fields)))) < 1e-8

    def test_index_validation(self):
        geo = geometry()
        with pytest.raises(InvalidModeError):
            eval_lg(0, 0, "odd", geo, 0.1, 0.1)
        with pytest.raises(InvalidModeError):
            eval_lg(-1, 2, "even", geo, 0.1, 0.1)
        with pytest.raises(InvalidModeError):
            eval_lg(0, 1, "twisty", geo, 0.1, 0.1)


def closed_form_errors(evaluate, oracle, order, z):
    """Relative errors of a field against its mpmath closed form.

    Points lie on, inside and outside the radius sqrt(order / 2) w(z) of
    the intensity ring, off the axes.  A point whose oracle magnitude is
    below 1e-3 of the largest is skipped: relative error means nothing at
    a node.
    """
    geo = geometry(z=z)
    ring = geo.width * math.sqrt(max(order, 1) / 2.0)
    points = [
        (f * ring * math.cos(a), f * ring * math.sin(a)) for f in (0.5, 0.9, 1.0, 1.1) for a in (0.3, 1.1)
    ]
    pairs = [(complex(evaluate(geo, x, y)), oracle(geo, x, y)) for x, y in points]
    peak = max(abs(ref) for _, ref in pairs)
    errors = [abs(got - ref) / abs(ref) for got, ref in pairs if abs(ref) >= 1e-3 * peak]
    assert len(errors) >= 4
    return errors


class TestClosedFormOracle:
    @pytest.mark.parametrize("n, l", [(0, 0), (3, 2), (10, 7), (40, 25), (0, 172), (20, 160)])
    @pytest.mark.parametrize("z", [0.0, 0.4])
    def test_lg_matches_mpmath(self, n, l, z):
        kinds = ["even"] if l == 0 else ["even", "odd", "helical_plus", "helical_minus"]
        for kind in kinds:
            errors = closed_form_errors(
                lambda geo, x, y: eval_lg(n, l, kind, geo, x, y),
                lambda geo, x, y: mp_lg(n, l, kind, geo, x, y),
                2 * n + l,
                z,
            )
            assert max(errors) <= 1e-12, kind

    @pytest.mark.parametrize(
        "nx, ny", [(0, 0), (2, 0), (3, 5), (12, 7), (30, 21), (160, 0), (120, 90), (250, 40), (300, 280)]
    )
    @pytest.mark.parametrize("z", [0.0, 0.4])
    def test_hg_matches_mpmath(self, nx, ny, z):
        errors = closed_form_errors(
            lambda geo, x, y: eval_hg(nx, ny, geo, x, y),
            lambda geo, x, y: mp_hg(nx, ny, geo, x, y),
            nx + ny,
            z,
        )
        assert max(errors) <= 1e-12


class TestHermiteGauss:
    def test_fundamental_is_gaussian(self):
        geo = geometry()
        value = eval_hg(0, 0, geo, 0.4, -0.3)
        gauss = eval_gaussian(geo, 0.4, -0.3)
        assert abs(value - math.sqrt(2.0 / math.pi) * gauss) < 1e-15

    def test_vertical_nodal_line(self):
        geo = geometry()
        ys = np.linspace(-3.0, 3.0, 17)
        assert np.max(np.abs(eval_hg(1, 0, geo, np.zeros_like(ys), ys))) == 0.0

    def test_large_ellipticity_ig_approaches_hg(self):
        geo = geometry()
        X, Y, W = plane_quadrature_grid(8.0, 160)
        ig = eval_ig(ModeIndex(2, 2, Parity.EVEN), 1e4, geo, X, Y)
        hg = eval_hg(2, 0, geo, X, Y)
        overlap = abs(np.sum(np.conj(hg) * ig * W)) ** 2
        assert overlap >= 0.999


class TestInceGauss:
    def test_order_zero_is_normalized_gaussian(self):
        geo = geometry()
        xs = np.linspace(-1.5, 1.5, 9)
        ig = eval_ig(ModeIndex(0, 0, Parity.EVEN), 1.0, geo, xs, -xs)
        gauss = eval_gaussian(geo, xs, -xs)
        ratio = ig / gauss
        assert np.allclose(ratio, math.sqrt(2.0 / math.pi), atol=1e-12)

    @pytest.mark.parametrize("parity", [Parity.EVEN, Parity.ODD])
    def test_unit_norm(self, parity):
        geo = geometry()
        X, Y, W = plane_quadrature_grid(8.0, 128)
        value = np.sum(np.abs(eval_ig(ModeIndex(5, 3, parity), 2.0, geo, X, Y)) ** 2 * W)
        assert abs(value - 1.0) < 1e-8

    def test_field_equals_lg_reconstruction(self):
        geo = geometry()
        mode = ModeIndex(2, 2, Parity.EVEN)
        weights = decompose(mode, 0.5)
        X, Y, W = plane_quadrature_grid(8.0, 128)
        ig = series_ig(mode, 0.5, geo, X, Y)
        synth = sum(d * eval_lg(i.n, i.l, "even", geo, X, Y) for i, d in weights.terms)
        l2_error = math.sqrt(float(np.sum(np.abs(ig - synth) ** 2 * W)))
        assert l2_error < 1e-8

    def test_propagated_field_matches_lg_synthesis(self):
        # z support is only a scale plus Gouy phases; the equal-order LG
        # synthesis must track it exactly
        geo = geometry(z=0.8)
        mode = ModeIndex(2, 2, Parity.EVEN)
        weights = decompose(mode, 0.5)
        xs = np.linspace(-3.0, 3.0, 21)
        X, Y = np.meshgrid(xs, xs)
        ig = series_ig(mode, 0.5, geo, X, Y)
        synth = sum(d * eval_lg(i.n, i.l, "even", geo, X, Y) for i, d in weights.terms)
        assert np.max(np.abs(ig - synth)) < 1e-12

    def test_high_order_and_ellipticity_stay_normalized(self):
        # the elliptic series cancels catastrophically here; the LG sum does not
        geo = geometry()
        mode = ModeIndex(30, 4, Parity.ODD)
        X, Y, W = plane_quadrature_grid(10.0, 220)
        ig = eval_ig(mode, 200.0, geo, X, Y)
        assert abs(float(np.sum(np.abs(ig) ** 2 * W)) - 1.0) < 1e-8
        overlaps = [
            np.sum(np.conj(eval_lg(n, l, "odd", geo, X, Y)) * ig * W)
            for n, l in ((n, 30 - 2 * n) for n in range(15))
        ]
        assert abs(sum(abs(c) ** 2 for c in overlaps) - 1.0) < 1e-8

    def test_norm_preserved_under_propagation(self):
        geo = geometry(z=0.8)
        X, Y, W = plane_quadrature_grid(12.0, 160)
        value = np.sum(np.abs(eval_ig(ModeIndex(5, 3, Parity.ODD), 2.0, geo, X, Y)) ** 2 * W)
        assert abs(value - 1.0) < 1e-8

    def test_gram_identity_small_orders(self):
        geo = geometry()
        X, Y, W = plane_quadrature_grid(8.0, 128)
        fields = [eval_ig(mode, 2.0, geo, X, Y) for mode in valid_modes(4)]
        gram = np.array([[np.sum(np.conj(a) * b * W).real for b in fields] for a in fields])
        assert np.max(np.abs(gram - np.eye(len(fields)))) < 1e-6

    @pytest.mark.parametrize("parity,sign", [(Parity.EVEN, 1.0), (Parity.ODD, -1.0)])
    def test_parity_under_y_reflection(self, parity, sign):
        geo = geometry()
        mode = ModeIndex(5, 3, parity)
        rng = np.random.default_rng(5)
        x = rng.uniform(-3.0, 3.0, 100)
        y = rng.uniform(-3.0, 3.0, 100)
        up = eval_ig(mode, 2.0, geo, x, y)
        down = eval_ig(mode, 2.0, geo, x, -y)
        assert np.max(np.abs(down - sign * up)) < 1e-13

    @pytest.mark.parametrize(
        "mode",
        [
            ModeIndex(5, 3, Parity.EVEN),
            ModeIndex(5, 3, Parity.ODD),
            ModeIndex(6, 2, Parity.EVEN),
            ModeIndex(6, 4, Parity.ODD),
        ],
    )
    def test_nodal_line_counts(self, mode):
        from elliptic_oam.ince import eval_angular, eval_radial, solve_ince

        poly = solve_ince(mode, 2.0)
        eta = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
        angular = eval_angular(poly, eta + 0.0123)
        closed = np.append(angular, angular[0])
        hyperbolic = int(np.count_nonzero(np.diff(np.sign(closed)) != 0))
        assert hyperbolic == 2 * mode.m
        xi = np.linspace(1e-4, 4.0, 4096)
        radial = eval_radial(poly, xi)
        elliptic = int(np.count_nonzero(np.diff(np.sign(radial)) != 0))
        assert elliptic == (mode.p - mode.m) // 2
        if mode.parity is Parity.ODD:
            # the degenerate interfocal segment supplies the extra odd line
            assert eval_radial(poly, 0.0) == 0.0

    def test_zero_ellipticity_limit_is_lg(self):
        geo = geometry()
        xs = np.linspace(-2.0, 2.0, 41)
        X, Y = np.meshgrid(xs, xs)
        for mode, (n, l) in (
            (ModeIndex(3, 1, Parity.EVEN), (1, 1)),
            (ModeIndex(4, 2, Parity.ODD), (1, 2)),
        ):
            ig = eval_ig(mode, 1e-4, geo, X, Y)
            lg = eval_lg(n, l, mode.parity.value, geo, X, Y)
            assert np.max(np.abs(ig - lg)) <= 1e-4

    def test_invalid_inputs(self):
        geo = geometry()
        with pytest.raises(InvalidModeError):
            eval_ig(ModeIndex(2, 2, Parity.EVEN), 0.0, geo, 0.1, 0.1)


class TestHelical:
    def test_x_axis_intensity_is_half_even(self):
        geo = geometry()
        mode = ModeIndex(2, 2, Parity.EVEN)
        even = eval_ig(mode, 2.0, geo, 1.3, 0.0)
        hig = eval_hig(mode, "plus", 2.0, geo, 1.3, 0.0)
        assert abs(abs(hig) ** 2 - abs(even) ** 2 / 2.0) < 1e-14

    @pytest.mark.parametrize("z", [0.0, 0.8])
    @pytest.mark.parametrize("sign,s", [("plus", 1.0), ("minus", -1.0)])
    def test_equals_even_odd_combination(self, z, sign, s):
        geo = geometry(z=z)
        xs = np.linspace(-4.0, 4.0, 41)
        X, Y = np.meshgrid(xs, xs)
        even = eval_ig(ModeIndex(5, 3, Parity.EVEN), 2.0, geo, X, Y)
        odd = eval_ig(ModeIndex(5, 3, Parity.ODD), 2.0, geo, X, Y)
        hig = eval_hig(ModeIndex(5, 3, Parity.EVEN), sign, 2.0, geo, X, Y)
        expected = (even + s * 1j * odd) / math.sqrt(2.0)
        assert np.max(np.abs(hig - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_small_ellipticity_limit_is_helical_lg(self):
        geo = geometry()
        xs = np.linspace(-2.0, 2.0, 41)
        X, Y = np.meshgrid(xs, xs)
        hig = eval_hig(ModeIndex(2, 2, Parity.EVEN), "plus", 1e-6, geo, X, Y)
        lg = eval_lg(0, 2, "helical_plus", geo, X, Y)
        assert np.max(np.abs(hig - lg)) < 1e-6

    def test_on_axis_vortex_position(self):
        # the two on-axis zeros of HIG(2,2,+) sit where the even angular
        # series vanishes on the interfocal segment
        geo = geometry()
        eps = 2.0
        root = math.sqrt(1.0 + eps**2)
        x0 = math.sqrt(eps / 2.0) * math.sqrt((1.0 + root - eps) / (2.0 * (1.0 + root)))
        value = eval_hig(ModeIndex(2, 2, Parity.EVEN), "plus", eps, geo, x0, 0.0)
        assert abs(value) < 1e-13

    def test_requires_odd_partner(self):
        with pytest.raises(InvalidModeError):
            eval_hig(ModeIndex(2, 0, Parity.EVEN), "plus", 1.0, geometry(), 0.1, 0.1)


class TestSampleGrid:
    def test_constant_field(self):
        field = sample_grid(lambda x, y: np.ones_like(x), 2.0, 16)
        assert np.all(field.values == 1.0)
        assert field.nx == field.ny == 16

    def test_gaussian_center_value(self):
        geo = geometry()
        field = sample_grid(lambda x, y: eval_gaussian(geo, x, y), 4.0, 257)
        assert field.values[128, 128] == 1.0 + 0.0j

    def test_grid_sum_approximates_quadrature(self):
        geo = geometry()
        field = sample_grid(lambda x, y: eval_ig(ModeIndex(3, 1, Parity.EVEN), 1.0, geo, x, y), 8.0, 512)
        riemann = float(np.sum(np.abs(field.values) ** 2) * field.spacing**2)
        X, Y, W = plane_quadrature_grid(8.0, 128)
        exact = np.sum(np.abs(eval_ig(ModeIndex(3, 1, Parity.EVEN), 1.0, geo, X, Y)) ** 2 * W)
        assert abs(riemann - exact) < 1e-6

    def test_resolution_floor(self):
        with pytest.raises(GridError):
            sample_grid(lambda x, y: x, 1.0, 8)
