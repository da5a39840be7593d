"""Tests for field evaluation: coordinates, envelopes, LG/HG/IG/HIG modes."""

import math
import re
import weakref

import mpmath as mp
import numpy as np
import pytest

from elliptic_oam import beams, ince, verify
from elliptic_oam.beams import (
    BeamGeometry,
    ComplexField,
    eval_gaussian,
    eval_hg,
    eval_hig,
    eval_ig,
    eval_lg,
    sample_grid,
)
from elliptic_oam.errors import GridError, InvalidModeError, SolverError
from elliptic_oam.ince import ModeIndex, Parity, valid_modes
from elliptic_oam.linalg import plane_quadrature_grid
from elliptic_oam.quantum import QuantumModeState, _parity_state, decompose, helical_state
from elliptic_oam.verify import cartesian_to_elliptic, elliptic_to_cartesian, series_ig

import oracles
from oracles import geometry, hg_projection, lg_sum, mp_hg, mp_lg, polar_lg_sum, random_states


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
        for bad in ({"waist": math.nan}, {"waist": math.inf}, {"wavenumber": math.nan},
                    {"wavenumber": math.inf}, {"z": math.nan}, {"z": math.inf}, {"z": -math.inf}):
            with pytest.raises(InvalidModeError, match=next(iter(bad))):
                BeamGeometry(**{"waist": 1.0, "wavenumber": 1.0, **bad})

    @pytest.mark.parametrize("name", ["waist", "wavenumber", "z"])
    @pytest.mark.parametrize("value", ["1", b"1", None, 1j, [1.0], np.array(1.0)], ids=repr)
    def test_geometry_needs_real_numbers(self, name, value):
        # compared before its type was checked, a string raised a raw TypeError
        with pytest.raises(InvalidModeError, match=f"^{name} must be a real number"):
            BeamGeometry(**{"waist": 1.0, "wavenumber": 2.0, name: value})

    def test_geometry_takes_every_real_number_type(self):
        geo = BeamGeometry(waist=1, wavenumber=np.float64(2.0), z=np.float32(0.5))
        assert geo.rayleigh_range == 1.0 and geo.z == 0.5

    def test_inverse_curvature_keeps_its_bits_where_z_squared_is_finite(self):
        for z in np.concatenate([np.geomspace(1e-300, 1e150, 451), -np.geomspace(1e-3, 1e150, 154)]).tolist():
            geo = geometry(z=z)
            assert geo.inverse_curvature == z / (z**2 + geo.rayleigh_range**2), z

    @pytest.mark.parametrize(
        "waist, z",
        [(1.0, 1.3e154), (1.0, 1e160), (1.0, -1e300), (1.0, 1.7976931348623157e308), (1e150, 1.0), (1e150, -3e300)],
    )
    def test_inverse_curvature_never_overflows(self, waist, z):
        geo = geometry(waist=waist, z=z)
        exact = mp.mpf(z) / (mp.mpf(z) ** 2 + mp.mpf(geo.rayleigh_range) ** 2)
        assert geo.inverse_curvature == pytest.approx(float(exact), rel=1e-15, abs=1e-320)


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
        with pytest.raises(InvalidModeError, match="require l >= 1"):
            eval_lg(2, 0, "helical_plus", geo, 0.1, 0.1)
        # a non-integer index used to pick a column of the wrong mode, and inf to overflow
        for n, l in [(1.5, 1), (1, 1.5), (math.inf, 1), (1, math.inf), (math.nan, 1), (1, math.nan), (0, -2)]:
            message = f"LG indices must be non-negative integers, got n={n}, l={l}"
            with pytest.raises(InvalidModeError, match=re.escape(message)):
                eval_lg(n, l, "even", geo, 0.1, 0.1)
        assert eval_lg(1.0, np.int64(2), "odd", geo, 0.3, 0.1) == eval_lg(1, 2, "odd", geo, 0.3, 0.1)
        # a string is refused, not compared with 0
        with pytest.raises(InvalidModeError, match=re.escape("LG indices must be non-negative integers, got n='1', l=1")):
            eval_lg("1", 1, "even", geo, 0.1, 0.2)
        with pytest.raises(InvalidModeError, match=re.escape("HG indices must be non-negative integers, got nx_index='1'")):
            eval_hg("1", 1, geo, 0.1, 0.2)


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

    @pytest.mark.parametrize("n, l", [(3, 1), (2, 2), (4, 7), (40, 25), (20, 160), (0, 172)])
    @pytest.mark.parametrize("z", [0.0, 0.4])
    def test_lg_on_the_axes_matches_mpmath(self, n, l, z):
        # phi = 0, +-pi/2 and +-pi exactly, where the unit phasor's powers are
        # exact; y = -0.0 on the negative x-axis is phi = -pi
        geo = geometry(z=z)
        ring = geo.width * math.sqrt((2 * n + l) / 2.0)
        radii = (0.5 * ring, ring, 1.1 * ring)
        points = [(s * r, 0.0) for r in radii for s in (1.0, -1.0)]
        points += [(-r, -0.0) for r in radii]
        points += [(0.0, s * r) for r in radii for s in (1.0, -1.0)]
        points.append((0.0, 0.0))  # r = 0, where every l >= 1 mode vanishes
        # the largest |field| at these radii, that of the even and odd modes
        peak = math.sqrt(2.0) * max(abs(mp_lg(n, l, "helical_plus", geo, r, 0.0)) for r in radii)
        for kind in ("even", "odd", "helical_plus", "helical_minus"):
            for x, y in points:
                got, ref = complex(eval_lg(n, l, kind, geo, x, y)), mp_lg(n, l, kind, geo, x, y)
                scale = abs(ref) if abs(ref) >= 1e-3 * peak else peak
                assert abs(got - ref) <= 1e-12 * scale, (kind, got, ref)

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


class TestBlockedEvaluation:
    """The LG oracle block by block equals one block over all points, bit for bit."""

    STATE = helical_state(ModeIndex(7, 5, Parity.EVEN), "plus", 2.0)

    def evaluate(self, x, y, z=0.3):
        return lg_sum(self.STATE, 7, geometry(z=z), x, y)

    def assert_same_as_one_block(self, monkeypatch, x, y):
        blocked = self.evaluate(x, y)
        with monkeypatch.context() as patch:
            patch.setattr(oracles, "_BLOCK", 1 << 40)
            whole = self.evaluate(x, y)
        assert blocked.shape == whole.shape == np.broadcast_shapes(np.shape(x), np.shape(y))
        np.testing.assert_array_equal(blocked, whole)

    @pytest.mark.parametrize("block", [None, 7, 1000])
    def test_grid_not_a_multiple_of_the_block(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(oracles, "_BLOCK", block)
        xs = np.linspace(-3.0, 3.0, 97)
        X, Y = np.meshgrid(xs, np.linspace(-2.0, 2.5, 89))
        self.assert_same_as_one_block(monkeypatch, X, Y)

    def test_broadcast_column_with_row(self, monkeypatch):
        monkeypatch.setattr(oracles, "_BLOCK", 100)
        column = np.linspace(-3.0, 3.0, 61)[:, None]
        row = np.linspace(-2.0, 2.0, 45)[None, :]
        self.assert_same_as_one_block(monkeypatch, column, row)
        Y, X = np.meshgrid(row.ravel(), column.ravel())  # X varies down the columns, like ``column``
        np.testing.assert_array_equal(self.evaluate(column, row), self.evaluate(X, Y))

    def test_array_with_scalar(self, monkeypatch):
        monkeypatch.setattr(oracles, "_BLOCK", 16)
        self.assert_same_as_one_block(monkeypatch, np.linspace(-3.0, 3.0, 50), 0.7)

    def test_zero_d_input_returns_a_complex_scalar(self):
        value = self.evaluate(0.4, -1.1)
        assert type(value) is np.complex128
        assert value == self.evaluate(np.array([0.4]), np.array([-1.1]))[0]

    def test_empty_input(self):
        value = self.evaluate(np.array([]), np.array([]))
        assert value.shape == (0,) and value.dtype == complex


class TestGouyKernel:
    """Shape contract of the HG-sum kernel: blocks, broadcasting and the grid path."""

    COEFFICIENTS = oracles.hg_coefficients(helical_state(ModeIndex(7, 5, Parity.EVEN), "plus", 2.0))

    def evaluate(self, x, y, z=0.3):
        return beams._hg_sum(self.COEFFICIENTS, geometry(z=z), x, y)

    def assert_same_as_one_block(self, monkeypatch, x, y):
        blocked = self.evaluate(x, y)
        with monkeypatch.context() as patch:
            patch.setattr(beams, "_ROW_TABLE", 1 << 40)
            whole = self.evaluate(x, y)
        assert blocked.shape == whole.shape == np.broadcast_shapes(np.shape(x), np.shape(y))
        np.testing.assert_array_equal(blocked, whole)

    @pytest.mark.parametrize("table", [None, 7 * 8, 1000 * 8])  # 7 and 1000 points of order 7
    def test_grid_not_a_multiple_of_the_block(self, monkeypatch, table):
        if table is not None:
            monkeypatch.setattr(beams, "_ROW_TABLE", table)
        xs = np.linspace(-3.0, 3.0, 97)
        X, Y = np.meshgrid(xs, np.linspace(-2.0, 2.5, 89))
        self.assert_same_as_one_block(monkeypatch, X, Y)

    def test_broadcast_column_with_row(self, monkeypatch):
        # x as a column and y as a row is not the grid layout: it is summed pointwise
        monkeypatch.setattr(beams, "_ROW_TABLE", 100 * 8)
        column = np.linspace(-3.0, 3.0, 61)[:, None]
        row = np.linspace(-2.0, 2.0, 45)[None, :]
        self.assert_same_as_one_block(monkeypatch, column, row)
        Y, X = np.meshgrid(row.ravel(), column.ravel())  # X varies down the columns, like ``column``
        np.testing.assert_array_equal(self.evaluate(column, row), self.evaluate(X, Y))

    def test_array_with_scalar(self, monkeypatch):
        monkeypatch.setattr(beams, "_ROW_TABLE", 16 * 8)
        self.assert_same_as_one_block(monkeypatch, np.linspace(-3.0, 3.0, 50), 0.7)

    def test_zero_d_input_returns_a_complex_scalar(self):
        value = self.evaluate(0.4, -1.1)
        assert type(value) is np.complex128
        assert value == self.evaluate(np.array([0.4]), np.array([-1.1]))[0]

    def test_empty_input(self):
        value = self.evaluate(np.array([]), np.array([]))
        assert value.shape == (0,) and value.dtype == complex

    def test_equal_axes_share_their_tables_bit_for_bit(self):
        xs = np.linspace(-4.0, 4.0, 73)
        ys = xs.copy()
        ys[0] = -4.5  # one row off, so the y rows and phases are built on their own
        shared, separate = self.evaluate(xs[None, :], xs[:, None]), self.evaluate(xs[None, :], ys[:, None])
        np.testing.assert_array_equal(shared[1:], separate[1:])

    @pytest.mark.parametrize("z", [0.0, 0.3])
    def test_grid_path_equals_pointwise_path(self, z):
        xs, ys = np.linspace(-4.0, 4.0, 73), np.linspace(-3.0, 3.5, 65)
        grid = self.evaluate(xs[None, :], ys[:, None], z)
        X, Y = np.meshgrid(xs, ys)
        pointwise = self.evaluate(X, Y, z)
        assert grid.shape == pointwise.shape == (65, 73)
        assert np.max(np.abs(grid - pointwise)) <= 8 * np.finfo(float).eps * np.max(np.abs(pointwise))


class TestPolarReference:
    """The LG oracle's phasor kernel against arctan2, cos and sin, on grids through the axes.

    The two routes round differently: each factor of u**l and each row's
    l * phi carry about one ulp, so the bound grows with the order.
    """

    CASES = [
        (helical_state(ModeIndex(5, 3, Parity.EVEN), "plus", 2.0), 5, 0.4),
        (helical_state(ModeIndex(20, 10, Parity.EVEN), "minus", 5.3), 20, 0.0),
        (helical_state(ModeIndex(40, 24, Parity.EVEN), "plus", 0.8), 40, 0.7),
        (_parity_state(decompose(ModeIndex(7, 3, Parity.ODD), 1.3)), 7, 0.0),
        *((state, 4, 0.2) for state in random_states(3)),
    ]

    @pytest.mark.parametrize("state, order, z", CASES)
    def test_matches_polar_evaluation(self, state, order, z):
        geo = geometry(z=z)
        coords = np.linspace(-6.0, 6.0, 121)  # odd: the axes are grid lines
        X, Y = np.meshgrid(coords, coords)
        reference = polar_lg_sum(state, order, geo, X, Y)
        field = lg_sum(state, order, geo, X, Y)
        bound = 8 * (order + 1) * np.finfo(float).eps * np.max(np.abs(reference))
        assert np.max(np.abs(field - reference)) <= bound


class TestHgBlockRoute:
    """Field coefficients from the HG blocks against the LG route through ``verify._lg_to_hg``."""

    @pytest.mark.parametrize("eps", [1e-3, 0.5, 2.0, 10.0, 1e3, 1e6])
    def test_matches_the_lg_route(self, monkeypatch, eps):
        # the fields hand their coefficients to the HG sum; read them there
        monkeypatch.setattr(beams, "_hg_sum", lambda coefficients, geometry, x, y: coefficients)
        geo, worst, order = geometry(), 0.0, None
        for mode in valid_modes(40):  # in ascending order p: one LG -> HG table per order
            if mode.p != order:
                order, transform = mode.p, verify._lg_to_hg(mode.p)
            lg_route = oracles.hg_coefficients(_parity_state(decompose(mode, eps)), transform)
            worst = max(worst, np.max(np.abs(eval_ig(mode, eps, geo, 0.0, 0.0) - lg_route)))
            if mode.is_even and mode.m >= 1:
                for sign in ("plus", "minus"):
                    lg_route = oracles.hg_coefficients(helical_state(mode, sign, eps), transform)
                    worst = max(worst, np.max(np.abs(eval_hig(mode, sign, eps, geo, 0.0, 0.0) - lg_route)))
        assert worst <= 1e-13

    # the helical kinds add no solve of their own: the even and odd blocks, stacked at odd order, are
    # bit for bit those of the even and odd kinds, so past order 105 those two carry the check
    @pytest.mark.parametrize(
        "orders, kinds, bound",
        [
            (range(41), ("even", "odd", "helical_plus", "helical_minus"), 1e-14),
            ((60, 105), ("even", "odd", "helical_plus", "helical_minus"), 1e-13),
            ((200, 400), ("even", "odd"), 1e-13),
        ],
        ids=["p0-40", "p60-105", "p200-400"],
    )
    def test_lg_fields_match_the_lg_to_hg_route(self, monkeypatch, orders, kinds, bound):
        # the LG fields read the HG blocks at eps = 0; the table's columns must match them, sign included
        monkeypatch.setattr(beams, "_hg_sum", lambda coefficients, geometry, x, y: coefficients)
        geo, worst = geometry(), 0.0
        for order in orders:
            transform = verify._lg_to_hg(order)
            for l in range(order % 2, order + 1, 2):
                even, odd = transform[:, (order + l) // 2], transform[:, (order - l) // 2]
                table = {
                    "even": even,
                    "odd": odd,
                    "helical_plus": (even + 1j * odd) / math.sqrt(2.0),
                    "helical_minus": (even - 1j * odd) / math.sqrt(2.0),
                }
                for kind in kinds if l else ("even",):
                    gap = np.max(np.abs(eval_lg((order - l) // 2, l, kind, geo, 0.0, 0.0) - table[kind]))
                    worst = max(worst, gap)
        assert worst <= bound

    @pytest.mark.parametrize("eps", [0.0, -1.0])
    def test_parity_fields_need_positive_ellipticity(self, eps):
        with pytest.raises(InvalidModeError, match="must be positive"):
            eval_ig(ModeIndex(5, 3, Parity.EVEN), eps, geometry(), 0.1, 0.2)

    def test_each_field_checks_its_ellipticity_once(self, monkeypatch):
        # the IG fields check their eps with the order, so the band overflow keeps its text; the
        # coefficients take the checked eps as it is, and the LG fields have none to check
        calls, check = [], ince._check_ellipticity
        monkeypatch.setattr(ince, "_check_ellipticity", lambda *args: calls.append(args[1:]) or check(*args))
        geo = geometry()
        eval_ig(ModeIndex(5, 3, Parity.ODD), 2.0, geo, 0.1, 0.2)
        assert calls == [(5, True)]
        calls.clear()
        eval_hig(ModeIndex(6, 2, Parity.EVEN), "minus", 2.0, geo, 0.1, 0.2)
        assert calls == [(6, True)]
        calls.clear()
        eval_lg(1, 3, "helical_plus", geo, 0.1, 0.2)
        assert calls == []
        with pytest.raises(SolverError, match="^ellipticity 1e\\+308 overflows the recurrence bands for p=5$"):
            eval_ig(ModeIndex(5, 3, Parity.EVEN), 1e308, geo, 0.1, 0.2)


def gouy_order_parts(state):
    """The rows of a state split by Gouy order: [(order, sub-state), ...]."""
    orders = 2 * state.n + state.l
    return [
        (int(p), QuantumModeState(state.n[rows], state.l[rows], state.even[rows], state.odd[rows]))
        for p in np.unique(orders)
        for rows in [orders == p]
    ]


class TestHermiteGaussRoute:
    """Fields of one Gouy order as HG sums, against the LG oracle and the projected transform."""

    CASES = [
        (helical_state(ModeIndex(5, 3, Parity.EVEN), "plus", 2.0), 6.0),
        (helical_state(ModeIndex(8, 2, Parity.EVEN), "minus", 0.05), 6.0),
        (helical_state(ModeIndex(20, 10, Parity.EVEN), "minus", 5.3), 8.0),
        (helical_state(ModeIndex(40, 24, Parity.EVEN), "plus", 3.0), 9.0),
        (helical_state(ModeIndex(60, 42, Parity.EVEN), "plus", 0.35), 10.0),
        (_parity_state(decompose(ModeIndex(7, 3, Parity.ODD), 1.3)), 6.0),
        (_parity_state(decompose(ModeIndex(30, 4, Parity.EVEN), 200.0)), 8.0),
        (_parity_state(decompose(ModeIndex(59, 1, Parity.ODD), 12.0)), 10.0),
        *((part, 5.0) for state in random_states(3) for _, part in gouy_order_parts(state)),
    ]

    @pytest.mark.parametrize("state, half_width", CASES)
    @pytest.mark.parametrize("z", [0.0, 0.4])
    def test_matches_lg_oracle(self, state, half_width, z):
        geo = geometry(z=z)
        order = int(2 * state.n[0] + state.l[0])
        coefficients = oracles.hg_coefficients(state)
        coords = np.linspace(-half_width, half_width, 129)
        X, Y = np.meshgrid(coords, coords)
        reference = lg_sum(state, order, geo, X, Y)
        peak = np.max(np.abs(reference))
        grid = beams._hg_sum(coefficients, geo, coords[None, :], coords[:, None])
        assert np.max(np.abs(grid - reference)) <= 1e-13 * peak
        rng = np.random.default_rng(order)
        x, y = rng.uniform(-half_width, half_width, (2, 500))
        scattered = beams._hg_sum(coefficients, geo, x, y)
        assert np.max(np.abs(scattered - lg_sum(state, order, geo, x, y))) <= 1e-13 * peak

    # from order 61 some columns have entry 0 below 1e-8 and their first
    # larger entry at an odd index, so their sign rests on the Sturm rule
    @pytest.mark.parametrize("order", [0, 1, 2, 5, 12, 31, 47, 60, 61, 100])
    def test_transform_matches_gauss_hermite_projection(self, order):
        transform = verify._lg_to_hg(order)
        assert np.max(np.abs(transform - hg_projection(order))) <= 1e-13
        np.testing.assert_allclose(transform.T @ transform, np.eye(order + 1), rtol=0.0, atol=1e-13)

    def test_high_order_transform_stays_orthogonal(self):
        transform = verify._lg_to_hg(400)
        assert np.max(np.abs(transform.T @ transform - np.eye(401))) <= 1e-12

    def test_order_400_lg_matches_mpmath(self):
        # past order 350, where the Gauss-Hermite projection's weights overflow
        for kind in ("even", "helical_minus"):
            errors = closed_form_errors(
                lambda geo, x, y: eval_lg(100, 200, kind, geo, x, y),
                lambda geo, x, y: mp_lg(100, 200, kind, geo, x, y),
                400,
                0.4,
            )
            assert max(errors) <= 1e-12, kind

    def test_state_rows_must_share_one_order(self):
        state = next(random_states(1))
        with pytest.raises(InvalidModeError, match="Gouy order"):
            oracles.hg_coefficients(state)

    @pytest.mark.parametrize("parity", [Parity.EVEN, Parity.ODD])
    def test_real_states_have_real_coefficients(self, parity):
        state = _parity_state(decompose(ModeIndex(5, 3, parity), 2.0))
        assert np.all(oracles.hg_coefficients(state).imag == 0.0)

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda geo, x, y: eval_ig(ModeIndex(5, 3, Parity.EVEN), 2.0, geo, x, y),
            lambda geo, x, y: eval_ig(ModeIndex(5, 3, Parity.ODD), 2.0, geo, x, y),
            lambda geo, x, y: eval_ig(ModeIndex(12, 6, Parity.ODD), 0.7, geo, x, y),
            lambda geo, x, y: eval_lg(3, 4, "even", geo, x, y),
            lambda geo, x, y: eval_lg(2, 5, "odd", geo, x, y),
            lambda geo, x, y: eval_lg(4, 0, "even", geo, x, y),
        ],
        ids=["ig-even", "ig-odd", "ig-odd-12", "lg-even", "lg-odd", "lg-l0"],
    )
    def test_real_states_are_exactly_real_at_the_waist(self, evaluate):
        # the parity-mode vortex check relies on this: a real field has no vortex
        geo = geometry()
        field = sample_grid(lambda x, y: evaluate(geo, x, y), 5.0, 64)
        assert np.all(field.values.imag == 0.0) and np.any(field.values.real != 0.0)
        x, y = np.random.default_rng(3).uniform(-4.0, 4.0, (2, 300))
        assert np.all(np.imag(evaluate(geo, x, y)) == 0.0)


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

    @pytest.mark.parametrize("nx, ny", [(1.5, 1), (1, 2.5), (math.inf, 0), (0, math.nan), (-1, 2), (2, -1)])
    def test_index_validation(self, nx, ny):
        with pytest.raises(InvalidModeError, match=re.escape(f"got nx_index={nx}, ny_index={ny}")):
            eval_hg(nx, ny, geometry(), 0.1, 0.1)

    def test_integral_float_indices_are_the_integers(self):
        assert eval_hg(2.0, np.int64(1), geometry(), 0.3, 0.1) == eval_hg(2, 1, geometry(), 0.3, 0.1)

    def test_large_ellipticity_ig_approaches_hg(self):
        geo = geometry()
        X, Y, W = plane_quadrature_grid(8.0, 160)
        ig = eval_ig(ModeIndex(2, 2, Parity.EVEN), 1e4, geo, X, Y)
        hg = eval_hg(2, 0, geo, X, Y)
        overlap = abs(np.sum(np.conj(hg) * ig * W)) ** 2
        assert overlap >= 0.999
        # at the edge of the double range, where the kernel's residual once overflowed
        ig = eval_ig(ModeIndex(2, 0, Parity.EVEN), 1e300, geo, X, Y)
        assert abs(np.sum(np.conj(eval_hg(0, 2, geo, X, Y)) * ig * W)) ** 2 >= 0.999


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
        synth = sum(d * eval_lg((mode.p - l) // 2, l, "even", geo, X, Y) for l, d in weights.terms)
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
        synth = sum(d * eval_lg((mode.p - l) // 2, l, "even", geo, X, Y) for l, d in weights.terms)
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

    @pytest.mark.parametrize("resolution", [16.5, math.nan, math.inf])
    def test_resolution_must_be_an_integer(self, resolution):
        with pytest.raises(GridError, match="resolution must be an integer"):
            sample_grid(lambda x, y: x, 1.0, resolution)

    @pytest.mark.parametrize(
        "result, named",
        [(np.zeros(3), "ndarray of shape (3,)"), ("a", "str of shape ()")],
        ids=["unbroadcastable", "string"],
    )
    def test_unusable_field_result_is_a_grid_error(self, result, named):
        # a raw ValueError from broadcast_to or complex() escaped before
        with pytest.raises(GridError, match=re.escape(f"field returned {named}")):
            sample_grid(lambda x, y: result, 1.0, 16)

    def test_integral_float_resolution_is_the_integer(self):
        field = sample_grid(lambda x, y: x + 0j * y, 1.0, 16.0)
        assert type(field.nx) is int and field.values.shape == (16, 16)

    # 1e308 overflows the grid's span itself; at 1e200 the Hermite rows overflow
    @pytest.mark.parametrize("window", [1e308, 1e200])
    def test_overflowing_window_is_a_grid_error_without_warnings(self, window):
        # RuntimeWarnings are errors in this suite, so a warning would surface in place of GridError
        geo = geometry()
        with pytest.raises(GridError, match="non-finite"):
            sample_grid(lambda x, y: eval_hig(ModeIndex(5, 3, Parity.EVEN), "plus", 2.0, geo, x, y), window, 32)

    def test_far_scattered_points_overflow_without_warnings(self):
        geo = geometry()
        values = eval_hig(ModeIndex(5, 3, Parity.EVEN), "plus", 2.0, geo, np.array([1e200, 0.3]), np.array([0.0, 0.2]))
        assert not np.isfinite(values[0]) and np.isfinite(values[1])


class TestComplexField:
    def test_caller_array_stays_writeable_and_detached(self):
        values = np.zeros((16, 16), dtype=complex)
        field = ComplexField(16, 16, (0.0, 0.0), 0.1, values)
        assert values.flags.writeable
        assert not field.values.flags.writeable
        values[3, 4] = 2.0 + 1.0j
        assert field.values[3, 4] == 0.0

    @pytest.mark.parametrize("spacing", [math.nan, math.inf, 0.0, -0.1])
    def test_spacing_must_be_positive_and_finite(self, spacing):
        with pytest.raises(GridError, match="spacing must be positive and finite"):
            ComplexField(16, 16, (0.0, 0.0), spacing, np.zeros((16, 16), dtype=complex))

    def test_sample_grid_takes_over_a_fresh_grid(self):
        made = []

        def fresh(x, y):
            out = np.full((16, 16), 1.0 + 2.0j)
            made.append(weakref.ref(out))
            return out

        field = sample_grid(fresh, 1.0, 16)
        assert made[0]() is field.values.base
        assert not field.values.flags.writeable

    @pytest.mark.parametrize("fresh", [False, True], ids=["copied", "fresh"])
    def test_values_cannot_be_made_writeable(self, fresh):
        field = ComplexField(16, 16, (0.0, 0.0), 0.1, np.ones((16, 16), dtype=complex), _fresh=fresh)
        with pytest.raises(ValueError):
            field.values.setflags(write=True)
        assert not field.values.flags.writeable and field.max_part == 1.0

    def test_sample_grid_copies_a_held_grid(self):
        held = np.full((16, 16), 1.0 + 2.0j)
        field = sample_grid(lambda x, y: held, 1.0, 16)
        assert field.values is not held and not np.shares_memory(field.values, held)
        assert held.flags.writeable and not field.values.flags.writeable
        held[3, 4] = 0.0
        assert field.values[3, 4] == 1.0 + 2.0j

    def test_sample_grid_checks_a_fresh_grid(self):
        with pytest.raises(GridError):
            sample_grid(lambda x, y: np.full((16, 16), complex(np.nan, 0.0)), 1.0, 16)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("index", [(0, 0), (-1, -1)], ids=["first", "last"])
    def test_a_non_finite_sample_is_refused(self, bad, part, index):
        values = np.ones((16, 24), dtype=complex)
        getattr(values, part)[index] = bad
        with pytest.raises(GridError, match="non-finite"):
            ComplexField(24, 16, (0.0, 0.0), 0.1, values)

    @pytest.mark.parametrize(
        "first, second",
        [(complex(math.inf, 0.0), complex(-math.inf, 0.0)), (complex(0.0, -math.inf), complex(0.0, math.inf)),
         (complex(math.inf, -math.inf), 0.0)],
        ids=["re", "im", "one-sample"],
    )
    def test_opposite_infinities_are_refused(self, first, second):
        values = np.zeros((16, 16), dtype=complex)
        values[3, 4], values[11, 2] = first, second
        with pytest.raises(GridError, match="non-finite"):
            ComplexField(16, 16, (0.0, 0.0), 0.1, values)

    def test_the_largest_doubles_are_finite(self):
        # a sum of the samples would overflow here
        largest = np.finfo(float).max
        assert largest == 1.7976931348623157e308
        values = np.full((16, 16), complex(largest, -largest))
        values[::2] = complex(-largest, largest)
        field = ComplexField(16, 16, (0.0, 0.0), 0.1, values)
        np.testing.assert_array_equal(field.values, values)

    def test_a_fortran_ordered_array_is_checked_in_every_sample(self):
        values = np.asfortranarray(np.ones((24, 16), dtype=complex))
        assert ComplexField(16, 24, (0.0, 0.0), 0.1, values).values.flags.c_contiguous
        values[-1, 0] = complex(0.0, math.nan)
        with pytest.raises(GridError, match="non-finite"):
            ComplexField(16, 24, (0.0, 0.0), 0.1, values)

    def test_values_are_c_ordered_whatever_the_callers_layout(self):
        values = np.asfortranarray(np.arange(24 * 16).reshape(24, 16) * (1.0 - 0.5j))
        field = ComplexField(16, 24, (0.0, 0.0), 0.1, values)
        assert field.values.flags.c_contiguous
        np.testing.assert_array_equal(field.values, values)

    def test_sample_grid_copies_a_fresh_fortran_grid_to_c_order(self):
        grid = np.arange(256).reshape(16, 16) * (1.0 + 2.0j)

        def fortran(x, y):
            return np.asfortranarray(grid)

        field = sample_grid(fortran, 1.0, 16)
        assert field.values.flags.c_contiguous
        np.testing.assert_array_equal(field.values, grid)
