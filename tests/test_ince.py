"""Tests for the Ince eigenproblem, series evaluation, and the ODE oracle."""

import ast
import dataclasses
import math
import re
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from elliptic_oam import beams, ince, quantum, vortex
from elliptic_oam.errors import InvalidModeError, SolverError
from elliptic_oam.ince import (
    ModeIndex,
    Parity,
    build_recurrence_matrix,
    eigenvalue_rank,
    eval_angular,
    eval_radial,
    ince_ode_residual,
    lg_scale,
    series_harmonics,
    solve_ince,
    valid_modes,
)
from elliptic_oam.linalg import TridiagonalMatrix

from oracles import band_scale, geometry, mp_eigenpairs, refined_eigenpair, series_sum

EPS_GRID = (0.01, 0.5, 1.0, 2.0, 5.0, 10.0)
ONE_NUMBER = r"ellipticity must be one number, got shape \(2,\)$"


class TestModeIndex:
    def test_parity_mismatch(self):
        with pytest.raises(InvalidModeError):
            ModeIndex(3, 2, Parity.EVEN)

    def test_degree_exceeds_order(self):
        with pytest.raises(InvalidModeError):
            ModeIndex(2, 4, Parity.EVEN)

    def test_odd_needs_positive_degree(self):
        with pytest.raises(InvalidModeError):
            ModeIndex(2, 0, Parity.ODD)

    def test_negative_rejected(self):
        with pytest.raises(InvalidModeError):
            ModeIndex(-2, 0, Parity.EVEN)

    @pytest.mark.parametrize(
        "p,m,parity",
        [
            (math.inf, 1, "even"),
            (math.nan, 0, "even"),
            (2, math.nan, "even"),
            (2, math.inf, "odd"),
            (3, 1, "sideways"),
            ("a", 1, "even"),
        ],
    )
    def test_non_finite_order_or_unknown_parity_is_an_invalid_mode(self, p, m, parity):
        # int(inf) raised OverflowError, int(nan) and Parity("sideways") ValueError, and 0 <= "a" TypeError
        with pytest.raises(InvalidModeError):
            ModeIndex(p, m, parity)

    def test_string_parity_coerced(self):
        assert ModeIndex(2, 2, "odd").parity is Parity.ODD

    def test_integral_floats_stored_as_int(self):
        mode = ModeIndex(2.0, 2.0, "even")
        assert type(mode.p) is int and type(mode.m) is int
        assert mode == ModeIndex(2, 2, "even")
        poly, reference = solve_ince(mode, 1.5), solve_ince(ModeIndex(2, 2, "even"), 1.5)
        assert poly.eigenvalue == reference.eigenvalue
        assert poly.fourier.tolist() == reference.fourier.tolist()


class TestRecurrenceMatrix:
    def test_order_zero_is_scalar_zero(self):
        m = build_recurrence_matrix(ModeIndex(0, 0, Parity.EVEN), 3.7)
        assert m.dimension == 1
        assert m.diag.tolist() == [0.0]

    def test_p2_even_at_zero_ellipticity(self):
        m = build_recurrence_matrix(ModeIndex(2, 2, Parity.EVEN), 0.0)
        values, _ = refined_eigenpair(m, band_scale(m), 0)
        assert np.allclose(sorted(values), [0.0, 4.0], atol=1e-14)

    @pytest.mark.parametrize(
        "p,m,parity,expected",
        [
            (6, 0, Parity.EVEN, 4),
            (6, 2, Parity.ODD, 3),
            (7, 1, Parity.EVEN, 4),
            (7, 1, Parity.ODD, 4),
        ],
    )
    def test_dimensions_per_class(self, p, m, parity, expected):
        assert build_recurrence_matrix(ModeIndex(p, m, parity), 1.0).dimension == expected

    def test_lg_scale_symmetrizes_bands_at_every_eps(self):
        # the closed-form LG ratio against sqrt(sup/sub) read off the bands
        for mode in valid_modes(40):
            scale = lg_scale(mode)
            for eps in (1e-300, 1e-3, 1.0, 400.0):
                reference = band_scale(build_recurrence_matrix(mode, eps))
                assert np.max(np.abs(scale / scale[0] / reference - 1.0)) <= 1e-14

    @pytest.mark.parametrize(
        "p,m,parity,diag,sub,sup",
        [
            (6, 0, Parity.EVEN, [0, 4, 16, 36], [12, 4, 2], [8, 10, 12]),
            (6, 2, Parity.ODD, [4, 16, 36], [4, 2], [10, 12]),
            (7, 1, Parity.EVEN, [9, 9, 25, 49], [6, 4, 2], [10, 12, 14]),
            (7, 1, Parity.ODD, [-7, 9, 25, 49], [6, 4, 2], [10, 12, 14]),
            (0, 0, Parity.EVEN, [0], [], []),
        ],
    )
    def test_frozen_bands(self, p, m, parity, diag, sub, sup):
        # frozen values: any change to them moves every payload downstream
        matrix = build_recurrence_matrix(ModeIndex(p, m, parity), 2.0)
        assert matrix.diag.tolist() == diag
        assert matrix.sub.tolist() == sub
        assert matrix.sup.tolist() == sup

    def test_rank_is_position_of_m_among_harmonics(self):
        for mode in valid_modes(40):
            assert series_harmonics(mode)[eigenvalue_rank(mode)] == mode.m

    def test_locked_by_residual_oracle(self):
        poly = solve_ince(ModeIndex(5, 3, Parity.ODD), 2.0)
        assert ince_ode_residual(poly) < 1e-9

    def test_negative_ellipticity_rejected(self):
        with pytest.raises(InvalidModeError):
            build_recurrence_matrix(ModeIndex(2, 2, Parity.EVEN), -0.5)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_non_finite_ellipticity_rejected(self, eps):
        for build in (build_recurrence_matrix, solve_ince):
            with pytest.raises(InvalidModeError):
                build(ModeIndex(5, 3, Parity.ODD), eps)

    @pytest.mark.parametrize(
        "call, shape",
        [
            (lambda mode: quantum.oam_curve(mode, "plus", [[0.1, 0.2], [0.3, 0.4]]), r"\(2, 2\)"),
            (lambda mode: ince.rank_eigenpairs(mode, 2.0), r"\(\)"),
            (lambda mode: ince._fourier_polynomials(mode, 2.0), r"\(\)"),
        ],
        ids=["oam_curve", "rank_eigenpairs", "_fourier_polynomials"],
    )
    def test_eps_grid_that_is_not_1d_is_an_invalid_mode(self, call, shape):
        with pytest.raises(InvalidModeError, match=rf"must be 1-D, got shape {shape}$"):
            call(ModeIndex(5, 3, Parity.EVEN))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda mode, eps: quantum.decompose(mode, eps), ONE_NUMBER),
            (lambda mode, eps: solve_ince(mode, eps), ONE_NUMBER),
            (lambda mode, eps: quantum.helical_state(mode, "plus", eps), ONE_NUMBER),
            (lambda mode, eps: beams.eval_ig(mode, eps, geometry(), 0.1, 0.2), ONE_NUMBER),
            (lambda mode, eps: beams.eval_hig(mode, "plus", eps, geometry(), 0.1, 0.2), ONE_NUMBER),
            (lambda mode, eps: quantum.oam_curve(mode, "plus", 2.0), r"ellipticity grid must be 1-D, got shape \(\)$"),
            (lambda mode, eps: ince.rank_eigenpairs(mode, ["a"]), r"ellipticity grid must hold real numbers, got \['a'\]$"),
        ],
        ids=[
            "decompose",
            "solve_ince",
            "helical_state",
            "eval_ig",
            "eval_hig",
            "oam_curve",
            "rank_eigenpairs-non-numeric",
        ],
    )
    def test_eps_that_is_not_one_number_is_an_invalid_mode(self, call, message):
        # the error names the caller's shape (2,), not a one-point grid (1, 2) built from it
        with pytest.raises(InvalidModeError, match=message):
            call(ModeIndex(5, 3, Parity.EVEN), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("eps", ["2", b"2", np.array("2"), None, 2j], ids=["string", "bytes", "string-array", "none", "complex"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda mode, eps: quantum.decompose(mode, eps),
            lambda mode, eps: solve_ince(mode, eps),
            lambda mode, eps: build_recurrence_matrix(mode, eps),
            lambda mode, eps: quantum.helical_state(mode, "plus", eps),
            lambda mode, eps: beams.eval_ig(mode, eps, geometry(), 0.1, 0.2),
            lambda mode, eps: beams.eval_hig(mode, "plus", eps, geometry(), 0.1, 0.2),
            lambda mode, eps: geometry().semifocal(eps),
            lambda mode, eps: vortex.census_window(1.0, eps),
        ],
        ids=["decompose", "solve_ince", "build_recurrence_matrix", "helical_state", "eval_ig", "eval_hig", "semifocal",
             "census_window"],
    )
    def test_eps_that_is_not_a_real_number_is_an_invalid_mode(self, call, eps):
        # a string is refused, not parsed, and a complex number not cast with its imaginary part dropped
        with pytest.raises(InvalidModeError, match=re.escape(f"ellipticity must be one real number, got {eps!r}")):
            call(ModeIndex(5, 3, Parity.EVEN), eps)


class TestSolveInce:
    def test_single_term_series(self):
        poly = solve_ince(ModeIndex(1, 1, Parity.EVEN), 0.0)
        assert poly.fourier.tolist() == [1.0]
        assert poly.harmonics.tolist() == [1]
        # a = 1 + eps for cos(eta) at p = 1
        assert abs(solve_ince(ModeIndex(1, 1, Parity.EVEN), 0.7).eigenvalue - 1.7) < 1e-13

    def test_harmonic_limit_of_fourier(self):
        poly = solve_ince(ModeIndex(2, 2, Parity.EVEN), 1e-6)
        assert abs(poly.fourier[0]) < 1e-6
        assert abs(poly.fourier[1] - 1.0) < 1e-6

    def test_ig22_coefficient_ratio_matches_closed_form(self):
        eps = 0.5
        poly = solve_ince(ModeIndex(2, 2, Parity.EVEN), eps)
        # eigenvector (A0, A1) proportional to (eps, 1 + sqrt(1 + eps^2))
        expected = eps / (1.0 + math.sqrt(1.0 + eps**2))
        assert abs(poly.fourier[0] / poly.fourier[1] - expected) < 1e-13
        assert abs(poly.eigenvalue - (2.0 + 2.0 * math.sqrt(1.0 + eps**2))) < 1e-13

    def test_eigenvalue_rank_ordering(self):
        # ranks map onto m in ascending order within each series class
        for parity in (Parity.EVEN, Parity.ODD):
            values = [
                solve_ince(ModeIndex(8, m, parity), 2.5).eigenvalue
                for m in range(2 if parity is Parity.ODD else 0, 9, 2)
            ]
            assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("m", [2, 92, 200])
    def test_high_order_solves_every_pair(self, m):
        # the lowest, a middle and the top eigenpair of this 100 x 100 matrix
        # each pass the residual guard
        poly = solve_ince(ModeIndex(200, m, Parity.ODD), 188.965)
        assert ince_ode_residual(poly) <= 1e-9

    @pytest.mark.parametrize("eps", [1e-300, 5e-324])
    def test_tiny_ellipticity_solves(self, eps):
        # every coupling product underflows to 0 while no coupling is 0
        poly = solve_ince(ModeIndex(7, 5, Parity.EVEN), eps)
        assert poly.eigenvalue == 25.0
        assert np.argmax(np.abs(poly.fourier)) == 2

    def test_shift_offset_clears_eigh_error(self):
        # LAPACK's eigenvalue -2.586 errs here by about one ulp of the largest, 643 (a dense
        # shifted solve offset 1e-13 (1 + |a|) from it is exactly singular); the unscaled
        # twisted vector must still solve the ODE at it
        poly = solve_ince(ModeIndex(20, 4, Parity.ODD), 30.366025352309492)
        assert ince_ode_residual(poly) <= 1e-9

    def test_high_order_memory_stays_quadratic(self):
        # the one-point solve peaks near 0.3 MB here, mostly the dense
        # 201 x 201 matrix that the kernel's eigvalsh reduces.  The 64-point
        # route must chunk: one stack of those matrices for the whole grid
        # holds about 20 MB, under the 64 MB bound but 60 times the one-point peak
        mode, peaks = ModeIndex(400, 2, Parity.EVEN), []
        for grid in ([1.0], np.linspace(0.25, 4.0, 64)):
            tracemalloc.start()
            try:
                ince._fourier_polynomials(mode, grid)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 64 * 2**20
        assert peaks[1] < 4 * peaks[0]


class TestMpmathOracle:
    @pytest.mark.parametrize("parity", [Parity.EVEN, Parity.ODD])
    @pytest.mark.parametrize("p", [20, 41, 60])
    def test_matches_extended_precision_eigenpairs(self, p, parity):
        m0 = 1 if p % 2 else (2 if parity is Parity.ODD else 0)
        for eps in (1e-3, 0.35, 3.0, 30.0, 300.0, 1e4):
            values, vectors = mp_eigenpairs(build_recurrence_matrix(ModeIndex(p, m0, parity), eps))
            # double-precision symmetrization perturbs the spectrum by about
            # one ulp of its largest eigenvalue, so interior eigenvalues are
            # compared on that scale
            bound = 1e-14 * (1.0 + np.max(np.abs(values)))
            for m in range(m0, p + 1, 2):
                mode = ModeIndex(p, m, parity)
                rank = eigenvalue_rank(mode)
                poly = solve_ince(mode, eps)
                assert abs(poly.eigenvalue - values[rank]) <= bound
                assert np.max(np.abs(poly.fourier - vectors[:, rank])) <= 1e-13


    @pytest.mark.parametrize("eps", [1e-3, 0.5, 2.0, 10.0, 1e3, 1e7, 1e100])
    def test_rank_eigenpairs_match_extended_precision(self, eps):
        # the symmetric pencil S(eps) of each (p, parity) class at p <= 20, in mp.eigsy with digits to
        # spare past the 10^log10(eps) that separates its smallest eigenvalues from its largest; the
        # worst error of the former eigh kernel over this table was 1.67e-15, at eps = 1e100
        worst = 0.0
        for p in range(21):
            for parity in Parity:
                modes = [mode for mode in valid_modes(20) if mode.p == p and mode.parity is parity]
                if not modes:
                    continue
                square, shift, sub, sup = ince._pencil(modes[0])
                coupling = eps * np.sqrt(sub * sup)
                symmetric = TridiagonalMatrix(diag=square + eps * shift, sub=coupling, sup=coupling)
                _, oracle = mp_eigenpairs(symmetric, digits=30 + int(math.log10(max(eps, 1.0))))
                for mode in modes:
                    vector = ince.rank_eigenpairs(mode, [eps])[1][0]
                    worst = max(worst, float(np.max(np.abs(vector - oracle[:, eigenvalue_rank(mode)]))))
        assert worst <= 1.67e-15


class TestSeriesEvaluation:
    def test_even_series_at_zero(self):
        poly = solve_ince(ModeIndex(1, 1, Parity.EVEN), 0.0)
        assert eval_angular(poly, 0.0) == 1.0

    def test_odd_series_vanishes_at_zero(self):
        for eps in (0.0, 1.0, 4.0):
            poly = solve_ince(ModeIndex(5, 3, Parity.ODD), eps)
            assert eval_angular(poly, 0.0) == 0.0

    def test_angular_against_termwise_sum(self):
        poly = solve_ince(ModeIndex(5, 3, Parity.ODD), 2.0)
        direct = series_sum(poly.harmonics, poly.fourier, math.sin, 0.7)
        assert abs(eval_angular(poly, 0.7) - direct) < 1e-14

    def test_radial_at_zero(self):
        even = solve_ince(ModeIndex(1, 1, Parity.EVEN), 0.5)
        assert abs(eval_radial(even, 0.0) - np.sum(even.fourier)) < 1e-15
        odd = solve_ince(ModeIndex(3, 1, Parity.ODD), 0.5)
        assert eval_radial(odd, 0.0) == 0.0

    def test_radial_against_termwise_sum(self):
        poly = solve_ince(ModeIndex(2, 2, Parity.EVEN), 0.5)
        direct = series_sum(poly.harmonics, poly.fourier, math.cosh, 1.2)
        assert abs(eval_radial(poly, 1.2) - direct) < 1e-14

    def test_vectorized_evaluation(self):
        poly = solve_ince(ModeIndex(4, 2, Parity.EVEN), 1.0)
        eta = np.linspace(0.0, 2.0 * np.pi, 11)
        batch = eval_angular(poly, eta)
        assert batch.shape == eta.shape
        assert np.allclose(batch, [eval_angular(poly, e) for e in eta], atol=1e-15)

    def test_angular_radial_consistency(self):
        # cos(i k xi) = cosh(k xi) and sin(i k xi) = i sinh(k xi): the radial
        # factor is the angular series continued to imaginary argument, with
        # the odd i dropped
        import cmath

        for mode in (ModeIndex(4, 2, Parity.EVEN), ModeIndex(5, 3, Parity.ODD)):
            poly = solve_ince(mode, 1.5)
            func = cmath.cos if mode.is_even else cmath.sin
            for xi in (0.0, 0.5, 1.0):
                continued = series_sum(poly.harmonics, poly.fourier, func, 1j * xi)
                target = continued.real if mode.is_even else continued.imag
                assert abs(eval_radial(poly, xi) - target) < 1e-13


class TestOdeResidual:
    def test_all_solutions_satisfy_equation(self):
        for mode in valid_modes(8):
            for eps in (0.5, 2.0):
                assert ince_ode_residual(solve_ince(mode, eps)) <= 1e-9

    def test_constant_solution_is_exact(self):
        poly = solve_ince(ModeIndex(0, 0, Parity.EVEN), 1.0)
        assert ince_ode_residual(poly) == 0.0

    def test_perturbation_sensitivity(self):
        poly = solve_ince(ModeIndex(4, 2, Parity.EVEN), 2.0)
        bumped = np.array(poly.fourier)
        bumped[1] += 1e-3
        fake = dataclasses.replace(poly, fourier=bumped)
        assert ince_ode_residual(fake) > 1e-5


class TestInvariants:
    def test_residual_sweep_full_mode_table(self):
        worst = 0.0
        for mode in valid_modes(12):
            for eps in EPS_GRID:
                worst = max(worst, ince_ode_residual(solve_ince(mode, eps)))
        assert worst <= 1e-9

    def test_zero_ellipticity_eigenvalues_are_squared_harmonics(self):
        for mode in valid_modes(12):
            assert abs(solve_ince(mode, 0.0).eigenvalue - mode.m**2) <= 1e-10

    def test_spectra_are_simple(self):
        for p, parity in ((7, Parity.EVEN), (10, Parity.ODD), (12, Parity.EVEN)):
            m0 = 1 if p % 2 else (2 if parity is Parity.ODD else 0)
            for eps in (0.01, 2.0, 10.0):
                matrix = build_recurrence_matrix(ModeIndex(p, m0 + 2, parity), eps)
                values, _ = refined_eigenpair(matrix, band_scale(matrix), 0)
                gaps = np.diff(values)
                assert np.all(gaps > 1e-12 * (1.0 + np.abs(values[:-1])))

    def test_fourier_sign_convention(self):
        for mode in valid_modes(9):
            for eps in (0.3, 3.0):
                poly = solve_ince(mode, eps)
                nz = np.flatnonzero(poly.fourier)
                assert poly.fourier[nz[0]] > 0.0
                assert abs(np.linalg.norm(poly.fourier) - 1.0) < 1e-12


class TestOneRoute:
    """Every eigenpair comes from ``ince.rank_eigenpairs``; ``solve_ince`` is its one-point case."""

    def test_solve_ince_matches_the_per_matrix_reference(self):
        worst_value = worst_vector = 0.0
        for mode in valid_modes(40):
            for eps in (0.0, 1e-3, 0.5, 2.0, 10.0, 50.0, 1e3):
                poly = solve_ince(mode, eps)
                matrix = build_recurrence_matrix(mode, eps)
                values, vector = refined_eigenpair(matrix, lg_scale(mode), eigenvalue_rank(mode))
                scale = 1.0 + np.max(np.abs(values))
                worst_value = max(worst_value, abs(poly.eigenvalue - values[eigenvalue_rank(mode)]) / scale)
                worst_vector = max(worst_vector, float(np.max(np.abs(poly.fourier - vector))))
        assert worst_value <= 1e-14
        assert worst_vector <= 2e-15

    def test_stacked_route_equals_one_point_solves(self):
        # one call per mode over the whole grid, bit for bit against a call per (mode, eps)
        grid = (0.0, 1e-3, 0.5, 2.0, 10.0, 50.0, 1e3)
        for mode in valid_modes(40):
            for eps, poly in zip(grid, ince._fourier_polynomials(mode, grid), strict=True):
                single = solve_ince(mode, eps)
                assert (poly.mode, poly.ellipticity) == (mode, eps)
                assert np.float64(poly.eigenvalue).view(np.int64) == np.float64(single.eigenvalue).view(np.int64)
                assert poly.fourier.view(np.int64).tolist() == single.fourier.view(np.int64).tolist(), (mode, eps)

    def test_refusal_names_the_eps(self, monkeypatch):
        # a kernel vector reversed in the second row fails that row's residual check, and only that row's
        kernel = ince.eigen_tridiagonal

        def reversed_row(*args):
            values, vectors = kernel(*args)
            vectors[1] = vectors[1, ::-1].copy()
            return values, vectors

        monkeypatch.setattr(ince, "eigen_tridiagonal", reversed_row)
        with pytest.raises(SolverError, match=r"exceeds bound at eps=2\.5;"):
            ince._fourier_polynomials(ModeIndex(4, 2, Parity.EVEN), [1.0, 2.5, 4.0])

    def test_quantum_does_not_know_the_pencil(self):
        private = {"_pencil", "_check_ellipticity", "_check_simple_spectrum", "eigen_tridiagonal"}
        imported = {
            alias.name
            for node in ast.walk(ast.parse(Path(quantum.__file__).read_text()))
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        assert imported & private == set()
        assert not any(hasattr(quantum, name) for name in private)

    def test_one_ellipticity_contract(self):
        # the ellipticity domain is decided in ince alone: no other module converts an eps argument,
        # compares one with 0 or inf or raises its own "ellipticity ..." refusal; ince itself does all three
        eps_name = re.compile(r"(eps|epsilons?|ellipticit(y|ies)|grid)$")
        converters = {"list", "tuple", "float", "asarray", "asanyarray", "array", "atleast_1d", "fromiter"}

        def decisions(path):
            found = []
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and node.args:
                    name = getattr(node.func, "attr", getattr(node.func, "id", None))
                    argument = node.args[0]
                    if name in converters and isinstance(argument, ast.Name) and eps_name.match(argument.id):
                        found.append(("converts", node.lineno))
                elif isinstance(node, ast.Compare):
                    operands = [node.left, *node.comparators]
                    bounds = [o for o in operands if getattr(o, "value", None) == 0 or getattr(o, "attr", None) == "inf"]
                    if bounds and any(isinstance(o, ast.Name) and eps_name.match(o.id) for o in operands):
                        found.append(("compares", node.lineno))
                elif isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
                    message = node.exc.args[0]
                    if isinstance(message, ast.JoinedStr):
                        message = message.values[0]
                    if isinstance(message, ast.Constant) and str(message.value).startswith("ellipticity"):
                        found.append(("refuses", node.lineno))
            return found

        package = Path(ince.__file__).parent
        found = {path.name: decisions(path) for path in sorted(package.glob("*.py"))}
        assert {name: lines for name, lines in found.items() if lines and name != "ince.py"} == {}
        assert {kind for kind, _ in found["ince.py"]} == {"converts", "compares", "refuses"}

    def test_solve_ince_makes_one_kernel_call(self, monkeypatch):
        calls = []
        kernel = ince.eigen_tridiagonal

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(ince, "eigen_tridiagonal", counted)
        solve_ince(ModeIndex(7, 5, Parity.ODD), 2.0)
        assert len(calls) == 1

    @pytest.mark.parametrize("route", [ince._fourier_polynomials, ince.rank_eigenpairs], ids=lambda f: f.__name__)
    def test_one_grid_check_and_pencil_per_call(self, route, monkeypatch):
        # three chunks share one ellipticity check and one pencil: the grid is walked by one loop
        calls = Counter()

        def watch(name):
            original = getattr(ince, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(ince, name, counted)

        for name in ("_pencil", "_check_ellipticity", "eigen_tridiagonal"):
            watch(name)
        mode = ModeIndex(9, 3, Parity.EVEN)
        route(mode, np.geomspace(0.1, 10.0, 2 * ince._chunk_size(series_harmonics(mode).size) + 1))
        assert calls == {"_pencil": 1, "_check_ellipticity": 1, "eigen_tridiagonal": 3}

    def test_route_keeps_no_spectrum(self):
        # the curves read only the vectors; one eigenvalue per eps comes along
        mode, grid = ModeIndex(9, 3, Parity.EVEN), np.geomspace(0.1, 10.0, 7)
        values, vectors = ince.rank_eigenpairs(mode, grid)
        assert values.shape == (7,) and vectors.shape == (7, 5)
        for eps, value, vector in zip(grid, values, vectors):
            poly = solve_ince(mode, eps)
            assert value == poly.eigenvalue
            fourier = vector / lg_scale(mode)
            assert np.max(np.abs(fourier / np.linalg.norm(fourier) - poly.fourier)) < 1e-13
            # bit for bit, the Fourier vector is that quotient with no further solve: its largest
            # entry scaled into [0.5, 1) by a power of two, then divided by its norm summed in index order
            fourier = np.ldexp(fourier, -np.frexp(np.max(np.abs(fourier)))[1])
            squared = 0.0
            for entry in fourier:
                squared += entry * entry
            assert (fourier / math.sqrt(squared)).view(np.int64).tolist() == poly.fourier.view(np.int64).tolist()

