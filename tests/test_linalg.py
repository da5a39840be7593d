"""Tests for the tridiagonal eigen kernel, its per-matrix reference route, and plane quadrature."""

import ast
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import elliptic_oam
from elliptic_oam import verify
from elliptic_oam.beams import eval_hig, eval_ig, eval_lg
from elliptic_oam.errors import SolverError
from elliptic_oam.ince import ModeIndex, Parity, solve_ince
from elliptic_oam.linalg import TridiagonalMatrix, eigen_tridiagonal, plane_quadrature_grid
from elliptic_oam.quantum import decompose

from oracles import band_scale, geometry, refined_eigenpair, sturm_eigenvalues


def solve(matrix, rank):
    return refined_eigenpair(matrix, band_scale(matrix), rank)


def random_symmetrizable(rng, n, ratio_range=(0.5, 2.0)):
    diag = rng.uniform(-3.0, 3.0, n)
    mags = rng.uniform(0.1, 2.0, n - 1)
    ratio = rng.uniform(*ratio_range, n - 1)
    return TridiagonalMatrix(diag=diag, sub=mags, sup=mags * ratio)


class TestEigenTridiagonal:
    def test_dimension_one(self):
        values, vector = solve(TridiagonalMatrix(diag=[5.0], sub=[], sup=[]), 0)
        assert values.tolist() == [5.0]
        assert vector.tolist() == [1.0]

    def test_pauli_x_analog(self):
        values, _ = solve(TridiagonalMatrix(diag=[0.0, 0.0], sub=[1.0], sup=[1.0]), 0)
        assert np.allclose(values, [-1.0, 1.0], atol=1e-14)

    def test_random_6x6_against_sturm_bisection(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            m = random_symmetrizable(rng, 6, ratio_range=(0.2, 5.0))
            values, _ = solve(m, 0)
            oracle = sturm_eigenvalues(m.diag, m.sub, m.sup)
            assert np.max(np.abs(values - oracle)) < 1e-10

    def test_residual_and_conventions_up_to_dim_40(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 5, 11, 24, 40):
            for _ in range(8):
                m = random_symmetrizable(rng, n)
                dense = m.to_dense()
                for j in range(n):
                    values, v = solve(m, j)
                    assert np.all(np.diff(values) >= -1e-13)
                    a = values[j]
                    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
                    nz = np.flatnonzero(v)
                    assert v[nz[0]] > 0.0
                    assert np.linalg.norm(dense @ v - a * v) <= 1e-10 * (1.0 + abs(a))

    def test_similarity_invariance(self):
        # the symmetrized matrix has the same spectrum as the original
        rng = np.random.default_rng(3)
        m = random_symmetrizable(rng, 8, ratio_range=(0.2, 4.0))
        e = np.sqrt(m.sub * m.sup)
        symmetric = TridiagonalMatrix(diag=m.diag, sub=e, sup=e)
        assert np.allclose(
            sturm_eigenvalues(m.diag, m.sub, m.sup),
            sturm_eigenvalues(symmetric.diag, symmetric.sub, symmetric.sup),
            atol=1e-10,
        )
        assert np.allclose(
            solve(m, 0)[0],
            solve(symmetric, 0)[0],
            atol=1e-10,
        )

    def test_zero_coupling_splits_into_blocks(self):
        m = TridiagonalMatrix(diag=[1.0, 4.0, 2.0], sub=[0.0, 0.5], sup=[0.0, 0.5])
        oracle = sorted([1.0, 3.0 + math.sqrt(1.25), 3.0 - math.sqrt(1.25)])
        values, _ = solve(m, 0)
        assert np.allclose(values, oracle, atol=1e-12)
        # the isolated block contributes a basis eigenvector
        idx = int(np.argmin(np.abs(values - 1.0)))
        _, vector = solve(m, idx)
        assert np.allclose(vector, [1.0, 0.0, 0.0], atol=1e-12)

    def test_underflowing_coupling_product_kept(self):
        # 1e-200 * 1e-200 underflows to 0, yet neither coupling is zero: the
        # matrix is symmetric, not defective, and the tiny entry survives
        m = TridiagonalMatrix(diag=[1.0, 2.0], sub=[1e-200], sup=[1e-200])
        values, vector = solve(m, 0)
        assert values.tolist() == [1.0, 2.0]
        assert vector[0] == 1.0
        assert vector[1] == pytest.approx(-1e-200, rel=1e-12)

    def test_sign_from_sturm_sequence_past_a_zero_pivot(self):
        # the exact lambda is diag[0] = 0, so q_0 = 0; eigvalsh returns it to
        # within rounding and the pivot is raised to the guard.  The exact
        # vector is (1e-13, 0, -1) up to its norm, entry 0 below 1e-8
        m = TridiagonalMatrix(diag=[0.0, 0.0, 0.0], sub=[1.0, 1e-13], sup=[1.0, 1e-13])
        values, vector = solve(m, 1)
        assert abs(values[1]) <= np.finfo(float).eps
        assert vector[0] == pytest.approx(1e-13, rel=1e-12)
        assert vector[2] == pytest.approx(-1.0, rel=1e-15)

    def test_overflowing_coupling_named(self):
        m = TridiagonalMatrix(diag=[0.0, 0.0], sub=[1e160], sup=[1e160])
        with np.errstate(all="raise"), pytest.raises(SolverError, match="overflows"):
            solve(m, 0)

    def test_zero_dimension_rejected(self):
        with pytest.raises(SolverError):
            TridiagonalMatrix(diag=[], sub=[], sup=[])

    def test_inconsistent_bands_rejected(self):
        with pytest.raises(SolverError):
            TridiagonalMatrix(diag=[1.0, 2.0], sub=[1.0, 1.0], sup=[1.0])


class TestSymmetricEigenpairs:
    def test_stack_is_bit_identical_to_one_call_per_matrix(self):
        rng = np.random.default_rng(11)
        diag, coupling = rng.uniform(-3.0, 3.0, (9, 7)), rng.uniform(0.0, 2.0, (9, 6))
        ranks = [0, 3, 6]
        values, vectors = eigen_tridiagonal(diag, coupling, ranks)
        for i in range(9):
            one_values, one_vectors = eigen_tridiagonal(diag[i : i + 1], coupling[i : i + 1], ranks)
            assert np.array_equal(values[i], one_values[0]) and np.array_equal(vectors[i], one_vectors[0])

    def test_conventions(self):
        rng = np.random.default_rng(5)
        diag, coupling = rng.uniform(-3.0, 3.0, (4, 12)), rng.uniform(0.1, 2.0, (4, 11))
        values, vectors = eigen_tridiagonal(diag, coupling, np.arange(12))
        for i in range(4):
            symmetric = np.diag(diag[i]) + np.diag(coupling[i], 1) + np.diag(coupling[i], -1)
            assert np.all(np.diff(values[i]) > 0.0)
            assert np.max(np.abs(vectors[i].T @ vectors[i] - np.eye(12))) < 1e-14
            assert np.max(np.abs(symmetric @ vectors[i] - vectors[i] * values[i])) < 1e-13
            assert np.all(vectors[i, 0] > 0.0)

    def test_repeated_ranks_give_repeated_columns(self):
        diag, coupling = np.array([[0.0, 1.0, 2.0, 3.0]]), np.array([[0.5, 0.5, 0.5]])
        _, vectors = eigen_tridiagonal(diag, coupling, [2, 0, 2, 2])
        _, single = eigen_tridiagonal(diag, coupling, [0, 2])
        assert np.array_equal(vectors[0], single[0][:, [1, 0, 1, 1]])

    def test_zero_couplings_give_signed_basis_vectors(self):
        # across a zero coupling the Sturm sequence still sets the sign: entry
        # j of the vector of lam is negative when an odd number of diag[i],
        # i < j, lies above lam
        values, vectors = eigen_tridiagonal(np.array([[3.0, 1.0, 2.0]]), np.zeros((1, 2)), [0, 1, 2])
        assert values.tolist() == [[1.0, 2.0, 3.0]]
        assert vectors[0].tolist() == [[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]

    def test_underflowing_coupling_product(self):
        # 1e-170 squared underflows to 0, so the pivots read a split matrix, but
        # the vectors take the coupling itself: each keeps its exact entry
        # -+1e-170 / (2 - 1) off the block
        values, vectors = eigen_tridiagonal(np.array([[1.0, 2.0]]), np.array([[1e-170]]), [0, 1])
        assert values.tolist() == [[1.0, 2.0]]
        np.testing.assert_allclose(vectors[0], [[1.0, 1e-170], [-1e-170, 1.0]], rtol=1e-14, atol=0.0)

    def test_sign_from_sturm_sequence_past_a_zero_pivot(self):
        # the exact lambda is diag[0] = 0, so q_0 = 0; eigvalsh returns it to
        # within rounding and the pivot is raised to the guard.  The exact
        # vector is (1e-13, 0, -1) up to its norm, entry 0 below 1e-8
        values, vectors = eigen_tridiagonal(np.zeros((1, 3)), np.array([[1.0, 1e-13]]), [1])
        assert abs(values[0, 1]) <= np.finfo(float).eps
        assert vectors[0, 0, 0] == pytest.approx(1e-13, rel=1e-12)
        assert vectors[0, 2, 0] == pytest.approx(-1.0, rel=1e-15)

    def test_overflowing_coupling_product_named(self):
        with np.errstate(all="raise"), pytest.raises(SolverError, match="overflows"):
            eigen_tridiagonal(np.zeros((2, 2)), np.array([[1.0], [1e160]]), [0])

    def test_residual_is_bounded_by_the_largest_eigenvalue(self):
        # the middle eigenvalue is 0 and the largest 1e12: a residual of
        # about 1e-4 on the middle pair is rounding at the matrix's scale
        diag, coupling = np.array([[0.0, 0.0, 0.0]]), np.array([[1e12 / math.sqrt(2.0)] * 2])
        values, vectors = eigen_tridiagonal(diag, coupling, [1])
        assert abs(values[0, 1]) < 1e-3
        assert np.max(np.abs(vectors[0, :, 0] - [1.0 / math.sqrt(2.0), 0.0, -1.0 / math.sqrt(2.0)])) < 1e-15

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_residual_near_the_double_range_does_not_overflow(self):
        # eigenvalues near 1e300 with couplings of 1: the residual's squares overflowed to inf, which
        # raised a RuntimeWarning and then refused correct pairs; in units of the scale they stay finite
        diag = np.array([[-1e300, 0.0, 1e300], [1e300, 2e300, 3e300]])
        values, vectors = eigen_tridiagonal(diag, np.array([[1.0, 1.0], [1.0, 0.5]]), [0, 1, 2])
        # rounding at the matrix's scale: eigvalsh gives +-1e300 to 1.5e284
        assert np.max(np.abs(values - diag)) <= 1e-15 * 3e300
        assert np.max(np.abs(vectors - np.eye(3))) <= 2e-300

    @pytest.mark.parametrize(
        "solve",
        [
            lambda: solve_ince(ModeIndex(5, 3, Parity.EVEN), 2.0),
            lambda: decompose(ModeIndex(5, 3, Parity.ODD), 2.0),
            lambda: eval_lg(1, 2, "even", geometry(), 0.3, 0.2),
        ],
        ids=["solve_ince", "decompose", "eval_lg"],
    )
    def test_lapack_failure_is_a_solver_error(self, solve, monkeypatch):
        def failing(stack):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        with pytest.raises(SolverError, match="did not converge"):
            solve()

    def test_residual_failure_raised_through_the_lg_to_hg_transform(self, monkeypatch):
        eigvalsh = np.linalg.eigvalsh

        def perturbed(stack):
            values = eigvalsh(stack)
            values[0, 3] += 0.5  # the transform reads ranks 2 to 4; 2.5 lies between two eigenvalues
            return values

        monkeypatch.setattr(np.linalg, "eigvalsh", perturbed)
        with pytest.raises(SolverError, match="residual"):
            verify._lg_to_hg(4)


def _calls(path, names, imports=()):
    """(enclosing function, callee) of each call to ``names``, and of each import of ``imports``, in a module."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                name = getattr(child.func, "attr", getattr(child.func, "id", None))
                if name in names:
                    found.append((owner, name))
            elif isinstance(child, ast.ImportFrom):
                found.extend((owner, f"import {alias.name}") for alias in child.names if alias.name in imports)
            visit(child, getattr(child, "name", owner) if isinstance(child, ast.FunctionDef) else owner)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def test_one_eigen_kernel():
    # the symmetric eigensolve and its sign rule have one owner, which calls eigvalsh once;
    # nothing in the package builds eigh's full set of eigenvectors
    package = Path(elliptic_oam.__file__).parent
    names = ("eigh", "eigvalsh", "_sturm_flips")
    calls = {path.name: _calls(path, names, names) for path in sorted(package.glob("*.py"))}
    assert {name: found for name, found in calls.items() if found} == {
        "linalg.py": [("eigen_tridiagonal", "eigvalsh"), ("eigen_tridiagonal", "_sturm_flips")]
    }


def test_no_dense_linear_solve():
    # every eigenvector comes from the kernel's twisted factorizations; no module refines one by a
    # dense solve, nor inverts or least-squares fits a matrix
    package = Path(elliptic_oam.__file__).parent
    names = ("solve", "lstsq", "inv", "pinv", "tensorsolve")
    calls = {path.name: _calls(path, names, names) for path in sorted(package.glob("*.py"))}
    assert {name: found for name, found in calls.items() if found} == {}


def test_dense_recurrence_matrix_serves_only_the_benchmark_and_tests():
    # the library reads T(eps) from the pencil; only build_recurrence_matrix itself builds a TridiagonalMatrix
    package = Path(elliptic_oam.__file__).parent
    names = ("build_recurrence_matrix", "TridiagonalMatrix")
    calls = {path.name: _calls(path, names) for path in sorted(package.glob("*.py"))}
    assert {name: found for name, found in calls.items() if found} == {
        "ince.py": [("build_recurrence_matrix", "TridiagonalMatrix")]
    }


def _cached_functions(path):
    """(function, decorator) of every function decorated with ``lru_cache`` or ``cache`` in a module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = getattr(target, "attr", getattr(target, "id", None))
                if name in ("lru_cache", "cache"):
                    found.append((node.name, name))
    return found


def test_only_constant_tables_are_cached():
    # tables keyed by a Gouy order or a node count; a (mode, eps) solve cache would hide the solver's cost and checks
    package = Path(elliptic_oam.__file__).parent
    cached = {path.name: _cached_functions(path) for path in sorted(package.glob("*.py"))}
    assert {name: found for name, found in cached.items() if found} == {
        "linalg.py": [("_gauss_legendre", "lru_cache")],
    }


def test_ig_fields_solve_their_hg_blocks_and_build_no_lg_to_hg_table(monkeypatch):
    # an IG field's HG coefficients are its HG block eigenvectors: the two blocks of an odd order
    # are one kernel stack, an even order's are two, and no LG -> HG transform is solved
    calls = []

    def counted(function):
        def wrapper(*args, **kwargs):
            calls.append(function.__name__)
            return function(*args, **kwargs)

        return wrapper

    for name, module in list(sys.modules.items()):
        if name.startswith("elliptic_oam") and hasattr(module, "eigen_tridiagonal"):
            monkeypatch.setattr(module, "eigen_tridiagonal", counted(module.eigen_tridiagonal))
    geo = geometry()
    eval_hig(ModeIndex(7, 3, Parity.EVEN), "plus", 1.5, geo, 0.3, 0.2)
    assert len(calls) == 1
    calls.clear()
    eval_hig(ModeIndex(6, 2, Parity.EVEN), "minus", 2.5, geo, np.zeros((1, 16)), np.zeros((16, 1)))
    assert len(calls) == 2  # blocks of 4 and 3 rows
    calls.clear()
    for parity in Parity:
        eval_ig(ModeIndex(7, 3, parity), 2.5, geo, 0.3, 0.2)
    assert len(calls) == 2


def test_fields_make_no_eigen_kernel_call_of_their_own():
    # every field, LG at eps = 0 included, takes its coefficients from ince's HG blocks; the LG -> HG
    # table is an oracle in verify
    path = Path(elliptic_oam.__file__).parent / "beams.py"
    assert _calls(path, ("eigen_tridiagonal",), ("eigen_tridiagonal",)) == []


class TestIntegratePlane:
    def test_gaussian_integral(self):
        X, Y, W = plane_quadrature_grid(8.0, 64)
        value = np.sum(np.exp(-X**2 - Y**2) * W)
        assert abs(value - math.pi) < 1e-12

    def test_odd_integrand_vanishes(self):
        X, Y, W = plane_quadrature_grid(8.0, 64)
        value = np.sum(X * np.exp(-X**2 - Y**2) * W)
        assert abs(value) < 1e-14

    def test_lg01_normalization(self):
        geo = geometry()
        X, Y, W = plane_quadrature_grid(8.0, 96)
        value = np.sum(np.abs(eval_lg(0, 1, "helical_plus", geo, X, Y)) ** 2 * W)
        assert abs(value - 1.0) < 1e-10

    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 5, 7, 9])
    def test_polynomial_exactness(self, degree):
        # Gauss-Legendre with n nodes is exact through degree 2n - 1 per axis
        X, Y, W = plane_quadrature_grid(2.0, 16)
        value = np.sum(X**degree * W)
        expected = (2.0 ** (degree + 1) - (-2.0) ** (degree + 1)) / (degree + 1) * 4.0
        assert abs(value - expected) < 1e-11

    def test_precondition_validation(self):
        with pytest.raises(ValueError):
            plane_quadrature_grid(-1.0, 8)
        with pytest.raises(ValueError):
            plane_quadrature_grid(1.0, 1)

    @pytest.mark.parametrize("half_width", [math.nan, math.inf])
    def test_non_finite_half_width_is_refused(self, half_width):
        # a NaN half-width used to give an all-NaN grid
        with pytest.raises(ValueError, match="half_width must be positive and finite"):
            plane_quadrature_grid(half_width, 4)
