"""Tests for the tridiagonal eigensolver and plane quadrature."""

import math

import numpy as np
import pytest

from elliptic_oam.errors import SolverError
from elliptic_oam.linalg import TridiagonalMatrix, eigen_tridiagonal, plane_quadrature_grid

from oracles import band_scale, sturm_eigenvalues


def solve(matrix, rank):
    return eigen_tridiagonal(matrix, band_scale(matrix), rank)


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
        # eigh returns lambda = diag[0] = 0 exactly, so q_0 = 0; the exact
        # vector is (1e-13, 0, -1) up to its norm, entry 0 below 1e-8
        m = TridiagonalMatrix(diag=[0.0, 0.0, 0.0], sub=[1.0, 1e-13], sup=[1.0, 1e-13])
        values, vector = solve(m, 1)
        assert values[1] == 0.0
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
        from elliptic_oam.beams import eval_lg

        from oracles import geometry

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
