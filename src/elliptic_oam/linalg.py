"""Small dense linear-algebra and quadrature kernels.

No physics lives here: a diagonally-symmetrizable tridiagonal eigensolver
(LAPACK ``eigh`` on the symmetrized bands, then one step of inverse
iteration on the original matrix) and a tensor-product Gauss-Legendre
quadrature over a square window.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonSymmetrizableError, SolverError

_SOLVE_BLOCK = 32


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Real tridiagonal matrix stored as its three bands.

    ``sub[i]`` couples row i+1 to column i, ``sup[i]`` row i to column i+1.
    """

    diag: np.ndarray
    sub: np.ndarray
    sup: np.ndarray

    def __post_init__(self):
        diag = np.atleast_1d(np.asarray(self.diag, dtype=float))
        sub = np.atleast_1d(np.asarray(self.sub, dtype=float)) if np.size(self.sub) else np.zeros(0)
        sup = np.atleast_1d(np.asarray(self.sup, dtype=float)) if np.size(self.sup) else np.zeros(0)
        if diag.size < 1:
            raise SolverError("tridiagonal matrix must have dimension >= 1")
        if sub.size != diag.size - 1 or sup.size != diag.size - 1:
            raise SolverError(
                f"band lengths ({sub.size}, {sup.size}) inconsistent with dimension {diag.size}"
            )
        for name, arr in (("diag", diag), ("sub", sub), ("sup", sup)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dimension(self) -> int:
        return self.diag.size

    def to_dense(self) -> np.ndarray:
        return np.diag(self.diag) + np.diag(self.sup, 1) + np.diag(self.sub, -1)


@dataclass(frozen=True)
class EigenSolution:
    """Full spectrum of a tridiagonal matrix.

    ``eigenvalues`` ascending; column i of ``eigenvectors`` is the unit-norm
    vector paired with eigenvalue i, sign-fixed so its first nonzero entry
    is positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        for name in ("eigenvalues", "eigenvectors"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def eigen_tridiagonal(matrix: TridiagonalMatrix) -> EigenSolution:
    """Full real spectrum of a diagonally-symmetrizable tridiagonal matrix.

    Requires ``sub[i] * sup[i] >= 0`` for every coupling; couplings that are
    zero on both sides split the problem into independent blocks.  Raises
    :class:`NonSymmetrizableError` otherwise.
    """
    sub, sup = matrix.sub, matrix.sup
    products = sub * sup
    if np.any(products < 0.0):
        bad = int(np.flatnonzero(products < 0.0)[0])
        raise NonSymmetrizableError(
            f"sub[{bad}]*sup[{bad}] = {products[bad]:g} < 0; no diagonal similarity exists"
        )
    one_sided = (products == 0.0) & ((sub != 0.0) | (sup != 0.0))
    if np.any(one_sided):
        bad = int(np.flatnonzero(one_sided)[0])
        raise NonSymmetrizableError(
            f"coupling {bad} is zero on one side only; matrix is defective under symmetrization"
        )

    # scale[i+1] / scale[i] = sqrt(sup[i] / sub[i]) maps the matrix onto its
    # symmetric form; across a coupling zero on both sides any ratio will do
    ratios = np.sqrt(np.divide(sup, sub, out=np.ones_like(sub), where=products > 0.0))
    scale = np.concatenate(([1.0], np.cumprod(ratios)))
    coupling = np.sqrt(products)
    symmetric = TridiagonalMatrix(diag=matrix.diag, sub=coupling, sup=coupling)
    dense = matrix.to_dense()
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(symmetric.to_dense())
        # unscaling amplifies the eigh error in the small entries; one step of
        # inverse iteration on the original matrix, shifted just off each
        # eigenvalue, restores them.  The offset scales with the largest
        # eigenvalue, as the eigh error does, so no shifted system is exactly
        # singular.  Columns are solved in batches of _SOLVE_BLOCK so the
        # stacked systems stay O(dimension^2) in memory.
        shifts = eigenvalues + 1e-13 * (1.0 + np.max(np.abs(eigenvalues)))
        columns = (eigenvectors / scale[:, None]).T
        identity = np.eye(matrix.dimension)
        for block in range(0, matrix.dimension, _SOLVE_BLOCK):
            rows = slice(block, block + _SOLVE_BLOCK)
            systems = dense - shifts[rows, None, None] * identity
            columns[rows] = np.linalg.solve(systems, columns[rows, :, None])[:, :, 0]
        eigenvectors = columns.T
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"tridiagonal eigensolve failed: {exc}") from exc
    eigenvectors /= np.linalg.norm(eigenvectors, axis=0)

    first_nonzero = np.argmax(eigenvectors != 0.0, axis=0)
    eigenvectors *= np.where(eigenvectors[first_nonzero, np.arange(eigenvalues.size)] < 0.0, -1.0, 1.0)

    residuals = np.linalg.norm(dense @ eigenvectors - eigenvectors * eigenvalues, axis=0)
    bad = np.flatnonzero(residuals > 1e-10 * (1.0 + np.abs(eigenvalues)))
    if bad.size:
        j = int(bad[0])
        raise SolverError(
            f"eigenpair {j} residual {residuals[j]:.3e} exceeds bound; matrix badly scaled?"
        )
    return EigenSolution(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


@lru_cache(maxsize=32)
def _gauss_legendre(nodes: int):
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def plane_quadrature_grid(half_width: float, nodes_per_axis: int):
    """Gauss-Legendre nodes and combined weights on [-half_width, half_width]^2.

    Returns (X, Y, W) meshgrids; ``sum(f(X, Y) * W)`` approximates the plane
    integral of f over the square.
    """
    if half_width <= 0.0:
        raise ValueError("half_width must be positive")
    if nodes_per_axis < 2:
        raise ValueError("nodes_per_axis must be at least 2")
    x, w = _gauss_legendre(nodes_per_axis)
    x = x * half_width
    w = w * half_width
    X, Y = np.meshgrid(x, x, indexing="xy")
    return X, Y, np.outer(w, w)
