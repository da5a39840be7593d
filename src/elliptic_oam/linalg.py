"""Small dense linear-algebra and quadrature kernels.

No physics lives here: a diagonally-symmetrizable tridiagonal eigensolver
(LAPACK ``eigh`` on the symmetrized bands for the whole spectrum, then one
step of inverse iteration on the original matrix for the one eigenvector
asked for, whose residual is checked) and a tensor-product Gauss-Legendre
quadrature over a square window.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonSymmetrizableError, SolverError


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


def eigen_tridiagonal(matrix: TridiagonalMatrix, rank: int):
    """All eigenvalues, ascending, and the unit eigenvector of rank ``rank``.

    The vector's first nonzero entry is positive and its residual is checked.
    ``sub[i]`` and ``sup[i]`` must share their sign (zero on both sides splits
    the matrix into blocks); :class:`NonSymmetrizableError` otherwise.
    """
    sub, sup = matrix.sub, matrix.sup
    try:
        with np.errstate(over="raise"):
            products = sub * sup
    except FloatingPointError as exc:
        raise SolverError("a coupling product sub[i]*sup[i] overflows the double range") from exc
    # signs, not products, decide: a product of two tiny couplings underflows to 0
    opposite = np.sign(sub) * np.sign(sup) < 0.0
    if np.any(opposite):
        bad = int(np.flatnonzero(opposite)[0])
        raise NonSymmetrizableError(f"sub[{bad}] and sup[{bad}] differ in sign; no diagonal similarity exists")
    one_sided = (sub == 0.0) != (sup == 0.0)
    if np.any(one_sided):
        bad = int(np.flatnonzero(one_sided)[0])
        raise NonSymmetrizableError(f"coupling {bad} is zero on one side only; defective under symmetrization")

    # scale[i+1] / scale[i] = sqrt(sup[i] / sub[i]) maps the matrix onto its
    # symmetric form; across a coupling zero on both sides any ratio will do
    ratios = np.sqrt(np.divide(sup, sub, out=np.ones_like(sub), where=sub != 0.0))
    scale = np.concatenate(([1.0], np.cumprod(ratios)))
    coupling = np.sqrt(products)
    symmetric = np.diag(matrix.diag) + np.diag(coupling, 1) + np.diag(coupling, -1)
    dense = matrix.to_dense()
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(symmetric)
        # unscaling amplifies the eigh error in small entries, and eigh misses
        # couplings whose product underflowed; one inverse-iteration step on
        # the original matrix restores them.  The shift offset scales with the
        # largest eigenvalue, as the eigh error does, so it is never singular.
        shift = eigenvalues[rank] + 1e-13 * (1.0 + np.max(np.abs(eigenvalues)))
        vector = np.linalg.solve(dense - shift * np.eye(matrix.dimension), eigenvectors[:, rank] / scale)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"tridiagonal eigensolve failed: {exc}") from exc
    vector /= np.sqrt(sum(vector * vector))  # one term at a time, in index order
    if vector[np.argmax(vector != 0.0)] < 0.0:
        vector = -vector
    value = eigenvalues[rank]
    residual = np.linalg.norm(dense @ vector - value * vector)
    if not residual <= 1e-10 * (1.0 + abs(value)):
        raise SolverError(f"eigenpair {rank} residual {residual:.3e} exceeds bound; matrix badly scaled?")
    return eigenvalues, vector


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
