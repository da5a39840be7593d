"""Small dense linear-algebra and quadrature kernels.

No physics lives here.  ``eigen_tridiagonal`` is the package's one
symmetric tridiagonal eigen kernel: a stack of matrices in one LAPACK
``eigh`` call, with the coupling-overflow guard, the residual check and the
Sturm-sequence sign rule; the Ince route of ``ince`` and the LG -> HG
transform of ``beams`` solve through it.  ``_tridiagonal_stack`` fills its
stack and the T(eps) stack of the Fourier refinement in ``ince``;
``TridiagonalMatrix``, kept for the benchmark and the tests only, holds
one matrix's bands.  A tensor-product Gauss-Legendre quadrature over a
square window completes the module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SolverError


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Real tridiagonal matrix stored as its three bands.

    ``sub[i]`` couples row i+1 to column i, ``sup[i]`` row i to column i+1.
    For the benchmark and the tests only; the library's dense stacks come from ``_tridiagonal_stack``.
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


# The largest coupling whose square, the product sub[i]*sup[i], is finite.
_LARGEST_COUPLING = float(np.sqrt(np.finfo(float).max))


def _sturm_flips(diag, products, values, first):
    """Whether entry ``first`` of each eigenvector has the opposite sign to entry 0.

    For a tridiagonal matrix with couplings sub[i] * sup[i] = products[i] >= 0
    and an eigenvalue lam, the Sturm sequence q_0 = lam - diag[0],
    q_i = lam - diag[i] - products[i - 1] / q_(i - 1) gives
    sign(v[i + 1] / v[i]) = sign(q_i), so entries 0 and ``first`` differ in
    sign when an odd number of q_0 ... q_(first - 1) is negative, however
    small entry 0 is.  A q of 0 means v[i + 1] = 0; it counts as positive
    and the next q flips.  ``values`` and ``first`` broadcast together, and
    with each ``diag[i]`` and ``products[i]``, so a stack of matrices can
    pass its bands with one column per matrix.
    """
    values, first = np.asarray(values, dtype=float), np.asarray(first)
    flips, q = np.zeros(np.broadcast(values, first).shape, dtype=bool), 1.0
    with np.errstate(over="ignore"):  # after a q of 0 the next q may be -inf; the one after is finite
        for i in range(int(np.max(first, initial=0))):
            divisor = np.where(q == 0.0, np.finfo(float).tiny, q)
            q = values - diag[i] - (products[i - 1] if i else 0.0) / divisor
            flips ^= (q < 0.0) & (i < first)
    return flips


def _tridiagonal_stack(diag, sub, sup) -> np.ndarray:
    """The dense (N, d, d) stack of the tridiagonal matrices with bands ``diag[i]``, ``sub[i]`` and ``sup[i]``."""
    count, dimension = diag.shape
    stack = np.zeros((count, dimension, dimension))
    flat = stack.reshape(count, -1)  # a view, whose three bands are strided slices
    flat[:, :: dimension + 1] = diag
    flat[:, 1 :: dimension + 1] = sup
    flat[:, dimension :: dimension + 1] = sub
    return stack


def eigen_tridiagonal(diag, coupling, ranks):
    """Eigenpairs of a stack of symmetric tridiagonal matrices, one ``eigh`` call for all.

    Matrix i has diagonal ``diag[i]`` and couplings ``coupling[i] >= 0`` on
    both off-diagonals.  Returns every eigenvalue, ascending, as
    ``values[i]``, and the unit eigenvectors of the ranks in ``ranks``
    (repeats allowed) as the columns of ``vectors[i]``.  Each vector is
    signed so that entry 0 is positive: the sign of its first entry above
    1e-8 is carried back to entry 0 by ``_sturm_flips``, however small
    entry 0 is.  Each pair's residual is checked against the largest
    eigenvalue of its matrix, the scale of eigh's error.
    """
    ranks = np.asarray(ranks)
    if coupling.max(initial=0.0) > _LARGEST_COUPLING:
        raise SolverError("a coupling product sub[i]*sup[i] overflows the double range")
    try:
        values, vectors = np.linalg.eigh(_tridiagonal_stack(diag, coupling, coupling))
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"tridiagonal eigensolve failed: {exc}") from exc
    chosen, vectors = values[:, ranks], vectors[:, :, ranks]
    # S v - lam v from the bands: a dense product costs d^3 at d ranks, and
    # BLAS's matrix-matrix buffers raise the peak memory of small solves
    error = diag[:, :, None] - chosen[:, None, :]
    error *= vectors
    band = coupling[:, :, None]
    error[:, :-1] += band * vectors[:, 1:]
    error[:, 1:] += band * vectors[:, :-1]
    residual = np.sqrt(np.sum(np.square(error, out=error), axis=1))
    # the values ascend, so the largest |value| is at one end
    bad = ~(residual <= 1e-10 * (1.0 + np.maximum(-values[:, :1], values[:, -1:])))
    if bad.any():
        raise SolverError(
            f"eigenpair {ranks[np.nonzero(bad)[1][0]]} residual {residual[bad][0]:.3e} exceeds bound; "
            "matrix badly scaled?"
        )
    first = np.argmax(np.abs(vectors) > 1e-8, axis=1)
    flips = vectors[np.arange(diag.shape[0])[:, None], first, np.arange(ranks.size)] < 0.0
    if first.any():  # with every first entry at 0 the Sturm sequence flips nothing
        flips ^= _sturm_flips(diag.T[:, :, None], (coupling * coupling).T[:, :, None], chosen, first)
    return values, np.where(flips[:, None, :], -vectors, vectors)


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
