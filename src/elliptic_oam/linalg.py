"""Small dense linear-algebra and quadrature kernels.

No physics lives here.  ``eigen_tridiagonal`` is the package's one
symmetric tridiagonal eigen kernel: every eigenvalue of a stack of matrices
from one LAPACK ``eigvalsh`` call, then each requested eigenvector in O(d)
from twisted factorizations at its eigenvalue (``_pivots`` and
``_twisted_vectors``; Fernando, SIAM J. Matrix Anal. Appl. 18, 1013
(1997); Dhillon, Parlett & Voemel, ACM TOMS 32, 533 (2006)), with the
coupling-overflow guard, the residual check and the Sturm-sequence sign
rule (``_sturm_flips``).  The twisted passes run in one of two loops with
the same bits: whole-array numpy passes over a stack, or, for a stack of
at most ``_FLOAT_PAIRS`` (matrix, rank) pairs, a loop on Python floats,
pair by pair (``_float_stack_vectors``), which skips the passes' fixed
numpy calls.  The Ince route of ``ince`` and its Hermite-Gauss
blocks, which give every field of ``beams`` its coefficients, solve through
it, and so does the LG -> HG transform of ``verify``, their oracle.
``_tridiagonal_stack`` fills the dense stack that ``eigvalsh`` reduces;
``TridiagonalMatrix``, kept for the benchmark and the tests only, holds one
matrix's bands.  A tensor-product Gauss-Legendre quadrature over a square
window completes the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SolverError


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Real tridiagonal matrix stored as its three bands.

    ``sub[i]`` couples row i+1 to column i, ``sup[i]`` row i to column i+1.
    For the benchmark and the tests only; the kernel's dense stack comes from ``_tridiagonal_stack``.
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
_EPSILON = float(np.finfo(float).eps)
# Each pair's residual bound, in units of 1 + the largest |eigenvalue| of its matrix.
_RESIDUAL_BOUND = 1e-10
# Stacks of at most this many (matrix, rank) pairs take the twisted passes on Python floats, pair
# by pair; larger ones the whole-array passes.  Both give the same bits.  The loop saves the
# passes' fixed numpy calls, about 90 at d = 3, and costs O(d) float operations per pair: one
# rank's call, eigvalsh included, was faster on the loop up to 8 matrices at d = 3 and up to 6
# at d = 6 to 20, slower from 10 and 8 (numpy 2.4 on a 2-CPU x86-64 machine)
_FLOAT_PAIRS = 6


def _sturm_flips(vector):
    """Whether entry 0 of each unnormalized twisted vector of ``_twisted_vectors`` is negative, however small.

    For a symmetric tridiagonal matrix with couplings b[i] >= 0 and an
    eigenvalue lam, the forward pivots D[0] = diag[0] - lam,
    D[i] = diag[i] - lam - b[i - 1]^2 / D[i - 1], are the Sturm sequence
    q[i] = -D[i], and sign(v[i] / v[i + 1]) = -sign(D[i]).  Entry 0 of the
    twisted vector is the product of -b[i] / D[i] over i below the twist,
    where the entry is 1, so its sign bit is the parity of the positive
    pivots there: a product keeps that parity when it underflows to +-0,
    and a zero coupling enters as -0.0.  Reading the bit carries the sign
    of the twist entry back to entry 0 by the Sturm sequence.
    """
    return np.signbit(vector[0])


def _both_ways(band) -> np.ndarray:
    """The rows of ``band`` (N, k) as (k, 2, N, 1), index first: as they are along axis 1 at 0, reversed at 1."""
    both = np.empty((band.shape[1], 2, band.shape[0], 1))
    both[:, 0, :, 0] = band.T
    both[:, 1, :, 0] = band.T[::-1]
    return both


def _pivots(values, diag, products, guard) -> np.ndarray:
    """The forward pivots of each T - lam along axis 1 at 0, and its backward pivots, reversed, at 1.

    Index first: ``values`` are the lam, (N, r), and ``diag`` and ``products`` (the squared
    couplings b[i]^2) come from ``_both_ways``.  The forward pivots D+[0] = diag[0] - lam,
    D+[k] = diag[k] - lam - b[k - 1]^2 / D+[k - 1], and the backward ones D-, the same recurrence
    on the reversed bands, run in one loop; each pivot below ``guard`` (N, 1) in size is raised to
    it, keeping its sign bit, before it divides.
    """
    pivots = diag - values
    previous = pivots[0]
    for pivot, product in zip(pivots[1:], products):
        np.copysign(np.maximum(np.abs(previous), guard), previous, out=previous)
        pivot -= product / previous
        previous = pivot
    return pivots


def _twisted_vectors(pivots, negated, fixed):
    """The twisted vector z of each T - lam from its ``_pivots``, unnormalized, and |z|^2.

    z[k] = 1 at the twist k; z[i] = -b[i] / D+[i] z[i + 1] above it and
    z[i] = -b[i - 1] / D-[i] z[i - 1] below it, from ``negated`` = -b[i] of ``_both_ways``.  Both
    sides run in one loop, the lower one on the reversed bands, with each side's ratios set to 1
    where ``fixed``, from its twist on.
    """
    ratios = negated / pivots[:-1]
    np.putmask(ratios, fixed, 1.0)
    sides = np.empty(pivots.shape)
    following = sides[-1]
    following[...] = 1.0
    for side, ratio in zip(sides[-2::-1], ratios[::-1]):
        following = np.multiply(ratio, following, out=side)
    # z beside its reverse: numpy sums such an array down axis 0 one row at a time, in index
    # order, so a stack and its rows agree bit for bit (a lone column it would sum pairwise)
    both = sides * sides[::-1, ::-1]
    return both[:, 0], np.add.reduce(np.square(both), axis=0)[0]


def _float_pivots(diag, products, guard, lam) -> list:
    """The forward pivots of one T - lam as ``_pivots`` gives them, on Python floats.

    Each pivot below ``guard`` in size but the last is raised to it, keeping its sign bit, before
    it divides.  The reversed ``diag`` and ``products`` give the backward pivots, reversed.
    """
    pivot, pivots = diag[0] - lam, []
    for entry, product in zip(diag[1:], products):
        if abs(pivot) < guard:  # a NaN pivot stays NaN, as np.maximum keeps it
            pivot = math.copysign(guard, pivot)
        pivots.append(pivot)
        pivot = (entry - lam) - product / pivot
    pivots.append(pivot)
    return pivots


def _float_twisted_vector(forward, backward, negated, twist):
    """The twisted vector z of ``_twisted_vectors`` at ``twist`` on Python floats, and |z|^2 summed in index order.

    ``forward`` holds the pivots D+ from 0 up to the twist, ``backward`` the pivots D- reversed,
    from the end down to it, and ``negated`` the -b[i].
    """
    size = len(negated) + 1
    vector = [1.0] * size
    for i in range(twist - 1, -1, -1):
        vector[i] = negated[i] / forward[i] * vector[i + 1]
    for i in range(twist + 1, size):
        vector[i] = negated[i - 1] / backward[size - 1 - i] * vector[i - 1]
    squared = 0.0
    for entry in vector:
        squared += entry * entry
    return vector, squared


def _first_least(gammas) -> int:
    """``np.argmin(np.abs(gammas))`` of a list: the first least |gamma|, or the first NaN."""
    twist, least = 0, abs(gammas[0])
    for i, gamma in enumerate(gammas):
        if gamma != gamma:
            return i
        if abs(gamma) < least:
            twist, least = i, abs(gamma)
    return twist


def _float_stack_vectors(diag, coupling, values, ranks) -> np.ndarray:
    """The unit eigenvectors of ``eigen_tridiagonal`` for a stack of a few pairs, as a (d, N, r) array.

    The whole-array passes' IEEE operations in their order, pair by pair on Python floats: the
    guarded pivots, the first least |gamma| as the twist, the second pass at lam + gamma / |z|^2
    with that twist, the sign bit of entry 0, and the residual, every sum in index order.  It
    raises the error of the first pair, in (matrix, rank) order, whose residual exceeds the bound.
    """
    ranks, columns = ranks.tolist(), []
    for row, bands, spectrum in zip(diag.tolist(), coupling.tolist(), values.tolist()):
        size, low, high = len(row), -spectrum[0], spectrum[-1]
        scale = 1.0 + (low if low >= high or low != low else high)  # np.maximum, NaN and all
        guard, products = _EPSILON * scale, [band * band for band in bands]
        negated, reversed_row, reversed_products = [-band for band in bands], row[::-1], products[::-1]
        for rank in ranks:
            if scale != scale:  # every residual of this matrix is NaN, so its first pair fails
                raise _residual_error(rank, math.nan)
            lam = spectrum[rank]
            forward = _float_pivots(row, products, guard, lam)
            backward = _float_pivots(reversed_row, reversed_products, guard, lam)
            gammas = [forward[i] + backward[size - 1 - i] - (row[i] - lam) for i in range(size)]
            twist = _first_least(gammas)
            _, squared = _float_twisted_vector(forward, backward, negated, twist)
            # the second pass needs only the pivots that divide, on each side of the twist
            shifted = lam + gammas[twist] / squared
            forward = _float_pivots(row[: twist + 1], products, guard, shifted)
            backward = _float_pivots(reversed_row[: size - twist], reversed_products, guard, shifted)
            vector, squared = _float_twisted_vector(forward, backward, negated, twist)
            norm = math.sqrt(squared)
            if math.copysign(1.0, vector[0]) < 0.0:  # the sign bit, as ``_sturm_flips`` reads it
                norm = -norm
            vector = [entry / norm for entry in vector]
            residual = 0.0
            for i in range(size):
                error = (row[i] - lam) * vector[i]
                if i + 1 < size:
                    error += bands[i] * vector[i + 1]
                if i:
                    error += bands[i - 1] * vector[i - 1]
                error /= scale
                residual += error * error
            residual = math.sqrt(residual)
            if not residual <= _RESIDUAL_BOUND:
                raise _residual_error(rank, residual * scale)
            columns.append(vector)
    # (d, N, r) in C order, as the whole-array passes lay out theirs
    return np.array(columns).T.copy().reshape(diag.shape[1], diag.shape[0], len(ranks))


def _residual_error(rank, residual) -> SolverError:
    return SolverError(f"eigenpair {rank} residual {residual:.3e} exceeds bound; matrix badly scaled?")


def _tridiagonal_stack(diag, sub, sup) -> np.ndarray:
    """The dense (N, d, d) stack of the tridiagonal matrices with bands ``diag[i]``, ``sub[i]`` and ``sup[i]``."""
    count, dimension = diag.shape
    stack = np.zeros((count, dimension, dimension))
    flat = stack.reshape(count, dimension * dimension)  # a view, whose three bands are strided slices
    flat[:, :: dimension + 1] = diag
    flat[:, 1 :: dimension + 1] = sup
    flat[:, dimension :: dimension + 1] = sub
    return stack


def eigen_tridiagonal(diag, coupling, ranks):
    """Eigenpairs of a stack of symmetric tridiagonal matrices: one ``eigvalsh`` call, then O(d) per vector.

    Matrix i has diagonal ``diag[i]`` and couplings ``coupling[i] >= 0`` on
    both off-diagonals.  Returns every eigenvalue, ascending, as
    ``values[i]``, and the unit eigenvectors of the ranks in ``ranks``
    (repeats allowed) as the columns of ``vectors[i]``.  Each vector comes
    from a twisted factorization of T - lam at its eigenvalue (``_pivots``
    and ``_twisted_vectors``), then from a second one at the Rayleigh
    quotient of the first, which eigvalsh's eigenvalue alone is not
    accurate enough for at large ellipticity or order.  It is
    signed so that entry 0 is positive: the sign of its twist entry is
    carried back to entry 0 by ``_sturm_flips``, however small entry 0 is.
    Each pair's residual is checked against the largest eigenvalue of its
    matrix, the scale of the eigenvalue's error.  A stack of at most
    ``_FLOAT_PAIRS`` (matrix, rank) pairs, such as a field's HG blocks or
    one ellipticity's Ince matrix, runs these steps pair by pair on Python
    floats (``_float_stack_vectors``), a larger one, such as a chunk of an
    eps grid, in whole-array numpy passes: the same IEEE operations in the
    same order, so the same bits and the same ``SolverError``.
    """
    ranks, dimension = np.asarray(ranks), diag.shape[1]
    if coupling.max(initial=0.0) > _LARGEST_COUPLING:
        raise SolverError("a coupling product sub[i]*sup[i] overflows the double range")
    try:
        values = np.linalg.eigvalsh(_tridiagonal_stack(diag, coupling, coupling))
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"tridiagonal eigensolve failed: {exc}") from exc
    if diag.shape[0] * ranks.size <= _FLOAT_PAIRS:
        return values, _float_stack_vectors(diag, coupling, values, ranks).transpose(1, 0, 2)
    chosen = values[:, ranks]
    # the values ascend, so the largest |value| is at one end; it sets the scale of their error
    scale = 1.0 + np.maximum(-values[:, :1], values[:, -1:])
    diag, band = _both_ways(diag), _both_ways(coupling)
    products, negated, guard = band * band, -band, _EPSILON * scale
    # the twist k minimizes |gamma[k]| = |D+[k] + D-[k] - (diag[k] - lam)|, and
    # (T - lam) z = gamma[k] e_k, so the Rayleigh quotient of z is lam + gamma[k] / |z|^2
    pivots = _pivots(chosen, diag, products, guard)
    gamma = (pivots[:, 0] + pivots[::-1, 1] - (diag[:, 0] - chosen)).reshape(dimension, -1)
    twist = np.argmin(np.abs(gamma), axis=0)
    nearest = gamma[twist, np.arange(twist.size)].reshape(chosen.shape)
    # each side's ratios are 1 from its twist on; the reversed side's twist is dimension - 1 - twist
    ends = np.empty((2,) + chosen.shape, dtype=twist.dtype)
    ends[0] = twist.reshape(chosen.shape)
    np.subtract(dimension - 1, ends[0], out=ends[1])
    fixed = np.arange(dimension - 1).reshape(-1, 1, 1, 1) >= ends
    _, squared = _twisted_vectors(pivots, negated, fixed)
    # a second solve at that Rayleigh quotient, with the same twist
    pivots = _pivots(chosen + nearest / squared, diag, products, guard)
    vectors, squared = _twisted_vectors(pivots, negated, fixed)
    norms = np.sqrt(squared)
    np.negative(norms, out=norms, where=_sturm_flips(vectors))
    vectors /= norms
    # S v - lam v from the bands: a dense product costs d^3 at d ranks, and
    # BLAS's matrix-matrix buffers raise the peak memory of small solves
    diag, band = diag[:, 0], band[:, 0]
    error = (diag - chosen) * vectors
    error[:-1] += band * vectors[1:]
    error[1:] += band * vectors[:-1]
    # in units of the scale, so no square overflows where the eigenvalues near the double range
    residual = np.sqrt(np.sum(np.square(np.divide(error, scale, out=error), out=error), axis=0))
    bad = ~(residual <= _RESIDUAL_BOUND)
    if bad.any():
        raise _residual_error(ranks[np.nonzero(bad)[1][0]], (residual * scale)[bad][0])
    return values, vectors.transpose(1, 0, 2)


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
    if not 0.0 < half_width < np.inf:  # a NaN fails it too
        raise ValueError(f"half_width must be positive and finite, got {half_width}")
    if nodes_per_axis < 2:
        raise ValueError("nodes_per_axis must be at least 2")
    x, w = _gauss_legendre(nodes_per_axis)
    x = x * half_width
    w = w * half_width
    X, Y = np.meshgrid(x, x, indexing="xy")
    return X, Y, np.outer(w, w)
