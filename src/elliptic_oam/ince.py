"""Ince polynomials from the trigonometric-series eigenproblem.

The angular equation N'' + eps*sin(2*eta)*N' + [a - p*eps*cos(2*eta)]*N = 0
admits finite trigonometric-polynomial solutions when the series class is
matched to the parity of (p, m).  Substituting the series over its
harmonics k and collecting terms yields the tridiagonal pencil
T(eps) = T0 + eps*T1 with T0 = diag(k^2); the separation constant ``a`` is
the eigenvalue and the Fourier coefficients are the eigenvector.  Mode m
takes the eigenvalue of ascending rank (m - k[0]) / 2, the position of m
among the harmonics, which is the eigenvalue m^2 at eps = 0.  One loop,
``_eigen_chunks``, solves the pencil symmetrized by ``lg_scale`` over an
eps grid in chunked stacks: ``rank_eigenpairs`` collects its vectors, the
LG expansion ``quantum`` reads, and ``_fourier_polynomials`` divides them
by ``lg_scale`` into Fourier vectors (``solve_ince`` at one eps).
Moved into the Hermite-Gauss basis, the same eigenproblem splits by parity
into two blocks of L_z^2 + eps*diag(2k - p) with eps on the diagonal only
(``_hg_pencil``); an IG mode's block eigenvector is its field's HG
coefficients.  ``_hg_coefficients``, the one owner of the block layout,
gives them to every field evaluator of ``beams``, LG fields at eps = 0, as
the even, odd or helical field's.  ``build_recurrence_matrix`` and its
``TridiagonalMatrix`` serve only the benchmark and the tests.  The ODE residual oracle below enforces the
matrix entries; the frozen-band test in ``tests/test_ince.py`` only
guards them against unintended change.  Every eps argument of the package, one number or a grid, and
every mode index is converted and checked here: ``_ellipticity_grid`` and ``_integer_indices``.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidModeError, SolverError
from .linalg import TridiagonalMatrix, eigen_tridiagonal

# Bytes of one dense stack of symmetric matrices handed to the eigen kernel:
# an eps grid of any length is solved in chunks of at most this many, so the
# stack that eigvalsh reduces stays cache-sized; the kernel's twisted solves
# then take O(d) per matrix and rank.  Unchunked stacks of long grids raised
# the peak memory of whole curve sweeps measurably.
_CHUNK_BYTES = 128 << 10


def _integer_indices(family: str, **indices) -> tuple:
    """The mode indices as Python ints; any that is not a real number equal to a non-negative integer is an invalid mode, all named."""
    # the type first, so a string is never compared; inf and nan fail the range test before int() can raise on them
    if not all(isinstance(i, numbers.Real) and 0 <= i < np.inf and i == int(i) for i in indices.values()):
        named = ", ".join(f"{name}={index!r}" for name, index in indices.items())
        raise InvalidModeError(f"{family} indices must be non-negative integers, got {named}")
    return tuple(int(index) for index in indices.values())


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"


@dataclass(frozen=True)
class ModeIndex:
    """Order p, degree m, and series parity of an Ince-Gauss mode.

    p and m must share parity, m <= p, and odd modes need m >= 1 because the
    sine series has no constant term.
    """

    p: int
    m: int
    parity: Parity

    def __post_init__(self):
        if not isinstance(self.parity, Parity):
            try:
                object.__setattr__(self, "parity", Parity(self.parity))
            except ValueError:
                raise InvalidModeError(f"parity must be 'even' or 'odd', got {self.parity!r}") from None
        p, m = _integer_indices("IG", p=self.p, m=self.m)
        if (p - m) % 2 != 0:
            raise InvalidModeError(f"p={p} and m={m} must have the same parity")
        if m > p:
            raise InvalidModeError(f"degree m={m} exceeds order p={p}")
        if self.parity is Parity.ODD and m < 1:
            raise InvalidModeError("odd modes require m >= 1 (sine series has no constant term)")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "m", m)

    @property
    def is_even(self) -> bool:
        return self.parity is Parity.EVEN


@dataclass(frozen=True)
class IncePolynomial:
    """One Ince polynomial: eigenvalue and unit-norm Fourier coefficients.

    ``fourier[j]`` multiplies cos(harmonics[j]*eta) for even parity and
    sin(harmonics[j]*eta) for odd parity.  The coefficient vector has unit
    Euclidean norm; its first entry (nonzero for eps > 0) is positive, by the
    Sturm-sequence rule of ``linalg.eigen_tridiagonal`` where it is
    rounding noise.  It is the kernel's twisted eigenvector of the
    symmetrized recurrence divided by ``lg_scale``, with no further solve.
    """

    mode: ModeIndex
    ellipticity: float
    eigenvalue: float
    fourier: np.ndarray

    def __post_init__(self):
        fourier = np.asarray(self.fourier, dtype=float)
        fourier.setflags(write=False)
        object.__setattr__(self, "fourier", fourier)

    @property
    def harmonics(self) -> np.ndarray:
        return series_harmonics(self.mode)


def series_harmonics(mode: ModeIndex) -> np.ndarray:
    """Harmonic multipliers of the trigonometric series for this mode class."""
    start = 1 if mode.p % 2 else (0 if mode.is_even else 2)
    return np.arange(start, mode.p + 1, 2)


def _pencil(mode: ModeIndex):
    """The parts of T(eps) = diag(k^2) + eps*T1 that do not depend on eps.

    Returns k^2 and the diagonal, sub band and sup band of T1.  T1 couples
    harmonic k to k + 2 with weight (p - k)/2 (sub band) and to k - 2 with
    weight (p + k)/2 (sup band); folding the negative harmonics back onto
    the series makes the only two corrections.
    """
    p = mode.p
    k = series_harmonics(mode).astype(float)
    shift = np.zeros_like(k)
    sub = (p - k[:-1]) / 2.0
    sup = (p + k[1:]) / 2.0
    if p % 2:
        # cos(-eta) = cos(eta) and sin(-eta) = -sin(eta): k = 1 couples to
        # itself, with opposite sign for the two series
        shift[0] = (p + 1) / 2.0 if mode.is_even else -(p + 1) / 2.0
    elif mode.is_even and k.size > 1:
        # cos(-2 eta) = cos(2 eta) doubles the k = 0 -> 2 coupling
        sub[0] = p
    return k * k, shift, sub, sup


def _hg_pencil(p: int):
    """The Hermite-Gauss pencil H(eps) = L_z^2 + eps*diag(2k - p) of order p: its eps-free parts.

    Row k is HG_(k, p - k), k quanta along x.  Returns the diagonal k(p - k + 1) + (k + 1)(p - k)
    of L_z^2 and its eps slope 2k - p for k = 0 ... p, and the couplings
    sqrt((k + 1)(p - k)(k + 2)(p - k - 1)) of rows k and k + 2 for k = 0 ... p - 2.  L_z^2 couples
    only rows two apart, so the pencil splits by the parity of k into two blocks, even modes on
    the k with p - k even and odd modes on the others.  The couplings are negative in the real HG
    basis; the similarity (-1)^j, j the position in the block, makes them positive for the
    kernel.  No eps enters a coupling.
    """
    k = np.arange(p + 1.0)
    # (k + 1)(p - k), k = 0 ... p - 1, is L_z's squared coupling of rows k and k + 1; L_z^2 couples
    # k and k + 2 by the root of two neighbouring ones, and its diagonal is 2k(p - k) + p
    squared = k[1:] * (p + 1.0 - k[1:])
    return 2.0 * k * (p - k) + p, 2.0 * k - p, np.sqrt(squared[:-1] * squared[1:])


def _real_array(values, refusal: str, shown) -> np.ndarray:
    """``values`` as float64 if every entry is a ``numbers.Real``, else the invalid mode "{refusal}, got {shown!r}": no string is parsed, no imaginary part dropped."""
    try:
        array = np.asarray(values)
        if array.dtype.kind in "biuf" or array.dtype.kind == "O" and all(isinstance(v, numbers.Real) for v in array.flat):
            return array.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):  # a ragged nest, or an int past the double range
        pass
    raise InvalidModeError(f"{refusal}, got {shown!r}")


def _ellipticity_grid(epsilons, p: int = 0, positive: bool = False) -> np.ndarray:
    """Any iterable of reals, read once unless an ndarray, as a 1-D float64 eps grid checked by ``_check_ellipticity``; a string is no grid."""
    try:
        grid = epsilons if isinstance(epsilons, (np.ndarray, str, bytes)) else list(epsilons)
    except TypeError:  # one number, not a grid
        raise InvalidModeError(f"ellipticity grid must be 1-D, got shape {np.shape(epsilons)}") from None
    grid = _real_array(grid, "ellipticity grid must hold real numbers", epsilons)
    _check_ellipticity(grid, p, positive)
    return grid


def _scalar_ellipticity(ellipticity, p: int = 0, positive: bool = False) -> float:
    """One eps as a Python float, checked as ``_ellipticity_grid`` checks a grid; else an invalid mode, named by its shape."""
    eps = _real_array(ellipticity, "ellipticity must be one real number", ellipticity)
    if eps.shape:
        raise InvalidModeError(f"ellipticity must be one number, got shape {eps.shape}")
    _check_ellipticity(eps.reshape(1), p, positive)
    return eps.item()


def _check_ellipticity(epsilons: np.ndarray, p: int, positive: bool = False) -> None:
    """Raise unless the eps grid is 1-D, every eps finite and non-negative, and eps * (p + 1) finite.

    ``positive`` is the eps > 0 rule of helical states, IG fields and the census window.
    eps * (p + 1) bounds every band entry of T(eps), which would otherwise
    overflow to inf silently.
    """
    if epsilons.ndim != 1:
        raise InvalidModeError(f"ellipticity grid must be 1-D, got shape {epsilons.shape}")
    # a NaN makes the smallest and the largest NaN, and NaN fails both comparisons
    low, high = float(epsilons.min(initial=np.inf)), float(epsilons.max(initial=0.0))
    if not ((low > 0.0 if positive else low >= 0.0) and high < np.inf):
        bad = ~((epsilons > 0.0 if positive else epsilons >= 0.0) & (epsilons < np.inf))
        domain = "positive and finite" if positive else "finite and non-negative"
        raise InvalidModeError(f"ellipticity must be {domain}, got {epsilons[bad][0]}")
    # the largest eps sets the largest entry; a Python float overflows to inf without a warning
    if high * (p + 1) == np.inf:
        with np.errstate(over="ignore"):
            bad = epsilons * (p + 1) == np.inf
        raise SolverError(f"ellipticity {epsilons[bad][0]:g} overflows the recurrence bands for p={p}")


def _check_simple_spectrum(modes, epsilons, values: np.ndarray) -> None:
    """Raise where two ascending eigenvalues in a row of ``values`` nearly coincide.

    ``values[i, j]`` is the spectrum of ``modes[i]`` at ``epsilons[j]``.
    """
    # at eps = 0 the spectrum is k^2, so only eps > 0 can trip this
    tight = values[..., 1:] - values[..., :-1] < 1e-12 * (1.0 + np.abs(values[..., :-1]))
    if tight.any():
        which, row, rank = np.argwhere(tight)[0]
        raise SolverError(
            f"eigenvalue collision at rank {int(rank)} for p={modes[which].p}, "
            f"parity={modes[which].parity.value}, eps={epsilons[row]:g}; ascending-rank labeling is ill-defined"
        )


def build_recurrence_matrix(mode: ModeIndex, ellipticity: float) -> TridiagonalMatrix:
    """Recurrence matrix T0 + eps*T1, eigenpairs (a, Fourier coefficients); for the benchmark and tests only."""
    eps = _scalar_ellipticity(ellipticity, mode.p)
    square, shift, sub, sup = _pencil(mode)
    return TridiagonalMatrix(diag=square + eps * shift, sub=eps * sub, sup=eps * sup)


def lg_scale(mode: ModeIndex) -> np.ndarray:
    """The eps-independent diagonal that symmetrizes the recurrence, in harmonic order.

    Harmonic l, with n = (p - l)/2, gets the LG ratio sqrt((n + l)! n!), times
    sqrt(2) at l = 0, relative to l = p: scale[j + 1] / scale[j] = sqrt(sup[j] / sub[j]).
    """
    charges = series_harmonics(mode)[::-1]
    n = (mode.p - charges) // 2
    # from l + 2 to l, (n + l)! n! gains n / (n + l + 1): no factorial overflows
    ratios = n / (n + charges + 1)
    ratios[0] = 1.0
    factorials = np.cumprod(ratios)
    factorials[charges == 0] *= 2.0
    return np.sqrt(factorials)[::-1]


def eigenvalue_rank(mode: ModeIndex) -> int:
    """Ascending rank of this mode's eigenvalue: the position of m among the harmonics."""
    return int((mode.m - series_harmonics(mode)[0]) // 2)


def _chunk_size(dimension: int) -> int:
    """Matrices of this dimension per kernel stack: as many as fit in ``_CHUNK_BYTES``."""
    return max(1, _CHUNK_BYTES // (8 * dimension * dimension))


def _eigen_chunks(mode: ModeIndex, epsilons: np.ndarray):
    """The one loop over a checked eps grid, its pencil built once, a chunk of ``_chunk_size`` eps a step.

    Yields the chunk's rows, the bands (diag, sub, sup) of T(eps), and the eigenvalue and unit
    eigenvector of rank ``eigenvalue_rank(mode)`` of each S(eps): one ``linalg.eigen_tridiagonal``
    stack, checked for eigenvalue collisions.
    """
    square, shift, sub, sup = _pencil(mode)
    coupling, rank = np.sqrt(sub * sup), eigenvalue_rank(mode)
    step = _chunk_size(square.size)
    for start in range(0, epsilons.size, step):
        eps = epsilons[start : start + step, None]
        diag = square + eps * shift
        spectra, vectors = eigen_tridiagonal(diag, eps * coupling, [rank])
        _check_simple_spectrum((mode,), eps[:, 0], spectra[None])
        yield slice(start, start + step), (diag, eps * sub, eps * sup), spectra[:, rank], vectors[:, :, 0]


def rank_eigenpairs(mode: ModeIndex, epsilons):
    """Eigenvalue and unit eigenvector of rank ``eigenvalue_rank(mode)`` at each epsilons[i].

    The ``_eigen_chunks`` eigenpairs of S(eps) = diag(k^2 + eps*shift) + eps*sqrt(sub*sup) on both
    off-diagonals, T(eps) under the similarity ``lg_scale``.  The vectors are in harmonic order, entry 0
    positive.
    """
    epsilons = _ellipticity_grid(epsilons, mode.p)
    values, vectors = np.empty(epsilons.size), np.empty((epsilons.size, series_harmonics(mode).size))
    for rows, _, *solved in _eigen_chunks(mode, epsilons):
        values[rows], vectors[rows] = solved
    return values, vectors


def _hg_coefficients(mode: ModeIndex, sign, epsilons) -> np.ndarray:
    """HG coefficients C, complex (N, p + 1), of an IG field at each eps of a checked grid or one checked eps.

    With ``sign`` None the field is the even or odd mode of ``mode``'s parity, and C is real; with
    ``sign`` +1 or -1 it is the helical mode (even +- i odd)/sqrt(2), m >= 1: the even mode's C over
    sqrt(2) plus i times the odd mode's over sign sqrt(2).  An IG mode of order p is the finite sum
    sum_k C_k HG_(k, p - k), and C on the rows of the mode's block of the ``_hg_pencil`` is that
    block's eigenvector v of rank ``eigenvalue_rank(mode)``; the other rows are zero.  The even and
    odd blocks of an odd order share one size and rank, so all of a field's blocks at all the eps
    are one ``linalg.eigen_tridiagonal`` stack, with its residual bound and sign rule; an even
    order's are two.  Each stack is checked for eigenvalue collisions.  C_j = s (-1)^j v_j, with
    s = (-1)^(n + floor((m - o)/2)), n = (p - m)/2 and o = 1 for odd modes: every coupling is
    nonzero and free of eps, so v_0 is nonzero at every eps >= 0 and its sign, positive by the
    kernel's rule, is that of the eps -> 0 limit.  At eps = 0 the block's eigenvalues are the
    squared charges of its rows, distinct, and v is the LG mode of radial number n and charge m:
    C is its column of the LG -> HG transform (``verify._lg_to_hg``), the sign of its first block
    row s.  ``beams.eval_lg`` reads it there.
    """
    p, column = mode.p, np.reshape(epsilons, (-1, 1))
    diag, slope, coupling = _hg_pencil(p)
    pencil, root = diag + column * slope, np.sqrt(2.0)
    coefficients = np.zeros((column.shape[0], p + 1), dtype=complex)
    if sign is None:
        blocks = [(mode, coefficients.real, 1.0)]
    else:
        partner = ModeIndex(p, mode.m, Parity.ODD if mode.is_even else Parity.EVEN)
        even, odd = (mode, partner) if mode.is_even else (partner, mode)
        # the odd mode's whole row over sign sqrt(2): its zeros on the even block's rows are -0.0 at sign -1
        coefficients.imag = 0.0 / (sign * root)
        blocks = [(even, coefficients.real, root), (odd, coefficients.imag, sign * root)]
    for stack in [blocks] if p % 2 else [[block] for block in blocks]:
        modes = [one for one, _, _ in stack]
        # the blocks split the order's pencil by the parity of k: p - k is even on an even mode's rows
        starts = [(p + (not one.is_even)) % 2 for one in modes]
        spectra, vectors = eigen_tridiagonal(
            np.concatenate([pencil[:, start::2] for start in starts]),
            np.repeat([coupling[start::2] for start in starts], column.shape[0], axis=0),
            [eigenvalue_rank(modes[0])],
        )
        shape = (len(stack), column.shape[0], spectra.shape[1])
        _check_simple_spectrum(modes, column[:, 0], spectra.reshape(shape))
        vectors = vectors.reshape(shape)
        vectors[..., 1::2] *= -1.0  # (-1)^j on the block's row j
        for (one, part, divisor), start, vector in zip(stack, starts, vectors):
            s = -1.0 if ((p - one.m) // 2 + (one.m - (not one.is_even)) // 2) % 2 else 1.0
            np.divide(np.multiply(vector, s), divisor, out=part[:, start::2])
    return coefficients


def _fourier_polynomials(mode: ModeIndex, epsilons) -> list:
    """Ince polynomials at each epsilons[i]: each ``_eigen_chunks`` eigenvector divided by ``lg_scale``, normalized.

    The kernel's twisted vectors are accurate entry by entry, so unscaling them needs no repair.
    Each row's residual on T(eps) is checked, from the chunk's bands.
    """
    epsilons, scale, polynomials = _ellipticity_grid(epsilons, mode.p), lg_scale(mode), []
    for rows, (diag, sub, sup), values, symmetric in _eigen_chunks(mode, epsilons):
        eps, vectors = epsilons[rows], symmetric / scale
        # 1 / lg_scale reaches 4e119 at p = 800, and its square overflows from about p = 1000:
        # scale the largest entry into [0.5, 1), exactly
        vectors = np.ldexp(vectors, -np.frexp(np.max(np.abs(vectors), axis=1, keepdims=True))[1])
        norms = np.zeros(values.size)
        for column in vectors.T:  # one term at a time, in index order
            norms += column * column
        vectors /= np.sqrt(norms)[:, None]
        # T v - a v from the bands, as the kernel checks its own residual
        error = (diag - values[:, None]) * vectors
        error[:, :-1] += sup * vectors[:, 1:]
        error[:, 1:] += sub * vectors[:, :-1]
        residuals = np.sqrt(np.sum(np.square(error, out=error), axis=1))
        bad = ~(residuals <= 1e-10 * (1.0 + np.abs(values)))
        if bad.any():
            raise SolverError(
                f"eigenpair {eigenvalue_rank(mode)} residual {residuals[bad][0]:.3e} exceeds bound at "
                f"eps={eps[bad][0]:g}; matrix badly scaled?"
            )
        polynomials += [IncePolynomial(mode, *row) for row in zip(eps.tolist(), values.tolist(), vectors)]
    return polynomials


def solve_ince(mode: ModeIndex, ellipticity: float) -> IncePolynomial:
    """Ince polynomial of the given mode at ellipticity eps >= 0: ``_fourier_polynomials`` at one eps.

    Selects the eigenpair whose ascending-eigenvalue rank corresponds to m,
    so the eps -> 0 limit reduces to the pure m-th harmonic with a = m^2.
    """
    return _fourier_polynomials(mode, [_scalar_ellipticity(ellipticity)])[0]


def eval_angular(poly: IncePolynomial, eta):
    """Series value at angular coordinate eta (scalar or array)."""
    eta = np.asarray(eta, dtype=float)
    args = np.multiply.outer(eta, poly.harmonics.astype(float))
    basis = np.cos(args) if poly.mode.is_even else np.sin(args)
    return basis @ poly.fourier


def eval_radial(poly: IncePolynomial, xi):
    """Real factor of the series at imaginary argument i*xi.

    Even series give sum A_r cosh(k_r xi); odd series give
    sum B_r sinh(k_r xi), without the leftover global factor i.
    """
    xi = np.asarray(xi, dtype=float)
    args = np.multiply.outer(xi, poly.harmonics.astype(float))
    basis = np.cosh(args) if poly.mode.is_even else np.sinh(args)
    return basis @ poly.fourier


def ince_ode_residual(poly: IncePolynomial) -> float:
    """Max-norm residual of the angular Ince equation over 256 eta samples.

    Derivatives are taken term by term, so this is an independent check of
    both the recurrence matrix and the eigenpair.  Normalized by
    (1 + max |N|).
    """
    eta = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    k = poly.harmonics.astype(float)
    args = np.multiply.outer(eta, k)
    coeff = poly.fourier
    if poly.mode.is_even:
        value = np.cos(args) @ coeff
        deriv1 = -np.sin(args) @ (k * coeff)
        deriv2 = -np.cos(args) @ (k**2 * coeff)
    else:
        value = np.sin(args) @ coeff
        deriv1 = np.cos(args) @ (k * coeff)
        deriv2 = -np.sin(args) @ (k**2 * coeff)
    eps = poly.ellipticity
    p = poly.mode.p
    residual = deriv2 + eps * np.sin(2.0 * eta) * deriv1 + (
        poly.eigenvalue - p * eps * np.cos(2.0 * eta)
    ) * value
    return float(np.max(np.abs(residual)) / (1.0 + np.max(np.abs(value))))


def valid_modes(max_order: int):
    """All admissible (p, m, parity) combinations with p <= max_order."""
    modes = []
    for p in range(max_order + 1):
        for m in range(p % 2, p + 1, 2):
            modes.append(ModeIndex(p, m, Parity.EVEN))
            if m >= 1:
                modes.append(ModeIndex(p, m, Parity.ODD))
    return modes
