"""Ince polynomials from the trigonometric-series eigenproblem.

The angular equation N'' + eps*sin(2*eta)*N' + [a - p*eps*cos(2*eta)]*N = 0
admits finite trigonometric-polynomial solutions when the series class is
matched to the parity of (p, m).  Substituting the series over its
harmonics k and collecting terms yields the tridiagonal pencil
T(eps) = T0 + eps*T1 with T0 = diag(k^2); the separation constant ``a`` is
the eigenvalue and the Fourier coefficients are the eigenvector.  Mode m
takes the eigenvalue of ascending rank (m - k[0]) / 2, the position of m
among the harmonics, which is the eigenvalue m^2 at eps = 0.  Every
eigenpair comes from ``rank_eigenpairs``, the pencil symmetrized by
``lg_scale`` and solved over an eps grid in chunked stacks: its vector is
the LG expansion ``quantum`` reads, and ``_fourier_polynomials`` refines
each stack on T(eps) into Fourier vectors (``solve_ince`` at one eps).
``build_recurrence_matrix`` and its ``TridiagonalMatrix`` serve only the
benchmark and the tests.  The ODE residual oracle below enforces the
matrix entries; the frozen-band test in ``tests/test_ince.py`` only
guards them against unintended change.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InvalidModeError, SolverError
from .linalg import TridiagonalMatrix, _tridiagonal_stack, eigen_tridiagonal

# Bytes of one stack of symmetric matrices handed to eigh: an eps grid of
# any length is solved in chunks of at most this many, so the stack and
# eigh's equal-sized eigenvector output stay cache-sized.  Unchunked stacks
# of long grids raised the peak memory of whole curve sweeps measurably.
_CHUNK_BYTES = 128 << 10


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
        p, m = self.p, self.m
        # inf and nan fail the range test before int() can raise on them
        if not (0 <= p < np.inf and 0 <= m < np.inf) or p != int(p) or m != int(m):
            raise InvalidModeError(f"order/degree must be non-negative integers, got p={p}, m={m}")
        if (p - m) % 2 != 0:
            raise InvalidModeError(f"p={p} and m={m} must have the same parity")
        if m > p:
            raise InvalidModeError(f"degree m={m} exceeds order p={p}")
        if self.parity is Parity.ODD and m < 1:
            raise InvalidModeError("odd modes require m >= 1 (sine series has no constant term)")
        object.__setattr__(self, "p", int(p))
        object.__setattr__(self, "m", int(m))

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
    rounding noise.
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


def _check_ellipticity(epsilons: np.ndarray, p: int) -> None:
    """Raise unless every eps is finite and non-negative and eps * (p + 1) is finite.

    eps * (p + 1) bounds every band entry of T(eps), which would otherwise
    overflow to inf silently.
    """
    bad = ~((epsilons >= 0.0) & (epsilons < np.inf))
    if bad.any():
        raise InvalidModeError(f"ellipticity must be finite and non-negative, got {epsilons[bad][0]}")
    with np.errstate(over="ignore"):
        bad = ~(epsilons * (p + 1) < np.inf)
    if bad.any():
        raise SolverError(f"ellipticity {epsilons[bad][0]:g} overflows the recurrence bands for p={p}")


def _check_simple_spectrum(mode: ModeIndex, epsilons, values: np.ndarray) -> None:
    """Raise where two ascending eigenvalues in a row of ``values`` (one row per eps) nearly coincide."""
    # at eps = 0 the spectrum is k^2, so only eps > 0 can trip this
    tight = np.diff(values, axis=-1) < 1e-12 * (1.0 + np.abs(values[:, :-1]))
    if tight.any():
        row, rank = np.argwhere(tight)[0]
        raise SolverError(
            f"eigenvalue collision at rank {int(rank)} for p={mode.p}, "
            f"parity={mode.parity.value}, eps={epsilons[row]:g}; ascending-rank labeling is ill-defined"
        )


def build_recurrence_matrix(mode: ModeIndex, ellipticity: float) -> TridiagonalMatrix:
    """Recurrence matrix T0 + eps*T1, eigenpairs (a, Fourier coefficients); for the benchmark and tests only."""
    eps = float(ellipticity)
    _check_ellipticity(np.array([eps]), mode.p)
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
    """Matrices of this dimension per eigh stack: as many as fit in ``_CHUNK_BYTES``."""
    return max(1, _CHUNK_BYTES // (8 * dimension * dimension))


def rank_eigenpairs(mode: ModeIndex, epsilons):
    """Eigenvalue, spectral radius and unit eigenvector of rank ``eigenvalue_rank(mode)`` at each epsilons[i].

    S(eps) = diag(k^2 + eps*shift) + eps*sqrt(sub*sup) on both off-diagonals,
    T(eps) under the similarity ``lg_scale``, is solved by
    ``linalg.eigen_tridiagonal`` in stacks of at most ``_CHUNK_BYTES``, each
    checked for eigenvalue collisions.  The vectors are in harmonic order,
    entry 0 positive; the radius, max |eigenvalue|, is the scale of eigh's error.
    """
    epsilons = np.asarray(epsilons, dtype=float)
    _check_ellipticity(epsilons, mode.p)
    square, shift, sub, sup = _pencil(mode)
    coupling, rank = np.sqrt(sub * sup), eigenvalue_rank(mode)
    step = _chunk_size(square.size)
    values, radii = np.empty(epsilons.size), np.empty(epsilons.size)
    vectors = np.empty((epsilons.size, square.size))
    for start in range(0, epsilons.size, step):
        eps = epsilons[start : start + step, None]
        spectra, chunk = eigen_tridiagonal(square + eps * shift, eps * coupling, [rank])
        _check_simple_spectrum(mode, eps[:, 0], spectra)
        values[start : start + step] = spectra[:, rank]
        # the values ascend, so the largest |value| is at one end
        radii[start : start + step] = np.maximum(-spectra[:, 0], spectra[:, -1])
        vectors[start : start + step] = chunk[:, :, 0]
    return values, radii, vectors


def _fourier_polynomials(mode: ModeIndex, epsilons) -> list:
    """Ince polynomials at each epsilons[i]: each ``rank_eigenpairs`` stack unscaled and refined on T(eps).

    T(eps) is filled from the pencil's bands; each row's residual on it is checked.
    """
    epsilons, rank = np.asarray(epsilons, dtype=float), eigenvalue_rank(mode)
    square, shift, sub, sup = _pencil(mode)
    scale, step, polynomials = lg_scale(mode), _chunk_size(square.size), []
    for start in range(0, epsilons.size, step):
        eps = epsilons[start : start + step, None]
        values, radii, symmetric = rank_eigenpairs(mode, eps[:, 0])
        dense = _tridiagonal_stack(square + eps * shift, eps * sub, eps * sup)
        # unscaling amplifies the eigh error in small entries, and eigh misses
        # couplings whose product underflowed; one inverse-iteration step on
        # the original matrix restores them.  The shift offset scales with the
        # largest eigenvalue, as the eigh error does, so it is never singular.
        shifted = dense - (values + 1e-13 * (1.0 + radii))[:, None, None] * np.eye(scale.size)
        try:
            vectors = np.linalg.solve(shifted, (symmetric / scale)[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"tridiagonal eigensolve failed: {exc}") from exc
        # entries near 1 / (1e-13 max|a|) square to 0 at large eps: scale the largest into [0.5, 1), exactly
        vectors = np.ldexp(vectors, -np.frexp(np.max(np.abs(vectors), axis=1, keepdims=True))[1])
        norms = np.zeros(values.size)
        for column in vectors.T:  # one term at a time, in index order
            norms += column * column
        # the shift lies above the eigenvalue, so the step reverses the sign
        vectors /= -np.sqrt(norms)[:, None]
        residuals = np.linalg.norm((dense @ vectors[..., None])[..., 0] - values[:, None] * vectors, axis=1)
        bad = ~(residuals <= 1e-10 * (1.0 + np.abs(values)))
        if bad.any():
            raise SolverError(
                f"eigenpair {rank} residual {residuals[bad][0]:.3e} exceeds bound at eps={eps[bad, 0][0]:g}; "
                "matrix badly scaled?"
            )
        polynomials += [IncePolynomial(mode, *row) for row in zip(eps[:, 0].tolist(), values.tolist(), vectors)]
    return polynomials


def solve_ince(mode: ModeIndex, ellipticity: float) -> IncePolynomial:
    """Ince polynomial of the given mode at ellipticity eps >= 0: ``_fourier_polynomials`` at one eps.

    Selects the eigenpair whose ascending-eigenvalue rank corresponds to m,
    so the eps -> 0 limit reduces to the pure m-th harmonic with a = m^2.
    """
    return _fourier_polynomials(mode, [float(ellipticity)])[0]


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
