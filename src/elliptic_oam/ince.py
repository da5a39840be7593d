"""Ince polynomials from the trigonometric-series eigenproblem.

The angular equation N'' + eps*sin(2*eta)*N' + [a - p*eps*cos(2*eta)]*N = 0
admits finite trigonometric-polynomial solutions when the series class is
matched to the parity of (p, m).  Substituting each series and collecting
harmonics yields a small tridiagonal eigenproblem; the separation constant
``a`` is the eigenvalue and the Fourier coefficients are the eigenvector.
Correctness of the collected matrix entries is enforced by the ODE residual
oracle below, not by any transcription.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InvalidModeError, SolverError
from .linalg import TridiagonalMatrix, eigen_tridiagonal


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
            object.__setattr__(self, "parity", Parity(self.parity))
        p, m = self.p, self.m
        if p < 0 or m < 0 or p != int(p) or m != int(m):
            raise InvalidModeError(f"order/degree must be non-negative integers, got p={p}, m={m}")
        if (p - m) % 2 != 0:
            raise InvalidModeError(f"p={p} and m={m} must have the same parity")
        if m > p:
            raise InvalidModeError(f"degree m={m} exceeds order p={p}")
        if self.parity is Parity.ODD and m < 1:
            raise InvalidModeError("odd modes require m >= 1 (sine series has no constant term)")

    @property
    def is_even(self) -> bool:
        return self.parity is Parity.EVEN


@dataclass(frozen=True)
class IncePolynomial:
    """One Ince polynomial: eigenvalue and unit-norm Fourier coefficients.

    ``fourier[j]`` multiplies cos(harmonics[j]*eta) for even parity and
    sin(harmonics[j]*eta) for odd parity.  The coefficient vector has unit
    Euclidean norm with its first entry positive.
    """

    mode: ModeIndex
    ellipticity: float
    eigenvalue: float
    fourier: np.ndarray
    harmonics: np.ndarray

    def __post_init__(self):
        fourier = np.asarray(self.fourier, dtype=float)
        harmonics = np.asarray(self.harmonics, dtype=int)
        fourier.setflags(write=False)
        harmonics.setflags(write=False)
        object.__setattr__(self, "fourier", fourier)
        object.__setattr__(self, "harmonics", harmonics)


def series_harmonics(mode: ModeIndex) -> np.ndarray:
    """Harmonic multipliers of the trigonometric series for this mode class."""
    p = mode.p
    if p % 2 == 0:
        if mode.is_even:
            return np.arange(0, p + 1, 2)
        return np.arange(2, p + 1, 2)
    return np.arange(1, p + 1, 2)


def build_recurrence_matrix(mode: ModeIndex, ellipticity: float) -> TridiagonalMatrix:
    """Recurrence matrix whose eigenpairs are (a, Fourier coefficients).

    Dimension is p/2 + 1 for (even p, even series), p/2 for (even p, odd
    series) and (p+1)/2 for odd p.  Entries come from collecting each
    harmonic after substituting the series into the angular equation.
    """
    if ellipticity < 0.0:
        raise InvalidModeError(f"ellipticity must be non-negative, got {ellipticity}")
    p = mode.p
    eps = float(ellipticity)
    if p % 2 == 0:
        half = p // 2
        if mode.is_even:
            # series A_r cos(2 r eta), r = 0..p/2; cos(-2 eta) folding doubles
            # the r=0 -> s=1 coupling, hence the asymmetric sub band
            dim = half + 1
            diag = 4.0 * np.arange(dim, dtype=float) ** 2
            sup = eps * (half + np.arange(1, dim, dtype=float))
            sub = eps * (half - np.arange(dim - 1, dtype=float))
            if dim > 1:
                sub = sub.copy()
                sub[0] = eps * p
        else:
            # series B_r sin(2 r eta), r = 1..p/2
            dim = half
            if dim == 0:
                raise InvalidModeError(f"no odd series exists for p={p}, m={mode.m}")
            r = np.arange(1, dim + 1, dtype=float)
            diag = 4.0 * r**2
            sup = eps * (half + r[:-1] + 1.0)
            sub = eps * (half - r[:-1])
    else:
        dim = (p + 1) // 2
        s = np.arange(dim, dtype=float)
        diag = (2.0 * s + 1.0) ** 2
        # cos(-eta)/sin(-eta) folding shifts only the first diagonal entry,
        # with opposite sign for the two series
        if mode.is_even:
            diag = diag.copy()
            diag[0] = 1.0 + eps * (p + 1) / 2.0
        else:
            diag = diag.copy()
            diag[0] = 1.0 - eps * (p + 1) / 2.0
        sup = (eps / 2.0) * (p + 2.0 * s[:-1] + 3.0)
        sub = (eps / 2.0) * (p - 2.0 * s[:-1] - 1.0)
    return TridiagonalMatrix(diag=diag, sub=sub, sup=sup)


def eigenvalue_rank(mode: ModeIndex) -> int:
    """Position of this mode's eigenvalue in ascending spectral order."""
    if mode.p % 2 == 0:
        return mode.m // 2 if mode.is_even else mode.m // 2 - 1
    return (mode.m - 1) // 2


def solve_ince(mode: ModeIndex, ellipticity: float) -> IncePolynomial:
    """Ince polynomial of the given mode at ellipticity eps >= 0.

    Selects the eigenpair whose ascending-eigenvalue rank corresponds to m,
    so the eps -> 0 limit reduces to the pure m-th harmonic with a = m^2.
    """
    matrix = build_recurrence_matrix(mode, ellipticity)
    solution = eigen_tridiagonal(matrix)
    rank = eigenvalue_rank(mode)
    values = solution.eigenvalues
    if ellipticity > 0.0 and values.size > 1:
        gaps = np.diff(values)
        tight = np.flatnonzero(gaps < 1e-12 * (1.0 + np.abs(values[:-1])))
        if tight.size:
            raise SolverError(
                f"eigenvalue collision at rank {int(tight[0])} for p={mode.p}, "
                f"parity={mode.parity.value}, eps={ellipticity:g}; ascending-rank labeling is ill-defined"
            )
    return IncePolynomial(
        mode=mode,
        ellipticity=float(ellipticity),
        eigenvalue=float(values[rank]),
        fourier=solution.eigenvectors[:, rank],
        harmonics=series_harmonics(mode),
    )


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


def ince_ode_residual(poly: IncePolynomial, samples: int = 256) -> float:
    """Max-norm residual of the angular Ince equation over an eta grid.

    Derivatives are taken term by term, so this is an independent check of
    both the recurrence matrix and the eigenpair.  Normalized by
    (1 + max |N|).
    """
    if samples < 8:
        raise ValueError("samples must be at least 8")
    eta = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
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
