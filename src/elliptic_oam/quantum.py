"""Quantum OAM of Ince-Gauss photons.

An Ince-Gauss mode expands over Laguerre-Gauss modes of equal Gouy order
(p = 2n + l) and matching parity.  The expansion weights are the
eigenvector of the symmetrized Ince recurrence, which ``ince.rank_eigenpairs``
solves for whole ellipticity grids at once; this module only orders and
signs it into the LG ladder.  Helical combinations of the even and odd
one-photon states then carry a continuous, generally non-integer expectation
of the orbital angular momentum, computed here in units of hbar per photon.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, InvalidModeError, UnnormalizedStateError
from .ince import ModeIndex, Parity, _ellipticity_grid, _scalar_ellipticity, rank_eigenpairs, series_harmonics

_NORM_TOL = 1e-12


class HelicalSign(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"

    @property
    def value_int(self) -> int:
        return 1 if self is HelicalSign.PLUS else -1


def _as_sign(sign) -> HelicalSign:
    try:
        return HelicalSign(sign)
    except ValueError:
        raise InvalidModeError(f"sign must be 'plus' or 'minus', got {sign!r}") from None


@dataclass(frozen=True)
class Decomposition:
    """LG expansion of one IG mode over its ladder, with sum D^2 = 1.

    ``charges`` holds the LG charges l in descending order, each with radial
    number n = (p - l) / 2 and the mode's parity; ``weights`` the real D.
    """

    mode: ModeIndex
    ellipticity: float
    charges: np.ndarray
    weights: np.ndarray

    @property
    def terms(self) -> tuple:
        """(l, D) pairs in ladder order."""
        return tuple(zip(self.charges.tolist(), self.weights.tolist()))


@dataclass(frozen=True, eq=False)
class QuantumModeState:
    """One-photon state over the even/odd LG basis at fixed wavenumber.

    Row k holds the amplitudes of the even and the odd LG mode of radial
    number n[k] and charge l[k]; there is no odd mode at l = 0.
    """

    n: np.ndarray
    l: np.ndarray
    even: np.ndarray
    odd: np.ndarray

    def __post_init__(self):
        n, l, even, odd = (np.asarray(a) for a in (self.n, self.l, self.even, self.odd))
        if n.ndim != 1 or not n.shape == l.shape == even.shape == odd.shape:
            raise InvalidModeError("n, l, even and odd must be equal-length 1-D arrays")
        ns, ls = n.tolist(), l.tolist()
        if min(ns + ls, default=0) < 0:
            raise InvalidModeError(f"LG indices must be non-negative, got n={n}, l={l}")
        if np.count_nonzero(odd[l == 0]):
            raise InvalidModeError("odd LG modes require l >= 1")
        if len(set(zip(ns, ls))) != len(ns):
            raise InvalidModeError("LG (n, l) rows must be distinct")
        for name, value in zip(("n", "l", "even", "odd"), (n, l, even, odd)):
            object.__setattr__(self, name, value)

    def norm_squared(self) -> float:
        return float(np.vdot(self.even, self.even).real + np.vdot(self.odd, self.odd).real)

    def require_normalized(self):
        total = self.norm_squared()
        if abs(total - 1.0) > _NORM_TOL:
            raise UnnormalizedStateError(f"state norm^2 = {total!r}, expected 1 within {_NORM_TOL}")


@dataclass(frozen=True)
class OamCurve:
    """Sampled <Lz>(eps) for one helical mode, eps strictly increasing."""

    mode: ModeIndex
    sign: HelicalSign
    epsilons: np.ndarray
    oam: np.ndarray

    def __post_init__(self):
        eps = np.array(self.epsilons, dtype=float)  # copies: the caller's arrays stay writeable and apart
        oam = np.array(self.oam, dtype=float)
        if eps.ndim != 1 or eps.shape != oam.shape:
            raise GridError("epsilons and oam must be equal-length 1-D arrays")
        if np.any(np.diff(eps) <= 0.0):
            raise GridError("epsilons must be strictly increasing")
        if not (np.all(np.isfinite(eps)) and np.all(np.isfinite(oam))):
            raise GridError("curve samples must be finite")
        eps.setflags(write=False)
        oam.setflags(write=False)
        object.__setattr__(self, "epsilons", eps)
        object.__setattr__(self, "oam", oam)


def _expansion_sign(n, l, p: int, m: int):
    # hook point for the verification canary; the exponent is always an
    # integer because p and m share parity
    return np.where((n + l + (p + m) // 2) % 2, -1.0, 1.0)


def _ladder_weights(mode: ModeIndex, epsilons):
    """Charges l, descending, and the LG weights D[i] of one IG mode at each epsilons[i].

    D[i] is the eigenvector of ``ince.rank_eigenpairs`` at epsilons[i],
    reversed into ladder order and given the sign (-1)^(n + l + (p + m)/2):
    the symmetrizing diagonal is the LG normalization ratio, so no
    unscaling is needed.  The overall sign is that of the Fourier vector,
    whose entry 0 is positive.
    """
    vectors = rank_eigenpairs(mode, epsilons)[1]
    charges = series_harmonics(mode)[::-1]
    n = (mode.p - charges) // 2
    return charges, _expansion_sign(n, charges, mode.p, mode.m) * vectors[:, ::-1]


def decompose(mode: ModeIndex, ellipticity: float) -> Decomposition:
    """LG weights of one IG mode at the given ellipticity.

    Every admissible equal-Gouy-order term is present: the charges l are the
    series harmonics, taken in descending order.  The weights are the unit
    eigenvector of the symmetrized recurrence (whose symmetrizing diagonal,
    ``ince.lg_scale``, is the LG ratio sqrt((n + l)! n!), times sqrt(2) at
    l = 0), reversed and given the sign (-1)^(n + l + (p + m)/2).  Their
    overall sign is that of the Fourier vector, whose first entry is
    positive (see ``IncePolynomial``).  This is ``oam_curve``'s solver on a
    one-point grid, so its kernel stack is one matrix, far below the
    ``ince._CHUNK_BYTES`` = 128 KiB chunk bound.
    """
    eps = _scalar_ellipticity(ellipticity)
    charges, weights = _ladder_weights(mode, [eps])
    return Decomposition(mode=mode, ellipticity=eps, charges=charges, weights=weights[0])


def _parity_state(expansion: Decomposition) -> QuantumModeState:
    """The even or odd IG mode itself as a one-photon state."""
    mode, weights = expansion.mode, expansion.weights
    zeros = np.zeros_like(weights)
    even, odd = (weights, zeros) if mode.parity is Parity.EVEN else (zeros, weights)
    return QuantumModeState((mode.p - expansion.charges) // 2, expansion.charges, even, odd)


def _check_helical(mode: ModeIndex) -> None:
    if mode.m < 1:
        raise InvalidModeError("helical states need m >= 1 (no odd partner for m = 0)")


def _helical_ladders(mode: ModeIndex, sign, epsilons: np.ndarray):
    """Sign, charges l (descending) and even and odd LG weights at each epsilons[i], a checked eps > 0 grid; odd padded with 0 at l = 0."""
    _check_helical(mode)
    sign = _as_sign(sign)
    charges, even = _ladder_weights(ModeIndex(mode.p, mode.m, Parity.EVEN), epsilons)
    _, odd = _ladder_weights(ModeIndex(mode.p, mode.m, Parity.ODD), epsilons)
    padded = np.zeros_like(even)
    padded[:, : odd.shape[1]] = odd
    return sign, charges, even, padded


def helical_state(mode: ModeIndex, sign, ellipticity: float) -> QuantumModeState:
    """One-photon helical IG state (|even> +- i |odd>)/sqrt(2) in LG amplitudes.

    The even and odd ladders are solved as ``decompose`` solves one, on a
    one-point eps grid, without building a ``Decomposition`` for either.
    """
    sign, charges, even, odd = _helical_ladders(mode, sign, [_scalar_ellipticity(ellipticity, positive=True)])
    phase = 1j * sign.value_int / math.sqrt(2.0)
    return QuantumModeState(
        n=(mode.p - charges) // 2,
        l=charges,
        even=even[0] / math.sqrt(2.0),
        odd=phase * odd[0],
    )


def oam_expectation(state: QuantumModeState) -> float:
    """<Lz> in units of hbar per photon.

    The OAM operator maps even LG states to i*l times the odd partner and
    vice versa with opposite sign, so only even-odd cross terms contribute:
    <Lz> = sum 2 l Im(conj(c_even) * c_odd), summed row by row.
    """
    state.require_normalized()
    return float(sum(2.0 * state.l * (np.conj(state.even) * state.odd).imag))


def oam_distribution(state: QuantumModeState) -> dict:
    """Probability of each signed integer OAM under an LG-basis projection.

    Even/odd amplitudes convert to helical ones as c+- = (c_e -+ i c_o)/sqrt(2)
    per (n, l); l = 0 stays a single unsigned bin.  The first moment of the
    returned map equals oam_expectation exactly.
    """
    state.require_normalized()
    plus = np.abs((state.even - 1j * state.odd) / math.sqrt(2.0)) ** 2
    minus = np.abs((state.even + 1j * state.odd) / math.sqrt(2.0)) ** 2
    probabilities = {}
    for l, p_plus, p_minus in zip(state.l.tolist(), plus.tolist(), minus.tolist()):
        for l_signed, weight in ((l, p_plus), (-l, p_minus)):
            if weight != 0.0:
                probabilities[l_signed] = probabilities.get(l_signed, 0.0) + weight
    return dict(sorted(probabilities.items()))


def oam_curve(mode: ModeIndex, sign, epsilons) -> OamCurve:
    """<Lz>(eps) of the helical state over a strictly increasing eps grid, a 1-D iterable of positive finite reals.

    <Lz> = s * sum_l l * D_even(l) * D_odd(l), summed in ladder order, with
    both weight ladders solved for the whole grid at once in kernel stacks
    of at most ``ince._CHUNK_BYTES`` = 128 KiB each, whatever the grid length.
    """
    eps = _ellipticity_grid(epsilons, mode.p, positive=True)
    sign, charges, even, odd = _helical_ladders(mode, sign, eps)
    values = np.zeros(eps.size)
    for j in range(charges.size):  # an l = 0 row adds 0.0, leaving every bit of the sum
        values += charges[j] * even[:, j] * odd[:, j]
    return OamCurve(mode=mode, sign=sign, epsilons=eps, oam=sign.value_int * values)


def find_turning_points(curve: OamCurve):
    """Ellipticities of strict interior extrema, refined by a quadratic fit."""
    eps, vals = curve.epsilons, curve.oam
    if eps.size < 3:
        raise GridError("need at least 3 samples to locate turning points")
    step = np.diff(vals)
    i = np.flatnonzero(step[:-1] * step[1:] < 0.0) + 1
    return _parabolic_vertex(eps[i - 1], eps[i], eps[i + 1], vals[i - 1], vals[i], vals[i + 1]).tolist()


def _parabolic_vertex(x0, x1, x2, y0, y1, y2) -> np.ndarray:
    """Abscissae of the vertices of the parabolas through three points each; x1 where they are collinear."""
    denom = (x1 - x0) * (y1 - y2) - (x1 - x2) * (y1 - y0)
    # float_power squares with libm pow(), as scalar ** does in the per-sample
    # reference; ** 2 on an array multiplies, which can differ in the last bit
    numer = np.float_power(x1 - x0, 2.0) * (y1 - y2) - np.float_power(x1 - x2, 2.0) * (y1 - y0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom == 0.0, x1, x1 - 0.5 * numer / denom)


def find_crossings(a: OamCurve, b: OamCurve):
    """Ellipticities where two curves on the same grid cross.

    Sign changes of the difference are located and refined by linear
    interpolation; equalities at the grid endpoints are not crossings.
    """
    if not np.array_equal(a.epsilons, b.epsilons):
        raise GridError("curves must share an identical ellipticity grid")
    eps = a.epsilons
    diff = a.oam - b.oam
    d0, d1 = diff[:-1], diff[1:]
    # an exact zero at an interior sample is a crossing when its neighbours differ in sign
    before = np.concatenate(([0.0], diff[:-2]))
    at_sample = (d0 == 0.0) & (before * d1 < 0.0)
    i = np.flatnonzero(at_sample | (d0 * d1 < 0.0))
    t = d0[i] / (d0[i] - d1[i])
    return np.where(at_sample[i], eps[i], eps[i] + t * (eps[i + 1] - eps[i])).tolist()
