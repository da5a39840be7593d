"""Quantum OAM of Ince-Gauss photons.

An Ince-Gauss mode expands over Laguerre-Gauss modes of equal Gouy order
(p = 2n + l) and matching parity.  The expansion weights follow from the
mode's Fourier coefficients; helical combinations of the even and odd
one-photon states then carry a continuous, generally non-integer expectation
of the orbital angular momentum, computed here in units of hbar per photon.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, InvalidModeError, UnnormalizedStateError
from .ince import ModeIndex, Parity, solve_ince

_NORM_TOL = 1e-12


class HelicalSign(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"

    @property
    def value_int(self) -> int:
        return 1 if self is HelicalSign.PLUS else -1


def _as_sign(sign) -> HelicalSign:
    if isinstance(sign, HelicalSign):
        return sign
    return HelicalSign(sign)


@dataclass(frozen=True)
class LGIndex:
    """Laguerre-Gauss basis label: parity, radial number n, charge l >= 0."""

    parity: Parity
    n: int
    l: int

    def __post_init__(self):
        if not isinstance(self.parity, Parity):
            object.__setattr__(self, "parity", Parity(self.parity))
        if self.n < 0 or self.l < 0:
            raise InvalidModeError(f"LG indices must be non-negative, got n={self.n}, l={self.l}")
        if self.parity is Parity.ODD and self.l < 1:
            raise InvalidModeError("odd LG modes require l >= 1")


@dataclass(frozen=True)
class Decomposition:
    """LG expansion of one IG mode: [(LGIndex, weight)] with sum D^2 = 1."""

    mode: ModeIndex
    ellipticity: float
    terms: tuple

    def weights(self) -> dict:
        return {index: weight for index, weight in self.terms}


@dataclass(frozen=True)
class QuantumModeState:
    """One-photon state over the even/odd LG basis at fixed wavenumber."""

    amplitudes: dict

    def norm_squared(self) -> float:
        return float(sum(abs(c) ** 2 for c in self.amplitudes.values()))

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
        eps = np.asarray(self.epsilons, dtype=float)
        oam = np.asarray(self.oam, dtype=float)
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

    @property
    def samples(self):
        return list(zip(self.epsilons.tolist(), self.oam.tolist()))


def _expansion_sign(n: int, l: int, p: int, m: int) -> float:
    # hook point for the verification canary; the exponent is always an
    # integer because p and m share parity
    return -1.0 if (n + l + (p + m) // 2) % 2 else 1.0


def admissible_lg_terms(mode: ModeIndex):
    """All (n, l) with p = 2n + l and parity-admissible l, l descending."""
    start = mode.p
    stop = -1 if mode.is_even else 0
    return [((mode.p - l) // 2, l) for l in range(start, stop, -2)]


def decompose(mode: ModeIndex, ellipticity: float) -> Decomposition:
    """LG weights of one IG mode at the given ellipticity.

    Every admissible equal-Gouy-order term is present; weights are real with
    a deterministic overall sign (positive normalization constant on top of
    the sign-fixed Fourier vector), and sum of squares is 1.
    """
    if ellipticity < 0.0:
        raise InvalidModeError(f"ellipticity must be non-negative, got {ellipticity}")
    poly = solve_ince(mode, ellipticity)
    harmonic_index = {int(h): j for j, h in enumerate(poly.harmonics)}
    raw = []
    # (n + l)! n! relative to its l = p value: from l + 2 to l it gains the
    # factor n / (n + l + 1), so no factorial overflows at high order
    factorials = 1.0
    for n, l in admissible_lg_terms(mode):
        if n > 0:
            factorials *= n / (n + l + 1)
        factor = math.sqrt((2.0 if l == 0 else 1.0) * factorials)
        fourier = poly.fourier[harmonic_index[l]]
        raw.append((n, l, _expansion_sign(n, l, mode.p, mode.m) * factor * fourier))
    scale = 1.0 / math.sqrt(sum(d * d for _, _, d in raw))
    terms = tuple(
        (LGIndex(parity=mode.parity, n=n, l=l), d * scale) for n, l, d in raw
    )
    return Decomposition(mode=mode, ellipticity=float(ellipticity), terms=terms)


def helical_state(mode: ModeIndex, sign, ellipticity: float) -> QuantumModeState:
    """One-photon helical IG state (|even> +- i |odd>)/sqrt(2) in LG amplitudes."""
    if mode.m < 1:
        raise InvalidModeError("helical states need m >= 1 (no odd partner for m = 0)")
    if ellipticity <= 0.0:
        raise InvalidModeError(f"ellipticity must be positive, got {ellipticity}")
    sign = _as_sign(sign)
    even = decompose(ModeIndex(mode.p, mode.m, Parity.EVEN), ellipticity)
    odd = decompose(ModeIndex(mode.p, mode.m, Parity.ODD), ellipticity)
    amplitudes = {}
    for index, weight in even.terms:
        amplitudes[index] = weight / math.sqrt(2.0)
    phase = 1j * sign.value_int / math.sqrt(2.0)
    for index, weight in odd.terms:
        amplitudes[index] = phase * weight
    return QuantumModeState(amplitudes=amplitudes)


def oam_expectation(state: QuantumModeState) -> float:
    """<Lz> in units of hbar per photon.

    The OAM operator maps even LG states to i*l times the odd partner and
    vice versa with opposite sign, so only even-odd cross terms contribute:
    <Lz> = sum 2 l Im(conj(c_even) * c_odd).
    """
    state.require_normalized()
    total = 0.0
    for index, c_even in state.amplitudes.items():
        if index.parity is not Parity.EVEN or index.l == 0:
            continue
        partner = LGIndex(parity=Parity.ODD, n=index.n, l=index.l)
        c_odd = state.amplitudes.get(partner)
        if c_odd is not None:
            total += 2.0 * index.l * (np.conj(c_even) * c_odd).imag
    return float(total)


def oam_distribution(state: QuantumModeState) -> dict:
    """Probability of each signed integer OAM under an LG-basis projection.

    Even/odd amplitudes convert to helical ones as c+- = (c_e -+ i c_o)/sqrt(2)
    per (n, l >= 1); l = 0 stays a single unsigned bin.  The first moment of
    the returned map equals oam_expectation exactly.
    """
    state.require_normalized()
    seen = set()
    probabilities = {}

    def _add(l_signed, weight):
        if weight != 0.0:
            probabilities[l_signed] = probabilities.get(l_signed, 0.0) + weight

    for index in state.amplitudes:
        key = (index.n, index.l)
        if key in seen:
            continue
        seen.add(key)
        c_even = state.amplitudes.get(LGIndex(parity=Parity.EVEN, n=index.n, l=index.l), 0.0)
        if index.l == 0:
            _add(0, abs(c_even) ** 2)
            continue
        c_odd = state.amplitudes.get(LGIndex(parity=Parity.ODD, n=index.n, l=index.l), 0.0)
        c_plus = (c_even - 1j * c_odd) / math.sqrt(2.0)
        c_minus = (c_even + 1j * c_odd) / math.sqrt(2.0)
        _add(index.l, abs(c_plus) ** 2)
        _add(-index.l, abs(c_minus) ** 2)
    return dict(sorted(probabilities.items()))


def oam_curve(mode: ModeIndex, sign, epsilons) -> OamCurve:
    """<Lz>(eps) of the helical state over a strictly increasing eps grid."""
    sign = _as_sign(sign)
    eps = np.asarray(list(epsilons), dtype=float)
    if np.any(eps <= 0.0):
        raise InvalidModeError("all ellipticities must be positive")
    values = np.fromiter(
        (oam_expectation(helical_state(mode, sign, e)) for e in eps), dtype=float, count=eps.size
    )
    return OamCurve(mode=mode, sign=sign, epsilons=eps, oam=values)


def find_turning_points(curve: OamCurve):
    """Ellipticities of strict interior extrema, refined by a quadratic fit."""
    eps, vals = curve.epsilons, curve.oam
    if eps.size < 3:
        raise GridError("need at least 3 samples to locate turning points")
    out = []
    for i in range(1, eps.size - 1):
        left = vals[i] - vals[i - 1]
        right = vals[i + 1] - vals[i]
        if left * right < 0.0:
            out.append(_parabolic_vertex(eps[i - 1 : i + 2], vals[i - 1 : i + 2]))
    return out


def _parabolic_vertex(x3, y3) -> float:
    x0, x1, x2 = x3
    y0, y1, y2 = y3
    denom = (x1 - x0) * (y1 - y2) - (x1 - x2) * (y1 - y0)
    if denom == 0.0:
        return float(x1)
    shift = 0.5 * ((x1 - x0) ** 2 * (y1 - y2) - (x1 - x2) ** 2 * (y1 - y0)) / denom
    return float(x1 - shift)


def find_crossings(a: OamCurve, b: OamCurve):
    """Ellipticities where two curves on the same grid cross.

    Sign changes of the difference are located and refined by linear
    interpolation; equalities at the grid endpoints are not crossings.
    """
    if a.epsilons.shape != b.epsilons.shape or not np.allclose(
        a.epsilons, b.epsilons, rtol=0.0, atol=0.0
    ):
        raise GridError("curves must share an identical ellipticity grid")
    eps = a.epsilons
    diff = a.oam - b.oam
    out = []
    for i in range(eps.size - 1):
        d0, d1 = diff[i], diff[i + 1]
        if d0 == 0.0:
            if 0 < i and diff[i - 1] * d1 < 0.0:
                out.append(float(eps[i]))
            continue
        if d0 * d1 < 0.0:
            t = d0 / (d0 - d1)
            out.append(float(eps[i] + t * (eps[i + 1] - eps[i])))
    return out
