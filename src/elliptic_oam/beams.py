"""Physical mode fields: Gaussian envelope, LG, HG, IG and helical IG.

All evaluators accept scalar or array coordinates and broadcast.  Fields are
normalized to unit L2 norm over the transverse plane except the bare
Gaussian envelope, which is 1 on axis at the waist.  Propagation support is
a thin scale-and-phase wrapper: the transverse profile at z is the waist
profile with w(z), f(z) scaled together plus curvature and Gouy phases.

Ince-Gauss and helical Ince-Gauss fields are evaluated as sums of
Laguerre-Gauss modes of their Gouy order p, weighted by the expansion of
``quantum.decompose``.  The sum is evaluated over flat blocks of a few
thousand points, whose temporaries stay in cache, and its azimuthal
factors exp(i l phi) are powers of the unit phasor (x + i y) / r, formed by
complex products rather than by arctan2, cos and sin.  The
elliptic-coordinate series route lives in ``verify`` as the independent
oracle for these sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, InvalidModeError
from .ince import ModeIndex
from .quantum import QuantumModeState, _parity_state, decompose, helical_state

# Points per block of ``_lg_sum``: small enough that a block's per-row
# temporaries stay in cache; 4096 to 16384 measured alike on 256^2 and
# 512^2 grids.
_BLOCK = 4096


@dataclass(frozen=True)
class BeamGeometry:
    """Waist w(0), wavenumber k, and evaluation plane z."""

    waist: float
    wavenumber: float
    z: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.waist < math.inf:
            raise InvalidModeError(f"waist must be positive and finite, got {self.waist}")
        if not 0.0 < self.wavenumber < math.inf:
            raise InvalidModeError(f"wavenumber must be positive and finite, got {self.wavenumber}")
        if not math.isfinite(self.z):
            raise InvalidModeError(f"z must be finite, got {self.z}")
        try:
            rayleigh = self.rayleigh_range
        except OverflowError:  # waist**2 beyond the double range
            rayleigh = math.inf
        if not 0.0 < rayleigh < math.inf:
            raise InvalidModeError(f"Rayleigh range k*waist^2/2 must be positive and finite, got {rayleigh:g}")

    @property
    def rayleigh_range(self) -> float:
        return self.wavenumber * self.waist**2 / 2.0

    @property
    def width(self) -> float:
        """Beam width w(z)."""
        return self.waist * math.hypot(1.0, self.z / self.rayleigh_range)

    @property
    def gouy(self) -> float:
        """Fundamental Gouy phase arctan(2z / (k w(0)^2))."""
        return math.atan2(self.z, self.rayleigh_range)

    @property
    def inverse_curvature(self) -> float:
        """1/R(z) with R = z + k^2 w(0)^4 / (4 z); zero at the waist."""
        if self.z == 0.0:
            return 0.0
        return self.z / (self.z**2 + self.rayleigh_range**2)

    def semifocal(self, ellipticity: float) -> float:
        """f(z) for the elliptic frame fixed by eps = 2 f(0)^2 / w(0)^2."""
        return self.width * math.sqrt(ellipticity / 2.0)


@dataclass(frozen=True)
class ComplexField:
    """Complex samples on a uniform rectangular grid, row-major in y then x."""

    nx: int
    ny: int
    origin: tuple
    spacing: float
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=complex)  # a copy: the caller's array stays writeable
        if values.shape != (self.ny, self.nx):
            raise GridError(f"values shape {values.shape} != (ny={self.ny}, nx={self.nx})")
        if self.spacing <= 0.0:
            raise GridError(f"spacing must be positive, got {self.spacing}")
        if not np.all(np.isfinite(values)):
            raise GridError("field contains non-finite samples")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def x_coords(self) -> np.ndarray:
        return self.origin[0] + self.spacing * np.arange(self.nx)

    def y_coords(self) -> np.ndarray:
        return self.origin[1] + self.spacing * np.arange(self.ny)


def _propagation_phase(geometry: BeamGeometry, r2, order: int):
    """Curvature and Gouy phase factor exp(i (k r^2 / 2R - (order + 1) gouy))."""
    k_over_2r = 0.5 * geometry.wavenumber * geometry.inverse_curvature
    return np.exp(1j * (k_over_2r * r2 - (order + 1) * geometry.gouy))


def eval_gaussian(geometry: BeamGeometry, x, y):
    """Fundamental Gaussian envelope, amplitude 1 on axis at the waist."""
    r2 = np.asarray(x, dtype=float) ** 2 + np.asarray(y, dtype=float) ** 2
    w = geometry.width
    return (geometry.waist / w) * np.exp(-r2 / w**2) * _propagation_phase(geometry, r2, 0)


def _genlaguerre(n: int, l: int, x):
    """Generalized Laguerre polynomial L_n^l(x) by its three-term recurrence.

    L_0^l = 1 is returned as the scalar 1.0.
    """
    previous, current = 0.0, 1.0
    for k in range(n):
        previous, current = current, ((2 * k + 1 + l - x) * current - (k + l) * previous) / (k + 1)
    return current


def _unit_power(u, l: int):
    """u**l for l >= 0 by repeated squaring.

    numpy's complex power is slow, and from l = 100 it switches to a
    transcendental path; a product of unit phasors is exact to about one
    ulp per factor.
    """
    result = 1.0
    while l:
        if l & 1:
            result = result * u
        l >>= 1
        if l:
            u = u * u
    return result


def _lg_block(rows, order: int, geometry: BeamGeometry, x, y):
    """``_lg_sum`` on one flat block of points."""
    w = geometry.width
    r2 = x**2 + y**2
    arg = 2.0 * r2 / w**2
    r = np.sqrt(r2)
    u = np.empty(x.shape, dtype=complex)  # the unit phasor exp(i phi)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_arg = np.log(arg)
        u.real = x / r
        u.imag = y / r
    u[r == 0.0] = 1.0  # on the axis every l >= 1 row vanishes
    real, imag = np.zeros(x.shape), np.zeros(x.shape)
    power, power_l = 1.0, 0  # u**power_l, stepped up the rows in ascending l
    for n, l, even, odd in rows:
        # log of sqrt(2 n! / (pi (n + l)!)) * arg^(l/2) * exp(-arg/2)
        log_weight = 0.5 * (math.log(2.0 / math.pi) + math.lgamma(n + 1) - math.lgamma(n + l + 1) - arg)
        if l == 0:
            radial = np.exp(log_weight) * _genlaguerre(n, l, arg) / w
            terms = ((even, 1.0),)
        else:
            power, power_l = power * _unit_power(u, l - power_l), l
            log_weight += 0.5 * l * log_arg
            radial = np.exp(log_weight) * _genlaguerre(n, l, arg) * (math.sqrt(2.0) / w)
            terms = ((even, power.real), (odd, power.imag))  # cos(l phi), sin(l phi)
        for amplitude, angular in terms:
            if amplitude:
                term = radial * angular
                if amplitude.real:
                    real += amplitude.real * term
                if amplitude.imag:
                    imag += amplitude.imag * term
    total = np.empty(x.shape, dtype=complex)
    total.real = real
    total.imag = imag
    return total * _propagation_phase(geometry, r2, order)


def _lg_sum(state: QuantumModeState, order: int, geometry: BeamGeometry, x, y):
    """Field of a state whose LG rows all have the Gouy order 2n + l = order.

    x and y are broadcast and evaluated in flat blocks of ``_BLOCK`` points
    into one output array, so each block's per-row temporaries stay in
    cache; a 0-d input gives a numpy complex scalar.  Per block, r^2,
    log(2 r^2 / w^2), the unit phasor u = (x + i y) / r (1 on the axis) and
    the curvature and Gouy phases are computed once.  The rows are taken in
    ascending l, and exp(i l phi) = u**l is stepped up from row to row by
    complex products, so no arctan2, cos or sin is evaluated.  Each row's
    radial factor serves its even and odd amplitude, and zero amplitude
    parts are skipped.  The norm, the power of r and the Gaussian envelope
    are summed as logarithms, so no factorial or power overflows at high
    order.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    out = np.empty(x.shape, dtype=complex)
    flat_x, flat_y, flat_out = x.ravel(), y.ravel(), out.reshape(-1)
    ascending = np.argsort(state.l, kind="stable")
    rows = list(zip(*(a[ascending].tolist() for a in (state.n, state.l, state.even, state.odd))))
    for start in range(0, flat_out.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        flat_out[block] = _lg_block(rows, order, geometry, flat_x[block], flat_y[block])
    return out[()]


def eval_lg(n: int, l: int, kind: str, geometry: BeamGeometry, x, y):
    """Normalized Laguerre-Gauss mode of radial number n and charge l >= 0.

    ``kind`` selects the azimuthal factor: "even" (cos), "odd" (sin),
    "helical_plus"/"helical_minus" (exp(+-i l phi)).  Even/odd pairs are
    orthonormal; helical combinations are (even +- i odd)/sqrt(2).
    """
    if kind not in ("even", "odd", "helical_plus", "helical_minus"):
        raise InvalidModeError(f"unknown LG kind {kind!r}")
    if kind in ("even", "odd"):
        even, odd = (1.0, 0.0) if kind == "even" else (0.0, 1.0)
    else:
        s = 1.0 if kind == "helical_plus" else -1.0
        even, odd = 1.0 / math.sqrt(2.0), s * 1j / math.sqrt(2.0)
    return _lg_sum(QuantumModeState([n], [l], [even], [odd]), 2 * n + l, geometry, x, y)


def _hermite_function(n: int, u):
    """Unit-norm Hermite function H_n(u) exp(-u^2/2) / sqrt(2^n n! sqrt(pi)).

    Built by its three-term recurrence, whose terms stay bounded like the
    function itself, so no Hermite polynomial or factorial overflows at
    high order.
    """
    previous, current = np.zeros_like(u), np.pi**-0.25 * np.exp(-0.5 * u**2)
    for k in range(n):
        previous, current = current, math.sqrt(2.0 / (k + 1)) * u * current - math.sqrt(k / (k + 1)) * previous
    return current


def eval_hg(nx_index: int, ny_index: int, geometry: BeamGeometry, x, y):
    """Normalized Hermite-Gauss mode; used for the large-ellipticity limit."""
    if nx_index < 0 or ny_index < 0:
        raise InvalidModeError("HG indices must be non-negative")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    scale = math.sqrt(2.0) / geometry.width
    field = scale * _hermite_function(nx_index, scale * x) * _hermite_function(ny_index, scale * y)
    return field * _propagation_phase(geometry, x**2 + y**2, nx_index + ny_index)


def eval_ig(mode: ModeIndex, ellipticity: float, geometry: BeamGeometry, x, y):
    """Unit-norm Ince-Gauss field at the given transverse points and z.

    Evaluated as its Laguerre-Gauss expansion sum D_j LG_j (see
    ``quantum.decompose``); all terms share the Gouy order p, so the field
    propagates exactly.  Even and odd fields are both real at the waist.
    """
    if ellipticity <= 0.0:
        raise InvalidModeError(f"ellipticity must be positive, got {ellipticity}")
    return _lg_sum(_parity_state(decompose(mode, ellipticity)), mode.p, geometry, x, y)


def eval_hig(mode: ModeIndex, sign, ellipticity: float, geometry: BeamGeometry, x, y):
    """Helical Ince-Gauss field (even +- i odd)/sqrt(2); requires m >= 1."""
    return _lg_sum(helical_state(mode, sign, ellipticity), mode.p, geometry, x, y)


def sample_grid(field, window_half_width: float, resolution: int) -> ComplexField:
    """Sample a field callable on a uniform square grid.

    The grid spans [-W, W] per axis inclusive with ``resolution`` points, so
    spacing is 2 W / (resolution - 1).  Deterministic row-major output.
    """
    if resolution < 16:
        raise GridError(f"resolution must be at least 16, got {resolution}")
    if not 0.0 < window_half_width < np.inf:
        raise GridError(f"window_half_width must be positive and finite, got {window_half_width}")
    coords = np.linspace(-window_half_width, window_half_width, resolution)
    X, Y = np.meshgrid(coords, coords, indexing="xy")
    return ComplexField(
        nx=resolution,
        ny=resolution,
        origin=(-window_half_width, -window_half_width),
        spacing=float(coords[1] - coords[0]),
        values=field(X, Y),
    )
