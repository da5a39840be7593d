"""Physical mode fields: Gaussian envelope, LG, HG, IG and helical IG.

All evaluators accept scalar or array coordinates and broadcast.  Fields are
normalized to unit L2 norm over the transverse plane except the bare
Gaussian envelope, which is 1 on axis at the waist.  Propagation support is
a thin scale-and-phase wrapper: the transverse profile at z is the waist
profile with w(z), f(z) scaled together plus curvature and Gouy phases.

Ince-Gauss and helical Ince-Gauss fields are evaluated as sums of
Laguerre-Gauss modes of their Gouy order p, weighted by the expansion of
``quantum.decompose``.  The elliptic-coordinate series route lives in
``verify`` as the independent oracle for these sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, InvalidModeError
from .ince import ModeIndex
from .quantum import QuantumModeState, _parity_state, decompose, helical_state


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
        values = np.asarray(self.values, dtype=complex)
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
    """Generalized Laguerre polynomial L_n^l(x) by its three-term recurrence."""
    previous, current = np.zeros_like(x), np.ones_like(x)
    for k in range(n):
        previous, current = current, ((2 * k + 1 + l - x) * current - (k + l) * previous) / (k + 1)
    return current


def _lg_sum(state: QuantumModeState, order: int, geometry: BeamGeometry, x, y):
    """Field of a state whose LG rows all have the Gouy order 2n + l = order.

    r^2, phi, log(2 r^2 / w^2) and the curvature and Gouy phases are computed
    once; each row's radial factor once for its even and odd amplitude.  The
    norm, the power of r and the Gaussian envelope are summed as logarithms,
    so no factorial or power overflows at high order.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = geometry.width
    r2 = x**2 + y**2
    arg = 2.0 * r2 / w**2
    with np.errstate(divide="ignore"):
        log_arg = np.log(arg)
    phi = np.arctan2(y, x)
    total = 0.0
    rows = (state.n.tolist(), state.l.tolist(), state.even.tolist(), state.odd.tolist())
    for n, l, even, odd in zip(*rows):
        # log of sqrt(2 n! / (pi (n + l)!)) * arg^(l/2) * exp(-arg/2)
        log_weight = 0.5 * (math.log(2.0 / math.pi) + math.lgamma(n + 1) - math.lgamma(n + l + 1) - arg)
        if l == 0:
            angular = even
        else:
            log_weight = log_weight + 0.5 * l * log_arg
            angular = math.sqrt(2.0) * (even * np.cos(l * phi) + odd * np.sin(l * phi))
        total = total + np.exp(log_weight) * _genlaguerre(n, l, arg) * angular
    return total / w * _propagation_phase(geometry, r2, order)


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
    values = np.asarray(field(X, Y), dtype=complex)
    return ComplexField(
        nx=resolution,
        ny=resolution,
        origin=(-window_half_width, -window_half_width),
        spacing=float(coords[1] - coords[0]),
        values=values,
    )
