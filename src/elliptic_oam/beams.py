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
from .ince import ModeIndex, Parity
from .quantum import LGIndex, decompose, helical_state


@dataclass(frozen=True)
class BeamGeometry:
    """Waist w(0), wavenumber k, and evaluation plane z."""

    waist: float
    wavenumber: float
    z: float = 0.0

    def __post_init__(self):
        if self.waist <= 0.0:
            raise InvalidModeError(f"waist must be positive, got {self.waist}")
        if self.wavenumber <= 0.0:
            raise InvalidModeError(f"wavenumber must be positive, got {self.wavenumber}")

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
class EllipticPoint:
    """Elliptic coordinates with xi >= 0 and eta wrapped to [0, 2*pi)."""

    xi: float
    eta: float


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


def cartesian_to_elliptic(x, y, semifocal: float) -> EllipticPoint:
    """Invert x = f cosh(xi) cos(eta), y = f sinh(xi) sin(eta).

    Uses the complex arccosh branch with xi >= 0, so it is stable near the
    foci and the inter-focal segment; round-trips to 1e-12 relative.
    Scalar inputs yield scalar fields.
    """
    if semifocal <= 0.0:
        raise ValueError(f"semifocal separation must be positive, got {semifocal}")
    w = (np.asarray(x, dtype=float) + 1j * np.asarray(y, dtype=float)) / semifocal
    zeta = np.arccosh(w.astype(complex))
    xi = np.abs(zeta.real)
    eta = np.mod(zeta.imag, 2.0 * np.pi)
    if np.ndim(xi) == 0:
        return EllipticPoint(xi=float(xi), eta=float(eta))
    return EllipticPoint(xi=xi, eta=eta)


def elliptic_to_cartesian(point: EllipticPoint, semifocal: float):
    x = semifocal * np.cosh(point.xi) * np.cos(point.eta)
    y = semifocal * np.sinh(point.xi) * np.sin(point.eta)
    return x, y


def eval_gaussian(geometry: BeamGeometry, x, y):
    """Fundamental Gaussian envelope, amplitude 1 on axis at the waist."""
    r2 = np.asarray(x, dtype=float) ** 2 + np.asarray(y, dtype=float) ** 2
    w = geometry.width
    amplitude = (geometry.waist / w) * np.exp(-r2 / w**2)
    phase = 0.5 * geometry.wavenumber * geometry.inverse_curvature * r2 - geometry.gouy
    return amplitude * np.exp(1j * phase)


def _genlaguerre(n: int, l: int, x):
    """Generalized Laguerre polynomial L_n^l(x) by its three-term recurrence."""
    previous, current = np.zeros_like(x), np.ones_like(x)
    for k in range(n):
        previous, current = current, ((2 * k + 1 + l - x) * current - (k + l) * previous) / (k + 1)
    return current


def _lg_sum(terms, order: int, geometry: BeamGeometry, x, y):
    """Sum of c * LG(index) over (LGIndex, c) terms of one Gouy order 2n + l.

    r^2, phi, log(2 r^2 / w^2) and the curvature and Gouy phases are computed
    once; each (n, l) radial factor once for its even and odd terms.  The
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
    pairs = {}
    for index, c in terms:
        pairs.setdefault((index.n, index.l), [0.0, 0.0])[index.parity is Parity.ODD] = c
    total = 0.0
    for (n, l), (even, odd) in pairs.items():
        # log of sqrt(2 n! / (pi (n + l)!)) * arg^(l/2) * exp(-arg/2)
        log_weight = 0.5 * (math.log(2.0 / math.pi) + math.lgamma(n + 1) - math.lgamma(n + l + 1) - arg)
        if l == 0:
            angular = even
        else:
            log_weight = log_weight + 0.5 * l * log_arg
            angular = math.sqrt(2.0) * (even * np.cos(l * phi) + odd * np.sin(l * phi))
        total = total + np.exp(log_weight) * _genlaguerre(n, l, arg) * angular
    phase = 0.5 * geometry.wavenumber * geometry.inverse_curvature * r2 - (order + 1) * geometry.gouy
    return total / w * np.exp(1j * phase)


def eval_lg(n: int, l: int, kind: str, geometry: BeamGeometry, x, y):
    """Normalized Laguerre-Gauss mode of radial number n and charge l >= 0.

    ``kind`` selects the azimuthal factor: "even" (cos), "odd" (sin),
    "helical_plus"/"helical_minus" (exp(+-i l phi)).  Even/odd pairs are
    orthonormal; helical combinations are (even +- i odd)/sqrt(2).
    """
    if n < 0 or l < 0:
        raise InvalidModeError(f"LG indices must be non-negative, got n={n}, l={l}")
    if kind not in ("even", "odd", "helical_plus", "helical_minus"):
        raise InvalidModeError(f"unknown LG kind {kind!r}")
    if kind != "even" and l == 0:
        raise InvalidModeError(f"LG kind {kind!r} requires l >= 1")
    if kind in ("even", "odd"):
        terms = [(LGIndex(Parity(kind), n, l), 1.0)]
    else:
        s = 1.0 if kind == "helical_plus" else -1.0
        terms = [
            (LGIndex(Parity.EVEN, n, l), 1.0 / math.sqrt(2.0)),
            (LGIndex(Parity.ODD, n, l), s * 1j / math.sqrt(2.0)),
        ]
    return _lg_sum(terms, 2 * n + l, geometry, x, y)


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
    w = geometry.width
    r2 = x**2 + y**2
    order = nx_index + ny_index
    scale = math.sqrt(2.0) / w
    field = scale * _hermite_function(nx_index, scale * x) * _hermite_function(ny_index, scale * y)
    phase = 0.5 * geometry.wavenumber * geometry.inverse_curvature * r2 - (order + 1) * geometry.gouy
    return field * np.exp(1j * phase)


def eval_ig(mode: ModeIndex, ellipticity: float, geometry: BeamGeometry, x, y):
    """Unit-norm Ince-Gauss field at the given transverse points and z.

    Evaluated as its Laguerre-Gauss expansion sum D_j LG_j (see
    ``quantum.decompose``); all terms share the Gouy order p, so the field
    propagates exactly.  Even and odd fields are both real at the waist.
    """
    if ellipticity <= 0.0:
        raise InvalidModeError(f"ellipticity must be positive, got {ellipticity}")
    return _lg_sum(decompose(mode, ellipticity).terms, mode.p, geometry, x, y)


def eval_hig(mode: ModeIndex, sign, ellipticity: float, geometry: BeamGeometry, x, y):
    """Helical Ince-Gauss field (even +- i odd)/sqrt(2); requires m >= 1."""
    sign = getattr(sign, "value", sign)
    if sign not in ("plus", "minus"):
        raise InvalidModeError(f"sign must be 'plus' or 'minus', got {sign!r}")
    state = helical_state(mode, sign, ellipticity)
    return _lg_sum(state.amplitudes.items(), mode.p, geometry, x, y)


def sample_grid(field, window_half_width: float, resolution: int) -> ComplexField:
    """Sample a field callable on a uniform square grid.

    The grid spans [-W, W] per axis inclusive with ``resolution`` points, so
    spacing is 2 W / (resolution - 1).  Deterministic row-major output.
    """
    if resolution < 16:
        raise GridError(f"resolution must be at least 16, got {resolution}")
    if window_half_width <= 0.0:
        raise GridError("window_half_width must be positive")
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
