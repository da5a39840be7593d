"""Physical mode fields: Gaussian envelope, LG, HG, IG and helical IG.

All evaluators accept scalar or array coordinates and broadcast.  Fields are
normalized to unit L2 norm over the transverse plane except the bare
Gaussian envelope, which is 1 on axis at the waist.  Propagation support is
a thin scale-and-phase wrapper: the transverse profile at z is the waist
profile with w(z), f(z) scaled together plus curvature and Gouy phases.

Every LG, HG, IG and helical IG field has one Gouy order p, and every field
of order p is a sum over the Hermite-Gauss modes HG_(k, p - k) of that order.
An IG mode's HG coefficients are the eigenvector of its parity's block of
the HG pencil L_z^2 + eps*diag(2k - p) (``ince._hg_block_coefficients``),
so its field pays for one small kernel stack and its grid, with no LG
expansion on the way; a helical field's two blocks are one stack at odd
order.  An IG mode at eps = 0 is the LG mode of radial number (p - m)/2 and
charge m, sign included, so the LG fields read the same blocks at eps = 0
through the same even/odd/helical assembly, ``_mode_coefficients``.  The HG
sum separates in x and y: on a grid it is one matrix product of 1-D
Hermite-function rows, and its curvature phase is an outer product of two
1-D phases.  The Laguerre-Gauss sum, the LG -> HG transform
(``verify._lg_to_hg``), the LG route to the field coefficients and the
elliptic-coordinate series are kept as independent oracles, in the test
suite and in ``verify``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import GridError, InvalidModeError
from .ince import ModeIndex, Parity, _hg_block_coefficients, _scalar_ellipticity
from .quantum import _as_sign, _check_helical

# Entries in one block's table of Hermite rows at scattered points, (order
# + 1) rows by the block's points: 256 kB, so a block's tables stay in cache.
_ROW_TABLE = 1 << 15


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
        """1/R(z) = z / (z^2 + z_R^2), with R = z + k^2 w(0)^4 / (4 z); zero at the waist.

        Where z^2 + z_R^2 passes the double range, both are divided through by the larger of |z|
        and z_R first, so no finite z overflows; 1/R is then below 1e-154 and may underflow to 0.
        """
        z, rayleigh = self.z, self.rayleigh_range
        if z == 0.0:
            return 0.0
        try:
            denominator = z**2 + rayleigh**2
        except OverflowError:  # a Python float's ** raises where a product would give inf
            denominator = math.inf
        if denominator < math.inf:
            return z / denominator
        scale = max(abs(z), rayleigh)
        return z / scale / scale / ((z / scale) ** 2 + (rayleigh / scale) ** 2)

    def semifocal(self, ellipticity: float) -> float:
        """f(z) for the elliptic frame fixed by eps = 2 f(0)^2 / w(0)^2."""
        return self.width * math.sqrt(ellipticity / 2.0)


@dataclass(frozen=True)
class ComplexField:
    """Complex samples on a uniform rectangular grid, row-major in y then x.

    ``values`` is copied into a C-ordered complex array, so the caller's
    array stays writeable and detached, and whatever its memory layout the
    field's real and imaginary parts interleave row by row; ``_fresh=True``
    takes over a new C-ordered complex array that nothing else references,
    as ``sample_grid`` does, without the copy.  Every sample must be
    finite: the check is the largest and the smallest entry of that
    interleaved float64 view, two reductions with no temporary array, as
    a NaN anywhere propagates to both and an infinity shows in one.  They
    also give ``max_part``, the largest |Re| or |Im| of any sample, which
    stays exact because ``values`` is a view over a read-only array, whose
    write flag cannot be set again.
    """

    nx: int
    ny: int
    origin: tuple
    spacing: float
    values: np.ndarray
    _fresh: InitVar[bool] = field(default=False, kw_only=True)
    max_part: float = field(init=False, repr=False, compare=False)

    def __post_init__(self, _fresh):
        values = self.values if _fresh else np.array(self.values, dtype=complex, order="C")
        if values.shape != (self.ny, self.nx):
            raise GridError(f"values shape {values.shape} != (ny={self.ny}, nx={self.nx})")
        parts = values.view(np.float64)
        top, bottom = parts.max(initial=0.0), parts.min(initial=0.0)
        if not (np.isfinite(top) and np.isfinite(bottom)):
            raise GridError("field contains non-finite samples")
        # after the samples: a window past the double range spans inf, and its samples name the fault
        if not 0.0 < self.spacing < math.inf:  # a NaN fails it too
            raise GridError(f"spacing must be positive and finite, got {self.spacing}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values.view())
        object.__setattr__(self, "max_part", max(float(top), -float(bottom)))

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


def _hermite_rows(order: int, u) -> np.ndarray:
    """Unit-norm Hermite functions h_0 ... h_order at u, stacked on a new first axis.

    h_k(u) = H_k(u) exp(-u^2/2) / sqrt(2^k k! sqrt(pi)), built by its
    three-term recurrence, whose terms stay bounded like the functions
    themselves, so no Hermite polynomial or factorial overflows at high
    order.
    """
    rows = np.empty((order + 1,) + u.shape)
    rows[0] = np.pi**-0.25 * np.exp(-0.5 * u**2)
    previous = 0.0
    for k in range(order):
        rows[k + 1] = math.sqrt(2.0 / (k + 1)) * u * rows[k] - math.sqrt(k / (k + 1)) * previous
        previous = rows[k]
    return rows


@np.errstate(over="ignore", invalid="ignore")
def _hg_sum(coefficients: np.ndarray, geometry: BeamGeometry, x, y):
    """The field sum_k C_k HG_(k, p - k) at z, of Gouy order p = len(C) - 1.

    It is (sqrt(2)/w) exp(-i (p + 1) gouy) sum_k C_k h_k(sqrt(2) x / w)
    h_(p - k)(sqrt(2) y / w) exp(i k x^2 / 2R) exp(i k y^2 / 2R), with x and
    y broadcast.  An x row of shape (1, nx) with a y column of shape
    (ny, 1), the axes that ``sample_grid`` passes, is a grid: the sum is one
    (ny x (p + 1)) @ ((p + 1) x nx) product of Hermite rows, with the phases
    and the scale folded into the two factors as 1-D arrays, so no
    exponential is taken per grid point; equal x and y axes, as on the
    square grids of ``sample_grid``, share their rows and phases.  Other
    points take the same sum elementwise, term by term in ascending k, so
    each point's value does not depend on the block it falls in; the
    blocks of ``_ROW_TABLE // (p + 1)`` points keep their Hermite rows in
    cache.  Zero coefficient parts are skipped.  A 0-d input gives a numpy complex
    scalar.  Points far outside the beam may overflow to inf or NaN
    without a warning: ``ComplexField`` gives the verdict on non-finite
    samples.
    """
    order = coefficients.size - 1
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    scale = math.sqrt(2.0) / geometry.width
    if x.ndim == y.ndim == 2 and x.shape[0] == 1 and y.shape[1] == 1:
        x, y = x[0], y[:, 0]
        curvature = 0.5 * geometry.wavenumber * geometry.inverse_curvature
        gouy = np.exp(-1j * (order + 1) * geometry.gouy)
        rows_x, phase_x = _hermite_rows(order, scale * x), np.exp(1j * curvature * x**2)
        same = np.array_equal(x, y)
        rows_y = rows_x if same else _hermite_rows(order, scale * y)
        phase_y = phase_x if same else np.exp(1j * curvature * y**2)
        x_factor = rows_x * (scale * phase_x)
        y_factor = rows_y[::-1].T * (coefficients * gouy)
        return (y_factor * phase_y[:, None]) @ x_factor
    x, y = np.broadcast_arrays(x, y)
    out = np.empty(x.shape, dtype=complex)
    flat_x, flat_y, flat_out = x.ravel(), y.ravel(), out.reshape(-1)
    step = max(1, _ROW_TABLE // (order + 1))
    for start in range(0, flat_out.size, step):
        bx, by = flat_x[start : start + step], flat_y[start : start + step]
        rows_x, rows_y = _hermite_rows(order, scale * bx), _hermite_rows(order, scale * by)
        total = np.zeros(bx.shape, dtype=complex)
        for k, c in enumerate(coefficients.tolist()):
            if c.real:
                total.real += c.real * (rows_x[k] * rows_y[order - k])
            if c.imag:
                total.imag += c.imag * (rows_x[k] * rows_y[order - k])
        flat_out[start : start + step] = scale * total * _propagation_phase(geometry, bx**2 + by**2, order)
    return out[()]


def _integer_indices(family: str, **indices) -> tuple:
    """The mode indices as Python ints; any that is not a non-negative integer is an invalid mode, all named."""
    # inf and nan fail the range test before int() can raise on them
    if not all(0 <= index < math.inf and index == int(index) for index in indices.values()):
        named = ", ".join(f"{name}={index}" for name, index in indices.items())
        raise InvalidModeError(f"{family} indices must be non-negative integers, got {named}")
    return tuple(int(index) for index in indices.values())


def _mode_coefficients(mode: ModeIndex, sign, eps: float) -> np.ndarray:
    """HG coefficients C of an IG mode at one eps >= 0, read off its HG blocks.

    With ``sign`` None it is the even or odd mode of ``mode``'s parity, and C is real.  With
    ``sign`` +1 or -1 it is the helical mode (even +- i odd)/sqrt(2), m >= 1: the real part is the
    even mode's C over sqrt(2), the imaginary part ``sign`` times the odd mode's; the two sit on
    disjoint rows.  The even and odd blocks of an odd order have (p + 1)/2 rows each and one rank,
    so they are one kernel stack; an even order's take two.  At eps = 0 the IG mode (p, m) is the
    LG mode of radial number (p - m)/2 and charge m, sign included, which is how ``eval_lg`` reads
    its coefficients.
    """
    if sign is None:
        return _hg_block_coefficients((mode,), [eps])[0, 0].astype(complex)
    modes = (ModeIndex(mode.p, mode.m, Parity.EVEN), ModeIndex(mode.p, mode.m, Parity.ODD))
    if mode.p % 2:
        even, odd = _hg_block_coefficients(modes, [eps])[:, 0]
    else:
        even, odd = (_hg_block_coefficients((parity,), [eps])[0, 0] for parity in modes)
    coefficients = np.empty(mode.p + 1, dtype=complex)
    coefficients.real = even / math.sqrt(2.0)
    coefficients.imag = sign * odd / math.sqrt(2.0)
    return coefficients


def eval_lg(n: int, l: int, kind: str, geometry: BeamGeometry, x, y):
    """Normalized Laguerre-Gauss mode of radial number n and charge l >= 0.

    ``kind`` selects the azimuthal factor: "even" (cos), "odd" (sin),
    "helical_plus"/"helical_minus" (exp(+-i l phi)).  Even/odd pairs are
    orthonormal; helical combinations are (even +- i odd)/sqrt(2).  The
    field is the IG mode (2n + l, l) of its parity at eps = 0, its HG
    coefficients read off the same blocks as ``eval_ig`` and ``eval_hig``.
    """
    if kind not in ("even", "odd", "helical_plus", "helical_minus"):
        raise InvalidModeError(f"unknown LG kind {kind!r}")
    n, l = _integer_indices("LG", n=n, l=l)
    if l == 0 and kind != "even":
        raise InvalidModeError(f"odd and helical LG modes require l >= 1, got n={n}, l=0")
    mode = ModeIndex(2 * n + l, l, Parity.ODD if kind == "odd" else Parity.EVEN)
    return _hg_sum(_mode_coefficients(mode, {"helical_plus": 1, "helical_minus": -1}.get(kind), 0.0), geometry, x, y)


def eval_hg(nx_index: int, ny_index: int, geometry: BeamGeometry, x, y):
    """Normalized Hermite-Gauss mode; used for the large-ellipticity limit."""
    nx_index, ny_index = _integer_indices("HG", nx_index=nx_index, ny_index=ny_index)
    coefficients = np.zeros(nx_index + ny_index + 1, dtype=complex)
    coefficients[nx_index] = 1.0
    return _hg_sum(coefficients, geometry, x, y)


def eval_ig(mode: ModeIndex, ellipticity: float, geometry: BeamGeometry, x, y):
    """Unit-norm Ince-Gauss field at the given transverse points and z; eps > 0.

    Evaluated as its finite sum of the HG modes of its Gouy order p, with the coefficients of
    its HG block; all terms share p, so the field propagates exactly.
    Even and odd fields are both real at the waist, to the last bit.
    """
    eps = _scalar_ellipticity(ellipticity)
    if eps <= 0.0:
        raise InvalidModeError(f"ellipticity must be positive, got {eps}")
    return _hg_sum(_mode_coefficients(mode, None, eps), geometry, x, y)


def eval_hig(mode: ModeIndex, sign, ellipticity: float, geometry: BeamGeometry, x, y):
    """Helical Ince-Gauss field (even +- i odd)/sqrt(2); requires m >= 1 and eps > 0."""
    eps = _scalar_ellipticity(ellipticity)
    _check_helical(mode, np.array([eps]))
    return _hg_sum(_mode_coefficients(mode, _as_sign(sign).value_int, eps), geometry, x, y)


def sample_grid(field, window_half_width: float, resolution: int) -> ComplexField:
    """Sample a field callable on a uniform square grid.

    The grid spans [-W, W] per axis inclusive with ``resolution`` points, so
    spacing is 2 W / (resolution - 1).  The callable receives the axes, x
    as a row of shape (1, resolution) and y as a column of shape
    (resolution, 1), and its result is broadcast to the square; the field
    evaluators take such axes as a grid.  Deterministic row-major output.
    A new C-ordered complex square that nothing else references, which is
    what the evaluators return, becomes the field's values without a copy;
    any other result is copied, so an array the callable keeps stays
    writeable.
    """
    if not (16 <= resolution < math.inf and resolution == int(resolution)):
        raise GridError(f"resolution must be an integer of at least 16, got {resolution}")
    resolution = int(resolution)
    if not 0.0 < window_half_width < np.inf:
        raise GridError(f"window_half_width must be positive and finite, got {window_half_width}")
    with np.errstate(over="ignore", invalid="ignore"):  # a window near the double range spans inf
        coords = np.linspace(-window_half_width, window_half_width, resolution)
    values = field(coords[None, :], coords[:, None])
    # it owns its memory and only this name refers to it (the reference
    # count test of numpy's ndarray.resize), so no caller can see it frozen
    fresh = (
        isinstance(values, np.ndarray)
        and values.dtype == complex
        and values.shape == (resolution, resolution)
        and values.flags.c_contiguous
        and values.base is None
        and sys.getrefcount(values) <= 2
    )
    if not fresh:
        values = np.array(np.broadcast_to(values, (resolution, resolution)), dtype=complex, order="C")
    return ComplexField(
        nx=resolution,
        ny=resolution,
        origin=(-window_half_width, -window_half_width),
        spacing=float(coords[1] - coords[0]),
        values=values,
        _fresh=True,
    )
