"""Independent numerical oracles for the test suite.

These deliberately avoid the code paths they check: eigenvalues come from
Sturm-sequence bisection on the characteristic polynomial or, with their
eigenvectors, from mpmath's symmetric eigensolver in extended precision;
series values from plain term-by-term summation, and LG and HG field values
from their closed forms in 40-digit mpmath arithmetic.  Expansion weights
from overlap quadrature of the elliptic-series fields are
``verify.quadrature_weights``, which shares one elliptic frame and one LG
table among the modes of an eps and waist; ``per_mode_series_ig`` and
``per_mode_quadrature_weights`` build both afresh for every mode, and the
shared route must reproduce them bit for bit.  ``symmetric_lg_weights``
reads the weights, at any order, straight off LAPACK's eigenvector of the
symmetrized recurrence, one eps at a time and up to sign, and
``fourier_lg_weights`` from the refined Fourier vector of ``solve_ince``.
``band_scale`` reads the symmetrizing diagonal off the bands, the route
that ``ince.lg_scale`` replaces in the library, and ``refined_eigenpair``
is the per-matrix eigen route that the stacked refinement
``ince._fourier_polynomials`` replaced: couplings symmetrized from the
bands of one ``build_recurrence_matrix``, unscaled and refined on its
dense form, where the library fills T(eps) from the pencil for a whole
stack of eps and ``solve_ince`` is the one-point case.  ``random_states``
supplies the random one-photon states of the OAM identity tests.
``lg_sum`` is the Laguerre-Gauss route to the fields of one Gouy order
that the library evaluates as Hermite-Gauss sums: blocked, with the azimuth
as powers of the unit phasor.  ``polar_lg_sum`` evaluates the same LG sum
with the azimuth from arctan2 and one cos and sin per row, over the whole
array at once, and ``hg_projection`` projects it onto the HG modes of its
order by Gauss-Hermite quadrature.  ``dense_vortices`` is the whole-grid
winding detector that ``vortex.find_vortices`` must match exactly, with its
own Newton polish on numpy scalars, ``scalar_bilinear_zero``;
``sign_change`` is the per-quadrature corner test that the packed candidate
mask of ``vortex`` must reproduce, and
``field_csv`` the per-sample writer whose bytes the CLI's field CSV must
reproduce.  ``loop_turning_points`` and ``loop_crossings`` are the
per-sample loops whose results ``quantum.find_turning_points`` and
``quantum.find_crossings`` must reproduce bit for bit.
"""

import math

import mpmath as mp
import numpy as np

from elliptic_oam.beams import BeamGeometry, eval_gaussian, eval_lg
from elliptic_oam.errors import SolverError
from elliptic_oam.ince import (
    _pencil,
    build_recurrence_matrix,
    eigenvalue_rank,
    eval_angular,
    eval_radial,
    lg_scale,
    series_harmonics,
    solve_ince,
)
from elliptic_oam.linalg import eigen_tridiagonal, plane_quadrature_grid
from elliptic_oam.quantum import QuantumModeState, decompose
from elliptic_oam.verify import cartesian_to_elliptic
from elliptic_oam.vortex import Vortex


def sturm_count(diag, sub, sup, x):
    """Number of eigenvalues strictly below x.

    Uses the LDL-style recursion on the original bands; only the products
    sub*sup enter, which is exactly why symmetrizability is required.
    """
    products = np.asarray(sub, dtype=float) * np.asarray(sup, dtype=float)
    count = 0
    q = diag[0] - x
    if q < 0.0:
        count += 1
    for i in range(1, len(diag)):
        denom = q if q != 0.0 else 1e-300
        q = (diag[i] - x) - products[i - 1] / denom
        if q < 0.0:
            count += 1
    return count


def sturm_eigenvalues(diag, sub, sup, tol=1e-13):
    """All eigenvalues by bisection, ascending."""
    diag = np.asarray(diag, dtype=float)
    n = len(diag)
    e = np.sqrt(np.maximum(np.asarray(sub, dtype=float) * np.asarray(sup, dtype=float), 0.0))
    pad = np.concatenate(([0.0], e, [0.0]))
    radius = float(np.max(np.abs(diag) + pad[:-1] + pad[1:])) + 1.0
    scale = max(radius, 1.0)
    out = np.empty(n)
    for k in range(n):
        lo, hi = -radius, radius
        while hi - lo > tol * scale:
            mid = 0.5 * (lo + hi)
            if sturm_count(diag, sub, sup, mid) <= k:
                lo = mid
            else:
                hi = mid
        out[k] = 0.5 * (lo + hi)
    return out


def band_scale(matrix):
    """Symmetrizing diagonal from the bands: 1, then cumprod of sqrt(sup / sub).

    Across a coupling that is zero on both sides any ratio will do; 1 is taken.
    """
    sub, sup = matrix.sub, matrix.sup
    ratios = np.sqrt(np.divide(sup, sub, out=np.ones_like(sub), where=sub != 0.0))
    return np.concatenate(([1.0], np.cumprod(ratios)))


def refined_eigenpair(matrix, scale, rank):
    """All eigenvalues, ascending, and the unit eigenvector of rank ``rank`` of one tridiagonal matrix.

    The couplings must be non-negative, zero on both sides or on neither,
    and ``scale`` the symmetrizing diagonal, ``scale[i + 1] / scale[i] =
    sqrt(sup[i] / sub[i])``.  The symmetric form, with couplings
    sqrt(sub * sup) of the matrix's own bands, is solved as a one-matrix
    stack by ``linalg.eigen_tridiagonal``; its vector is unscaled, refined by
    one inverse-iteration step on the matrix itself, normalized one term at a
    time, and its residual on the matrix is checked against the eigenvalue.
    ``ince.solve_ince`` builds its couplings as eps * sqrt(sub * sup) from the
    pencil instead, so the two agree to rounding, not bit for bit.
    """
    with np.errstate(over="ignore"):  # an overflowing product is the kernel's to report
        coupling = np.sqrt(matrix.sub * matrix.sup)
    eigenvalues, symmetric = eigen_tridiagonal(matrix.diag[None], coupling[None], [rank])
    eigenvalues, value = eigenvalues[0], float(eigenvalues[0, rank])
    dense = matrix.to_dense()
    shift = value + 1e-13 * (1.0 + np.max(np.abs(eigenvalues)))
    try:
        vector = np.linalg.solve(dense - shift * np.eye(matrix.dimension), symmetric[0, :, 0] / scale)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"tridiagonal eigensolve failed: {exc}") from exc
    # the shift lies above the eigenvalue, so the step reverses the sign
    vector /= -np.sqrt(sum(vector * vector))
    residual = np.linalg.norm(dense @ vector - value * vector)
    if not residual <= 1e-10 * (1.0 + abs(value)):
        raise SolverError(f"eigenpair {rank} residual {residual:.3e} exceeds bound; matrix badly scaled?")
    return eigenvalues, vector


def mp_eigenpairs(matrix, digits=50):
    """Ascending eigenvalues and eigenvector columns of a tridiagonal matrix.

    ``mp.eigsy`` runs on the symmetrized bands at ``digits`` decimal digits;
    the vectors are then unscaled back to the original matrix, normalized
    and sign-fixed (first nonzero entry positive), and returned as floats.
    """
    n = matrix.dimension
    with mp.workdps(digits):
        sub = [mp.mpf(float(v)) for v in matrix.sub]
        sup = [mp.mpf(float(v)) for v in matrix.sup]
        symmetric = mp.matrix(n, n)
        scale = [mp.mpf(1)]
        for i in range(n):
            symmetric[i, i] = mp.mpf(float(matrix.diag[i]))
        for i in range(n - 1):
            symmetric[i, i + 1] = symmetric[i + 1, i] = mp.sqrt(sub[i] * sup[i])
            scale.append(scale[-1] * (mp.sqrt(sup[i] / sub[i]) if sub[i] * sup[i] else 1))
        values, vectors = mp.eigsy(symmetric)  # values ascending
        out = np.empty((n, n))
        for j in range(n):
            v = [vectors[i, j] / scale[i] for i in range(n)]
            norm = mp.sqrt(mp.fsum(x**2 for x in v))
            sign = 1 if next(x for x in v if x != 0) > 0 else -1
            out[:, j] = [float(sign * x / norm) for x in v]
        return np.array([float(a) for a in values]), out


def symmetric_lg_weights(mode, eps):
    """LG weights of an IG mode, up to one overall sign, in descending charge.

    The diagonal similarity that symmetrizes the recurrence scales harmonic
    l by sqrt((n + l)! n!), times sqrt(2) at l = 0, relative to l = p: the
    LG normalization ratio.  So the symmetric eigenvector u of the mode's
    rank, reversed and given the alternating sign (-1)^(n + l + (p + m)/2),
    is the weight vector, with no inverse iteration, unscaling or factorial
    ratios in between.
    """
    matrix = build_recurrence_matrix(mode, eps)
    coupling = np.sqrt(matrix.sub * matrix.sup)
    symmetric = np.diag(matrix.diag) + np.diag(coupling, 1) + np.diag(coupling, -1)
    u = np.linalg.eigh(symmetric)[1][:, eigenvalue_rank(mode)][::-1]
    charges = series_harmonics(mode)[::-1]
    n = (mode.p - charges) // 2
    return np.where((n + charges + (mode.p + mode.m) // 2) % 2, -1.0, 1.0) * u


def mp_lg_weights(mode, eps, digits=250):
    """LG weights of an IG mode from ``mp.eigsy`` of the symmetrized recurrence at ``digits`` digits.

    S = diag(k^2 + eps*shift) + eps*sqrt(sub*sup) on the off-diagonals, in
    mpmath from the pencil's bands; its eigenvector u of the mode's rank,
    signed so that u[0] (the Fourier vector's entry 0) is positive, reversed
    and given the alternating sign (-1)^(n + l + (p + m)/2), as floats.
    At eps = 1e100 the small eigenvalues sit 100 digits below the largest,
    so the default precision keeps well clear of that.
    """
    square, shift, sub, sup = _pencil(mode)
    d = square.size
    with mp.workdps(digits):
        e = mp.mpf(float(eps))
        symmetric = mp.matrix(d, d)
        for i in range(d):
            symmetric[i, i] = mp.mpf(float(square[i])) + e * mp.mpf(float(shift[i]))
        for i in range(d - 1):
            symmetric[i, i + 1] = symmetric[i + 1, i] = e * mp.sqrt(mp.mpf(float(sub[i])) * mp.mpf(float(sup[i])))
        _, vectors = mp.eigsy(symmetric)  # values ascending
        u = [vectors[i, eigenvalue_rank(mode)] for i in range(d)]
        u = [float(x if u[0] > 0 else -x) for x in u][::-1]
    charges = series_harmonics(mode)[::-1]
    n = (mode.p - charges) // 2
    return np.where((n + charges + (mode.p + mode.m) // 2) % 2, -1.0, 1.0) * np.array(u)


def fourier_lg_weights(mode, eps):
    """LG weights of an IG mode by way of its refined Fourier vector.

    ``solve_ince``'s Fourier vector (inverse-iterated on the unsymmetrized
    recurrence) times ``lg_scale``, reversed, given the alternating sign
    (-1)^(n + l + (p + m)/2) and normalized one term at a time: the same D
    as the library's, overall sign included, by another eigenvector route.
    """
    poly = solve_ince(mode, eps)
    charges = poly.harmonics[::-1]
    n = (mode.p - charges) // 2
    raw = np.where((n + charges + (mode.p + mode.m) // 2) % 2, -1.0, 1.0) * (lg_scale(mode) * poly.fourier)[::-1]
    return raw / math.sqrt(sum(raw * raw))


def series_sum(harmonics, coeffs, func, arg):
    """Plain term-by-term summation of sum_j coeffs[j] * func(k_j * arg)."""
    total = 0.0
    for k, c in zip(harmonics, coeffs):
        total += c * func(k * arg)
    return total


def geometry(waist=1.0, z=0.0):
    return BeamGeometry(waist=waist, wavenumber=2.0 * math.pi, z=z)


def mp_lg(n, l, kind, geo, x, y):
    """Normalized LG field at one point from its closed form, in mpmath."""
    with mp.workdps(40):
        x, y, w = mp.mpf(x), mp.mpf(y), mp.mpf(geo.width)
        r2 = x**2 + y**2
        arg = 2 * r2 / w**2
        phi = mp.atan2(y, x)
        norm = mp.sqrt(2 * mp.factorial(n) / (mp.pi * mp.factorial(n + l))) / w
        radial = norm * arg ** (mp.mpf(l) / 2) * mp.laguerre(n, l, arg) * mp.exp(-r2 / w**2)
        angular = {
            "even": mp.sqrt(2) * mp.cos(l * phi) if l else 1,
            "odd": mp.sqrt(2) * mp.sin(l * phi),
            "helical_plus": mp.expj(l * phi),
            "helical_minus": mp.expj(-l * phi),
        }[kind]
        return complex(radial * angular * _mp_phase(2 * n + l, geo, r2))


def mp_hg(nx, ny, geo, x, y):
    """Normalized HG field at one point from its closed form, in mpmath."""
    with mp.workdps(40):
        x, y, w = mp.mpf(x), mp.mpf(y), mp.mpf(geo.width)
        r2 = x**2 + y**2
        norm = mp.sqrt(2 / mp.pi) / mp.sqrt(2 ** (nx + ny) * mp.factorial(nx) * mp.factorial(ny)) / w
        hermite = mp.hermite(nx, mp.sqrt(2) * x / w) * mp.hermite(ny, mp.sqrt(2) * y / w)
        return complex(norm * hermite * mp.exp(-r2 / w**2) * _mp_phase(nx + ny, geo, r2))


def _mp_phase(order, geo, r2):
    """Curvature and order-(order + 1) Gouy phase factor."""
    k, inverse_r, gouy = (mp.mpf(v) for v in (geo.wavenumber, geo.inverse_curvature, geo.gouy))
    return mp.expj(k * inverse_r * r2 / 2 - (order + 1) * gouy)


# Points per block of ``lg_sum``: small enough that a block's per-row
# temporaries stay in cache; 4096 to 16384 measured alike on 256^2 and
# 512^2 grids.
_BLOCK = 4096


def _genlaguerre(n, l, x):
    """Generalized Laguerre polynomial L_n^l(x) by its three-term recurrence.

    L_0^l = 1 is returned as the scalar 1.0.
    """
    previous, current = 0.0, 1.0
    for k in range(n):
        previous, current = current, ((2 * k + 1 + l - x) * current - (k + l) * previous) / (k + 1)
    return current


def _unit_power(u, l):
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


def _lg_block(rows, order, geo, x, y):
    """``lg_sum`` on one flat block of points."""
    w = geo.width
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
    curvature = 0.5 * geo.wavenumber * geo.inverse_curvature
    return total * np.exp(1j * (curvature * r2 - (order + 1) * geo.gouy))


def lg_sum(state, order, geo, x, y):
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
        flat_out[block] = _lg_block(rows, order, geo, flat_x[block], flat_y[block])
    return out[()]


def polar_lg_sum(state, order, geo, x, y):
    """Field of an LG state from r, phi = arctan2(y, x), cos(l phi) and sin(l phi).

    The same log-space radial weight as ``lg_sum``, but the azimuth
    is taken from arctan2 and each row's cos and sin, over all points in
    one pass, rows in their stored order.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    w = geo.width
    r2 = x**2 + y**2
    arg = 2.0 * r2 / w**2
    with np.errstate(divide="ignore"):
        log_arg = np.log(arg)
    phi = np.arctan2(y, x)
    total = 0.0
    for n, l, even, odd in zip(state.n.tolist(), state.l.tolist(), state.even.tolist(), state.odd.tolist()):
        log_weight = 0.5 * (math.log(2.0 / math.pi) + math.lgamma(n + 1) - math.lgamma(n + l + 1) - arg)
        previous, laguerre = np.zeros_like(arg), np.ones_like(arg)
        for k in range(n):
            previous, laguerre = laguerre, ((2 * k + 1 + l - arg) * laguerre - (k + l) * previous) / (k + 1)
        if l == 0:
            angular = even
        else:
            log_weight = log_weight + 0.5 * l * log_arg
            angular = math.sqrt(2.0) * (even * np.cos(l * phi) + odd * np.sin(l * phi))
        total = total + np.exp(log_weight) * laguerre * angular
    curvature = 0.5 * geo.wavenumber * geo.inverse_curvature
    return total / w * np.exp(1j * (curvature * r2 - (order + 1) * geo.gouy))


def hg_projection(order):
    """The LG -> HG transform of one Gouy order, projected from ``polar_lg_sum``.

    Column (order + l) / 2 holds <HG_(k, order - k) | LG> for the even LG
    mode of charge l, column (order - l) / 2 for the odd one, as
    ``beams._lg_to_hg`` lays them out.  At the waist, with w = 1, the
    overlap integrand is a polynomial of degree 2 order times
    exp(-u^2 - v^2) in u = sqrt(2) x, v = sqrt(2) y, so order + 1
    Gauss-Hermite nodes per axis give it exactly.  The unit-norm Hermite
    functions come from numpy's Hermite series.  The weights e^((u^2 + v^2) / 2)
    overflow from about order 350.
    """
    nodes, weights = np.polynomial.hermite.hermgauss(order + 1)
    k = np.arange(order + 1)
    log_factorial = np.array([math.lgamma(j + 1) for j in k])
    log_norm = -0.5 * (k * math.log(2.0) + log_factorial + 0.5 * math.log(math.pi))
    # h_k(u) exp(u^2 / 2) at the nodes, rows k: h_k(u) h_(order-k)(v) e^((u^2 + v^2) / 2)
    # is hermite[k][:, None] * hermite[order - k][None, :] (u down, v across)
    hermite = np.exp(log_norm)[:, None] * np.polynomial.hermite.hermvander(nodes, order).T
    U, V = np.meshgrid(nodes, nodes, indexing="ij")
    out = np.empty((order + 1, order + 1))
    for column in range(order + 1):
        l = abs(2 * column - order)
        even, odd = (1.0, 0.0) if 2 * column >= order else (0.0, 1.0)
        state = QuantumModeState([(order - l) // 2], [l], [even], [odd])
        lg = polar_lg_sum(state, order, geometry(), U / math.sqrt(2.0), V / math.sqrt(2.0)).real
        # dx dy = du dv / 2, and HG = sqrt(2) h_k(u) h_(order-k)(v) at w = 1
        integrand = (weights[:, None] * weights[None, :]) * np.exp(0.5 * (U**2 + V**2)) * lg / math.sqrt(2.0)
        out[:, column] = np.einsum("kuv,uv->k", hermite[:, :, None] * hermite[::-1][:, None, :], integrand)
    return out


def plane_sum(values, weights):
    return complex(np.sum(values * weights))


def random_states(count, seed=1234):
    """Random normalized states over the p <= 4 even/odd LG basis.

    One complex normal draw per basis mode, the even mode of each (n, l)
    row before its odd partner (none at l = 0), scattered into the rows.
    """
    n, l = np.array([((p - l) // 2, l) for p in range(5) for l in range(p % 2, p + 1, 2)]).T
    # (row, column) of each basis mode: column 0 even, column 1 odd
    slots = [(row, column) for row, l_row in enumerate(l) for column in ((0, 1) if l_row else (0,))]
    at = tuple(np.array(slots).T)
    rng = np.random.default_rng(seed)
    for _ in range(count):
        raw = rng.normal(size=len(slots)) + 1j * rng.normal(size=len(slots))
        raw /= np.linalg.norm(raw)
        amplitudes = np.zeros((n.size, 2), dtype=complex)
        amplitudes[at] = raw
        yield QuantumModeState(n, l, amplitudes[:, 0], amplitudes[:, 1])


def field_csv(field):
    """The ``field --format csv`` payload, one ``format(value, '.17g')`` per number."""

    def fmt(value):
        return format(float(value), ".17g")

    xs = field.x_coords()
    ys = field.y_coords()
    lines = ["x,y,re,im"]
    for iy in range(field.ny):
        for ix in range(field.nx):
            value = field.values[iy, ix]
            lines.append(f"{fmt(xs[ix])},{fmt(ys[iy])},{fmt(value.real)},{fmt(value.imag)}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def sign_change(component):
    """Plaquettes with a corner above zero and a corner below zero, per quadrature.

    Boolean corner masks OR-ed over the four corners; the candidate test of
    ``vortex.find_vortices`` is this AND-ed over the real and imaginary parts.
    """
    above = component > 0.0
    below = component < 0.0
    return (
        (above[:-1, :-1] | above[:-1, 1:] | above[1:, :-1] | above[1:, 1:])
        & (below[:-1, :-1] | below[:-1, 1:] | below[1:, :-1] | below[1:, 1:])
    )


def scalar_bilinear_zero(f00, f10, f01, f11):
    """Newton solve for the zero of the bilinear interpolant, in cell units.

    The same iteration as ``vortex._bilinear_zero``, run here on the numpy
    complex scalars that indexing a field returns.
    """
    u, v = 0.5, 0.5
    for _ in range(30):
        value = f00 * (1 - u) * (1 - v) + f10 * u * (1 - v) + f01 * (1 - u) * v + f11 * u * v
        du = (f10 - f00) * (1 - v) + (f11 - f01) * v
        dv = (f01 - f00) * (1 - u) + (f11 - f10) * u
        det = du.real * dv.imag - du.imag * dv.real
        if det == 0.0:
            break
        step_u = (value.real * dv.imag - value.imag * dv.real) / det
        step_v = (du.real * value.imag - du.imag * value.real) / det
        u -= step_u
        v -= step_v
        if abs(step_u) < 1e-14 and abs(step_v) < 1e-14:
            break
    return min(max(u, 0.0), 1.0), min(max(v, 0.0), 1.0)


def dense_vortices(field):
    """Phase singularities by the winding of every plaquette of the grid.

    The phase, the four wrapped corner differences, the 1e-9 * max|field|
    corner-amplitude floor and the sign change of both quadratures are all
    computed over the whole plaquette grid, then filtered; survivors are
    refined by ``scalar_bilinear_zero`` on numpy scalars and listed by
    plaquette column, then row.
    """
    values = field.values
    phase = np.angle(values)

    def wrap(angles):
        return np.mod(angles + np.pi, 2.0 * np.pi) - np.pi

    p00, p10, p11, p01 = phase[:-1, :-1], phase[:-1, 1:], phase[1:, 1:], phase[1:, :-1]
    winding = wrap(p10 - p00) + wrap(p11 - p10) + wrap(p01 - p11) + wrap(p00 - p01)
    charge = np.rint(winding / (2.0 * np.pi)).astype(int)

    amplitude = np.abs(values)
    floor = 1e-9 * float(amplitude.max())
    corner_min = np.minimum(
        np.minimum(amplitude[:-1, :-1], amplitude[:-1, 1:]),
        np.minimum(amplitude[1:, :-1], amplitude[1:, 1:]),
    )

    def corner_sign_change(component):
        corners = (component[:-1, :-1], component[:-1, 1:], component[1:, 1:], component[1:, :-1])
        return (np.maximum.reduce(corners) > 0.0) & (np.minimum.reduce(corners) < 0.0)

    candidates = (
        (charge != 0) & (corner_min > floor) & corner_sign_change(values.real) & corner_sign_change(values.imag)
    )
    x0, y0 = field.origin
    found = []
    for iy, ix in sorted(zip(*np.nonzero(candidates)), key=lambda cell: (cell[1], cell[0])):
        u, v = scalar_bilinear_zero(
            values[iy, ix], values[iy, ix + 1], values[iy + 1, ix], values[iy + 1, ix + 1]
        )
        found.append(
            Vortex(x=x0 + (ix + u) * field.spacing, y=y0 + (iy + v) * field.spacing, charge=int(charge[iy, ix]))
        )
    return found


def loop_turning_points(curve):
    """Strict interior extrema of a curve, one sample at a time, each refined by a parabola."""
    eps, vals = curve.epsilons, curve.oam
    out = []
    for i in range(1, eps.size - 1):
        left = vals[i] - vals[i - 1]
        right = vals[i + 1] - vals[i]
        if left * right < 0.0:
            x0, x1, x2 = eps[i - 1 : i + 2]
            y0, y1, y2 = vals[i - 1 : i + 2]
            denom = (x1 - x0) * (y1 - y2) - (x1 - x2) * (y1 - y0)
            if denom == 0.0:
                out.append(float(x1))
                continue
            shift = 0.5 * ((x1 - x0) ** 2 * (y1 - y2) - (x1 - x2) ** 2 * (y1 - y0)) / denom
            out.append(float(x1 - shift))
    return out


def loop_crossings(a, b):
    """Sign changes of a - b, one interval at a time: an exact interior zero, or linear interpolation."""
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


def per_mode_series_ig(mode, ellipticity, geometry, x, y):
    """The elliptic-series field of one mode, its coordinates, envelope and norm grid built afresh."""
    poly = solve_ince(mode, ellipticity)
    semifocal = geometry.semifocal(ellipticity)

    def profile(x, y):
        point = cartesian_to_elliptic(x, y, semifocal)
        envelope = eval_gaussian(geometry, x, y)
        return eval_radial(poly, point.xi) * eval_angular(poly, point.eta) * envelope

    X, Y, W = plane_quadrature_grid(8.0 * geometry.width, 160)
    norm = math.sqrt(float(np.sum(np.abs(profile(X, Y)) ** 2 * W)))
    return profile(x, y) * np.exp(-1j * mode.p * geometry.gouy) / norm


def per_mode_quadrature_weights(mode, eps, waist=1.0):
    """LG weights {l: D} of one mode by overlap quadrature, every LG field evaluated afresh."""
    geo = geometry(waist)
    X, Y, W = plane_quadrature_grid(8.0 * waist, 128)
    ig = per_mode_series_ig(mode, eps, geo, X, Y)
    out = {}
    for l in decompose(mode, eps).charges.tolist():
        lg = eval_lg((mode.p - l) // 2, l, mode.parity.value, geo, X, Y)
        out[l] = float(np.sum(np.conj(lg) * ig * W).real)
    return out
