"""Independent numerical oracles for the test suite.

These deliberately avoid the code paths they check: eigenvalues come from
Sturm-sequence bisection on the characteristic polynomial or, with their
eigenvectors, from mpmath's symmetric eigensolver in extended precision;
series values from plain term-by-term summation, and LG and HG field values
from their closed forms in 40-digit mpmath arithmetic.  Expansion weights
from overlap quadrature of the elliptic-series fields are
``verify.quadrature_weights``.
"""

import math

import mpmath as mp
import numpy as np

from elliptic_oam.beams import BeamGeometry


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


def plane_sum(values, weights):
    return complex(np.sum(values * weights))
