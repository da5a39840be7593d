"""Independent numerical oracles for the test suite.

These deliberately avoid the code paths they check: eigenvalues come from
Sturm-sequence bisection on the characteristic polynomial, series values
from plain term-by-term summation, and expansion weights from overlap
quadrature of the elliptic-series fields (``verify.series_ig``).
"""

import math

import numpy as np

from elliptic_oam import beams, quantum
from elliptic_oam.beams import BeamGeometry
from elliptic_oam.linalg import plane_quadrature_grid
from elliptic_oam.verify import series_ig


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


def series_sum(harmonics, coeffs, func, arg):
    """Plain term-by-term summation of sum_j coeffs[j] * func(k_j * arg)."""
    total = 0.0
    for k, c in zip(harmonics, coeffs):
        total += c * func(k * arg)
    return total


def geometry(waist=1.0, z=0.0):
    return BeamGeometry(waist=waist, wavenumber=2.0 * math.pi, z=z)


def overlap_weights(mode, eps, waist=1.0, nodes=128, half_width=8.0):
    """LG weights of an IG mode from overlap integrals of the sampled fields."""
    geo = geometry(waist)
    X, Y, W = plane_quadrature_grid(half_width * waist, nodes)
    ig = series_ig(mode, eps, geo, X, Y)
    out = {}
    for index, _ in quantum.decompose(mode, eps).terms:
        lg = beams.eval_lg(index.n, index.l, mode.parity.value, geo, X, Y)
        out[index] = float(np.sum(np.conj(lg) * ig * W).real)
    return out


def plane_sum(values, weights):
    return complex(np.sum(values * weights))
