"""Phase-singularity detection on sampled complex fields.

A vortex is located by the quantized winding of the phase around a grid
plaquette.  Real-valued fields (even/odd modes) produce pi phase jumps
across nodal lines that must not be mistaken for vortices, so a plaquette
only counts when both the real and the imaginary part change sign among its
corners, i.e. when an isolated zero of the complex field can lie inside.
That test runs first, as a few whole-array boolean passes over the field's
interleaved float64 view: one comparison each way against zero, whose two
flags per sample are one 16-bit word, then ORs of those words over the row
pairs and column pairs of each plaquette's corners, on flat contiguous
planes.  The winding is computed only on the few plaquettes that pass it,
and each vortex is positioned by a Newton polish of the bilinear
interpolant's zero, written out in real arithmetic on Python floats that
rounds as the complex iteration does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beams import BeamGeometry, ComplexField, eval_hig, sample_grid
from .errors import GridError, InvalidModeError
from .ince import ModeIndex


@dataclass(frozen=True)
class Vortex:
    """Position and integer topological charge of one phase singularity."""

    x: float
    y: float
    charge: int

    def __post_init__(self):
        if self.charge == 0:
            raise GridError("a vortex must carry nonzero charge")


def _wrap(angles: np.ndarray) -> np.ndarray:
    return np.mod(angles + np.pi, 2.0 * np.pi) - np.pi


def _bilinear_zero(f00: complex, f10: complex, f01: complex, f11: complex) -> tuple:
    """Newton solve for the zero of the bilinear interpolant, in cell units.

    The iteration of ``u, v`` on the complex interpolant, written out in real and imaginary
    parts on Python floats, term for term in the same order, so it rounds as the complex
    arithmetic does; the four corner differences are taken once, before the loop.
    """
    a_re, a_im, b_re, b_im = f00.real, f00.imag, f10.real, f10.imag
    c_re, c_im, d_re, d_im = f01.real, f01.imag, f11.real, f11.imag
    # along x at v = 0 and v = 1, along y at u = 0 and u = 1
    bottom_re, bottom_im, top_re, top_im = b_re - a_re, b_im - a_im, d_re - c_re, d_im - c_im
    left_re, left_im, right_re, right_im = c_re - a_re, c_im - a_im, d_re - b_re, d_im - b_im
    u, v = 0.5, 0.5
    for _ in range(30):
        iu, iv = 1 - u, 1 - v
        value_re = a_re * iu * iv + b_re * u * iv + c_re * iu * v + d_re * u * v
        value_im = a_im * iu * iv + b_im * u * iv + c_im * iu * v + d_im * u * v
        du_re, du_im = bottom_re * iv + top_re * v, bottom_im * iv + top_im * v
        dv_re, dv_im = left_re * iu + right_re * u, left_im * iu + right_im * u
        det = du_re * dv_im - du_im * dv_re
        if det == 0.0:
            break
        step_u = (value_re * dv_im - value_im * dv_re) / det
        step_v = (du_re * value_im - du_im * value_re) / det
        u -= step_u
        v -= step_v
        if abs(step_u) < 1e-14 and abs(step_v) < 1e-14:
            break
    return min(max(u, 0.0), 1.0), min(max(v, 0.0), 1.0)


def _candidate_mask(values: np.ndarray) -> np.ndarray:
    """Plaquettes where both quadratures change sign among the four corners.

    ``values`` must be C-ordered.  Its float64 view holds each sample's real
    and imaginary part side by side, so one comparison each way flags the
    signs of both quadratures at once, and a sample's two flags are one
    ``uint16`` word of the boolean plane.  The words are OR-ed over row
    pairs (``nx`` words apart), then over neighbouring words, all on flat
    contiguous planes; a row's last word then pairs with the next row's
    first, and that column is dropped.  This leaves "a corner above zero"
    and "a corner below zero" per plaquette, one byte per quadrature; a
    candidate has both, in both quadratures: the word 0x0101 of their AND,
    on either byte order.  Each step writes into a plane whose flags are
    spent, so the pass holds three boolean planes of the float view's size.
    """
    nx = values.shape[1]
    parts = values.view(np.float64)
    above = (parts > 0.0).view(np.uint16).reshape(-1)
    below = (parts < 0.0).view(np.uint16).reshape(-1)
    above_rows = above[:-nx] | above[nx:]
    below_rows = np.bitwise_or(below[:-nx], below[nx:], out=above[:-nx])
    any_above = np.bitwise_or(above_rows[:-1], above_rows[1:], out=below[: above_rows.size - 1])
    any_below = np.bitwise_or(below_rows[:-1], below_rows[1:], out=above_rows[:-1])
    np.bitwise_and(any_above, any_below, out=any_below)
    return above_rows.reshape(-1, nx)[:, :-1] == 0x0101


# Relative margin on the bracket of the noise floor, far above the few ulp
# by which a rounded |z| and the products 1e-9 * ... can stray.
_FLOOR_MARGIN = 1e-12
_SMALLEST_NORMAL = float(np.finfo(float).tiny)


def _noise_floor(values: np.ndarray) -> float:
    """1e-9 * max|field|, half by half, so its temporary is a quarter of the field's bytes."""
    half = values.shape[0] // 2
    return 1e-9 * max(float(np.abs(values[:half]).max()), float(np.abs(values[half:]).max()))


def find_vortices(field: ComplexField):
    """Detect phase singularities and their charges on a sampled field.

    Candidates are found first, in a few whole-array boolean passes over
    the field's interleaved float view (``_candidate_mask``): a plaquette
    can enclose a zero only if both field quadratures change sign among its
    corners.  They are read off as flat indices.  Only on the candidates
    are the wrapped phase differences around the four corners summed; a
    nonzero multiple of 2*pi marks an enclosed singularity.  Candidates
    whose corner amplitudes do not all clear 1e-9 * max|field| are treated
    as numerical noise.  That floor is bracketed first without a complex
    modulus: with M the largest |Re| or |Im| of any sample
    (``ComplexField.max_part``, read off the max and min of the float view
    when the field was checked finite), 1e-9 M <= 1e-9 max|field| <=
    1e-9 sqrt(2) M, so a charged candidate whose smallest corner amplitude
    lies outside the bracket (widened by a rounding margin) is decided by
    it.  Only if one falls inside, or the bracket is below the normal
    double range, is max|field| itself taken, half by half; the survivors
    are the same either way.  Each survivor is positioned at the zero of the
    bilinear interpolant by a Newton solve on its corner values, read with
    its indices and charge by one ``tolist`` each.  Result is sorted by the plaquette's column index,
    then its row index: nearly x then y, but a field that moves by rounding
    keeps its order.  The search's temporaries stay under half of the
    field's bytes.
    """
    nx, ny = field.nx, field.ny
    if nx < 8 or ny < 8:
        raise GridError(f"grid {ny}x{nx} too small for winding detection (need 8x8)")
    values = field.values
    iy, ix = np.divmod(np.flatnonzero(_candidate_mask(values)), nx - 1)
    samples = values.reshape(-1)
    corner = iy * nx + ix
    c00 = samples[corner]
    c10 = samples[corner + 1]
    c01 = samples[corner + nx]
    c11 = samples[corner + (nx + 1)]
    p00, p10, p11, p01 = (np.angle(c) for c in (c00, c10, c11, c01))
    winding = (
        _wrap(p10 - p00) + _wrap(p11 - p10) + _wrap(p01 - p11) + _wrap(p00 - p01)
    )
    charge = np.rint(winding / (2.0 * np.pi)).astype(int)
    charged = charge != 0
    corner_min = np.minimum(
        np.minimum(np.abs(c00), np.abs(c10)), np.minimum(np.abs(c01), np.abs(c11))
    )
    lower = 1e-9 * field.max_part * (1.0 - _FLOOR_MARGIN)
    floor = 1e-9 * math.sqrt(2.0) * field.max_part * (1.0 + _FLOOR_MARGIN)
    # below the normal range rounding is no longer relative, so the margin would not cover it
    if lower < _SMALLEST_NORMAL or np.any(charged & (corner_min > lower) & (corner_min <= floor)):
        floor = _noise_floor(values)
    (keep,) = np.nonzero(charged & (corner_min > floor))
    # plaquette column, then row: integers, so rounding in the field cannot reorder them
    keep = keep[np.lexsort((iy[keep], ix[keep]))]

    x0, y0 = field.origin
    spacing = field.spacing
    corners = np.stack((c00[keep], c10[keep], c01[keep], c11[keep]), axis=1).tolist()
    found = []
    for cell, column, row, turns in zip(corners, ix[keep].tolist(), iy[keep].tolist(), charge[keep].tolist()):
        u, v = _bilinear_zero(*cell)
        found.append(Vortex(x=x0 + (column + u) * spacing, y=y0 + (row + v) * spacing, charge=turns))
    return found


def census_window(waist: float, ellipticity: float) -> float:
    """Half-width of the adaptive sampling window for a vortex census.

    The ellipticity must be positive and finite.
    """
    if not 0.0 < ellipticity < math.inf:
        raise InvalidModeError(f"ellipticity must be positive and finite, got {ellipticity}")
    semifocal = waist * math.sqrt(ellipticity / 2.0)
    return max(6.0 * waist, 3.0 * semifocal)


def vortex_census(
    mode: ModeIndex,
    sign,
    epsilons,
    resolution: int,
    waist: float = 1.0,
    wavenumber: float = 2.0 * math.pi,
):
    """Vortex inventory of a helical mode across ellipticities.

    Samples the helical field per ellipticity on an adaptive window (six
    waists, or three semifocal separations if larger) and runs
    find_vortices.  Returns [(eps, [Vortex, ...]), ...] in input order.
    """
    try:
        grid = list(epsilons)
    except TypeError:  # one number, not a grid
        raise InvalidModeError(f"ellipticity grid must be 1-D, got shape {np.shape(epsilons)}") from None
    geometry = BeamGeometry(waist=waist, wavenumber=wavenumber)
    results = []
    for eps in grid:
        half_width = census_window(waist, eps)
        field = sample_grid(lambda x, y: eval_hig(mode, sign, eps, geometry, x, y), half_width, resolution)
        results.append((float(eps), find_vortices(field)))
    return results
