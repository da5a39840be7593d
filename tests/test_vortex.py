"""Tests for phase-singularity detection and the ellipticity census."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliptic_oam import vortex
from elliptic_oam.beams import ComplexField, eval_hig, eval_ig, eval_lg, sample_grid
from elliptic_oam.errors import GridError, InvalidModeError
from elliptic_oam.ince import ModeIndex, Parity
from elliptic_oam.vortex import _bilinear_zero, _candidate_mask, census_window, find_vortices, vortex_census

from oracles import dense_vortices, geometry, scalar_bilinear_zero, sign_change

M53 = ModeIndex(5, 3, Parity.EVEN)
M22 = ModeIndex(2, 2, Parity.EVEN)


def hig_field(mode, eps, resolution, sign="plus", z=0.0):
    geo = geometry(z=z)
    half = census_window(1.0, eps)
    return sample_grid(lambda x, y: eval_hig(mode, sign, eps, geo, x, y), half, resolution)


class TestFindVortices:
    def test_canonical_helical_lg_vortex(self):
        geo = geometry()
        field = sample_grid(lambda x, y: eval_lg(0, 1, "helical_plus", geo, x, y), 4.0, 256)
        found = find_vortices(field)
        assert len(found) == 1
        assert found[0].charge == 1
        assert math.hypot(found[0].x, found[0].y) < field.spacing

    def test_parity_fields_have_no_vortices(self):
        geo = geometry()
        for parity in (Parity.EVEN, Parity.ODD):
            field = sample_grid(
                lambda x, y: eval_ig(ModeIndex(5, 3, parity), 2.0, geo, x, y), 6.0, 256
            )
            assert find_vortices(field) == []

    def test_hig53_on_axis_structure(self):
        field = hig_field(M53, 2.0, 512)
        found = find_vortices(field)
        spacing = field.spacing
        on_axis = [v for v in found if abs(v.y) < spacing]
        plus_one = sorted(v.x for v in on_axis if v.charge == 1)
        assert len(plus_one) == 3
        # central vortex plus the symmetric pair at the innermost angular
        # nodal crossings of the interfocal segment
        assert abs(plus_one[1]) < spacing
        assert abs(plus_one[0] + plus_one[2]) < 1e-10
        assert abs(plus_one[2] - 0.626) < 2.0 * spacing
        assert all(abs(v.charge) == 1 for v in found)

    def test_winding_is_quantized(self):
        field = hig_field(M53, 2.0, 256)
        values = field.values
        phase = np.angle(values)

        def wrap(t):
            return np.mod(t + np.pi, 2.0 * np.pi) - np.pi

        total = (
            wrap(phase[:-1, 1:] - phase[:-1, :-1])
            + wrap(phase[1:, 1:] - phase[:-1, 1:])
            + wrap(phase[1:, :-1] - phase[1:, 1:])
            + wrap(phase[:-1, :-1] - phase[1:, :-1])
        )
        nearest = np.rint(total / (2.0 * np.pi))
        assert np.max(np.abs(total - 2.0 * np.pi * nearest)) < 1e-6 * 2.0 * np.pi

    def test_mirror_symmetry(self):
        field = hig_field(M53, 2.0, 384)
        found = find_vortices(field)
        spacing = field.spacing
        for v in found:
            partner = min(found, key=lambda u: math.hypot(u.x - v.x, u.y + v.y))
            assert math.hypot(partner.x - v.x, partner.y + v.y) <= spacing

    def test_resolution_stability(self):
        coarse = find_vortices(hig_field(M53, 2.0, 256))
        fine = find_vortices(hig_field(M53, 2.0, 512))
        assert len(coarse) == len(fine)
        coarse_cell = 2.0 * census_window(1.0, 2.0) / 255
        for c in coarse:
            partner = min(
                (f for f in fine if f.charge == c.charge),
                key=lambda f: math.hypot(f.x - c.x, f.y - c.y),
            )
            assert math.hypot(partner.x - c.x, partner.y - c.y) < coarse_cell

    def test_sorted_output(self):
        # by plaquette column, then row
        field = hig_field(M53, 2.0, 256)
        found = find_vortices(field)
        x0, y0 = field.origin
        cells = [(math.floor((v.x - x0) / field.spacing), math.floor((v.y - y0) / field.spacing)) for v in found]
        assert len(found) > 10 and cells == sorted(cells)

    def test_order_survives_a_last_bit_change(self):
        # mirror pairs (x, +-y) share x up to rounding; a float (x, y) sort
        # swapped some of them when the field moved by one ulp
        field = hig_field(ModeIndex(20, 10, Parity.EVEN), 5.3, 384)
        nudged = ComplexField(field.nx, field.ny, field.origin, field.spacing, field.values * (1.0 + 2.0**-52))
        before, after = find_vortices(field), find_vortices(nudged)
        assert len(before) == len(after) > 100
        for a, b in zip(before, after):
            assert a.charge == b.charge and abs(a.x - b.x) < 1e-9 and abs(a.y - b.y) < 1e-9

    def test_degenerate_grid_rejected(self):
        values = np.ones((4, 4), dtype=complex)
        field = ComplexField(nx=4, ny=4, origin=(0.0, 0.0), spacing=1.0, values=values)
        with pytest.raises(GridError):
            find_vortices(field)


def lg_sum_field(nx, ny, half_width, terms, order="C"):
    """A sum of LG modes on an nx-by-ny grid of square cells, in the given memory order."""
    geo = geometry()
    spacing = 2.0 * half_width / (max(nx, ny) - 1)
    xs = -half_width + spacing * np.arange(nx)
    ys = -half_width + spacing * np.arange(ny)
    X, Y = np.meshgrid(xs, ys)
    values = sum(c * eval_lg(n, l, kind, geo, X, Y) for n, l, kind, c in terms)
    return ComplexField(nx, ny, (-half_width, -half_width), spacing, np.array(values, order=order))


SPLIT_TERMS = [(0, 2, "helical_plus", 1.0), (1, 1, "even", 0.4 + 0.3j), (0, 3, "helical_minus", 0.2j)]


class TestDenseOracle:
    """The sign-change-first search equals the whole-grid winding detector.

    The oracle polishes on numpy scalars with its own copy of the Newton
    iteration, so these also check the library's Python-complex polish.
    """

    @pytest.mark.parametrize("p, m", [(4, 2), (5, 3), (7, 5), (9, 1), (12, 6), (20, 10)])
    @pytest.mark.parametrize("eps", [0.05, 0.8, 2.0, 5.3, 30.0])
    def test_helical_fields(self, p, m, eps):
        for z in (0.0, 0.37):
            for sign in ("plus", "minus"):
                field = hig_field(ModeIndex(p, m, Parity.EVEN), eps, 256, sign, z)
                assert find_vortices(field) == dense_vortices(field), (z, sign)

    def test_real_field(self):
        geo = geometry()
        field = sample_grid(lambda x, y: eval_ig(M53, 2.0, geo, x, y), 6.0, 256)
        assert find_vortices(field) == dense_vortices(field) == []

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(
        st.integers(16, 64),
        st.floats(1.0, 6.0),
        st.lists(
            st.tuples(
                st.integers(0, 4),
                st.integers(0, 6),
                st.sampled_from(["even", "odd", "helical_plus", "helical_minus"]),
                st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_random_smooth_fields(self, resolution, half_width, terms):
        geo = geometry()
        coords = np.linspace(-half_width, half_width, resolution)
        X, Y = np.meshgrid(coords, coords)
        values = sum(c * eval_lg(n, l, kind if l else "even", geo, X, Y) for n, l, kind, c in terms)
        field = ComplexField(resolution, resolution, (-half_width, -half_width), coords[1] - coords[0], values)
        assert find_vortices(field) == dense_vortices(field)

    def test_fortran_ordered_field(self):
        c_field = lg_sum_field(96, 96, 3.0, SPLIT_TERMS)
        f_values = np.asfortranarray(c_field.values)
        assert f_values.flags.f_contiguous and not f_values.flags.c_contiguous
        f_field = ComplexField(96, 96, c_field.origin, c_field.spacing, f_values)
        found = find_vortices(f_field)
        assert len(found) >= 3
        assert found == find_vortices(c_field) == dense_vortices(f_field)

    @pytest.mark.parametrize("nx, ny", [(64, 37), (37, 64), (8, 9), (9, 8)])
    def test_non_square_grids(self, nx, ny):
        for order in ("C", "F"):
            field = lg_sum_field(nx, ny, 2.5, SPLIT_TERMS, order)
            assert find_vortices(field) == dense_vortices(field), order

    def test_non_square_transpose_swaps_coordinates(self):
        field = lg_sum_field(64, 37, 2.5, SPLIT_TERMS)
        flipped = ComplexField(37, 64, field.origin, field.spacing, field.values.T)
        found = find_vortices(field)
        assert len(found) >= 2
        # transposing x and y mirrors the phase, so the charges flip
        assert sorted((round(v.y, 9), round(v.x, 9), -v.charge) for v in found) == sorted(
            (round(v.x, 9), round(v.y, 9), v.charge) for v in find_vortices(flipped)
        )

    def test_exact_zero_corners(self):
        # zeros on a sample, on a cell edge and inside a cell of a grid through
        # the origin, where whole rows and columns of a quadrature are exact zeros
        coords = np.arange(-8, 9) * 0.25
        X, Y = np.meshgrid(coords, coords)
        z = X + 1j * Y
        counts = []
        for values in (z, z**2, (z - 0.125) * (z + 0.5 + 0.25j), z * np.conj(z - 0.375 - 0.125j)):
            field = ComplexField(17, 17, (-2.0, -2.0), 0.25, values)
            assert np.any(field.values == 0.0)
            found = find_vortices(field)
            assert found == dense_vortices(field)
            counts.append(len(found))
        # a zero on a sample fails the corner-amplitude floor; one on an edge or inside a cell is found
        assert counts == [0, 0, 1, 1]

    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(
        st.integers(2, 12).flatmap(
            lambda ny: st.integers(2, 12).flatmap(
                lambda nx: st.lists(
                    st.tuples(st.sampled_from([-1.0, 0.0, 1.0]), st.sampled_from([-1.0, 0.0, 1.0])),
                    min_size=nx * ny,
                    max_size=nx * ny,
                ).map(lambda cells: np.array([complex(*c) for c in cells]).reshape(ny, nx))
            )
        )
    )
    def test_candidate_mask_matches_per_quadrature_sign_change(self, values):
        expected = sign_change(values.real) & sign_change(values.imag)
        np.testing.assert_array_equal(_candidate_mask(values), expected)

    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(
        st.lists(
            st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
            min_size=4,
            max_size=4,
        )
    )
    def test_python_complex_polish_matches_numpy_scalar_polish(self, corners):
        as_numpy = [np.complex128(c) for c in corners]
        assert _bilinear_zero(*corners) == scalar_bilinear_zero(*as_numpy)

    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(
        st.lists(
            st.tuples(st.floats(-12.0, 3.0), st.floats(0.0, 2.0 * math.pi)),
            min_size=4,
            max_size=4,
        )
    )
    def test_real_arithmetic_polish_matches_complex_polish_over_magnitudes(self, corners):
        # corner magnitudes 1e-12 to 1e3 apart: the real and imaginary parts round as the complex products do
        values = [10.0**t * complex(math.cos(a), math.sin(a)) for t, a in corners]
        assert _bilinear_zero(*values) == scalar_bilinear_zero(*(np.complex128(c) for c in values))


def band_field(amplitudes, peak=1.0 + 1.0j):
    """A 16 x 16 field, zero but for a +1 vortex plaquette of corner amplitude a for each a, and one sample ``peak``.

    With the default peak the largest |Re| or |Im| is 1 and max|field| is
    sqrt(2), so the noise floor 1e-9 * max|field| is the top of the
    bracket (1e-9, 1e-9 sqrt(2)].
    """
    values = np.zeros((16, 16), dtype=complex)
    values[-1, -1] = peak
    for i, a in enumerate(amplitudes):
        iy, ix = 2 + 4 * i, 3
        values[iy, ix], values[iy, ix + 1], values[iy + 1, ix + 1], values[iy + 1, ix] = a, 1j * a, -a, -1j * a
    return ComplexField(16, 16, (0.0, 0.0), 1.0, values)


class TestNoiseFloorBracket:
    """Candidates are classified against 1e-9 * max(|Re|, |Im|) bounds; max|field| only inside them."""

    @pytest.fixture
    def exact_floors(self, monkeypatch):
        calls = []
        exact = vortex._noise_floor

        def counted(values):
            calls.append(values.shape)
            return exact(values)

        monkeypatch.setattr(vortex, "_noise_floor", counted)
        return calls

    def test_candidate_inside_the_bracket_takes_the_exact_floor(self, exact_floors):
        # 1.2e-9 lies between 1e-9 and the floor sqrt(2) * 1e-9; 1.4143e-9 just above the floor
        field = band_field([1.2e-9, 1.4143e-9])
        found = find_vortices(field)
        assert found == dense_vortices(field)
        assert [(v.charge, round(v.y - 0.5, 9)) for v in found] == [(1, 6.0)]
        assert exact_floors == [(16, 16)]

    def test_candidates_outside_the_bracket_are_decided_by_it(self, exact_floors):
        # 0.99e-9 below the bracket, 1.4143e-9 above it
        field = band_field([0.99e-9, 1.4143e-9])
        found = find_vortices(field)
        assert found == dense_vortices(field)
        assert [(v.charge, round(v.y - 0.5, 9)) for v in found] == [(1, 6.0)]
        assert exact_floors == []

    def test_subnormal_bracket_takes_the_exact_floor(self, exact_floors):
        # the floor is subnormal here, and rounds one step above the bracket's top: a corner
        # amplitude equal to it is noise, which the bracket alone would have kept
        peak = complex(1.114606111384117e-303, 1.114606111384117e-303)
        floor = 1e-9 * float(np.abs(band_field([], peak).values).max())
        assert floor > 1e-9 * math.sqrt(2.0) * peak.real * (1.0 + 1e-12)
        field = band_field([floor], peak)
        assert find_vortices(field) == dense_vortices(field) == []
        assert exact_floors == [(16, 16)]

    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(
        st.integers(8, 12).flatmap(
            lambda ny: st.integers(8, 12).flatmap(
                lambda nx: st.lists(
                    st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)), min_size=nx * ny, max_size=nx * ny
                ).map(lambda cells: np.array([complex(*c) for c in cells]).reshape(ny, nx))
            )
        ),
        st.floats(0.0, 1.0),
        st.sampled_from([1.0, -1.0, 1.0j, -1.0j]),
        st.integers(0, 10**6),
    )
    def test_fields_straddling_the_bracket_match_the_dense_detector(self, cells, ratio, turn, spot):
        # samples of order 1e-9 around one peak sample whose |Re|, |Im| are 1 and ``ratio``:
        # many corner amplitudes fall inside the bracket
        values = cells * 1e-9
        values.flat[spot % values.size] = turn * complex(1.0, ratio)
        ny, nx = values.shape
        field = ComplexField(nx, ny, (0.0, 0.0), 1.0, values)
        assert find_vortices(field) == dense_vortices(field)


class TestAllocation:
    @pytest.mark.parametrize("resolution", [256, 512])
    def test_traced_peak_is_at_most_half_the_field(self, resolution):
        field = hig_field(M53, 2.0, resolution, z=0.3)
        find_vortices(field)  # first-call allocations (caches, code) are not the search's
        tracemalloc.start()
        try:
            found = find_vortices(field)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(found) > 10
        assert peak <= field.values.nbytes // 2, (peak, field.values.nbytes)


class TestCensus:
    def test_unresolved_split_at_tiny_ellipticity(self):
        # the charge-2 vortex of LG(0, 2) splits into unit charges within a
        # couple of plaquettes of each other and of the axis
        results = vortex_census(M22, "plus", [1e-6], 512)
        eps, found = results[0]
        spacing = 2.0 * census_window(1.0, eps) / 511
        assert sum(v.charge for v in found) == 2
        assert max(math.hypot(a.x - b.x, a.y - b.y) for a in found for b in found) <= 2.0 * spacing
        centroid = (sum(v.x for v in found) / len(found), sum(v.y for v in found) / len(found))
        assert math.hypot(*centroid) < 2.0 * spacing

    def test_resolved_pair_at_moderate_ellipticity(self):
        results = vortex_census(M22, "plus", [2.0], 512)
        _, found = results[0]
        assert len(found) == 2
        assert all(v.charge == 1 for v in found)
        xs = sorted(v.x for v in found)
        # on-axis zeros of the even angular series, strictly inside the foci
        root = math.sqrt(5.0)
        expected = math.sqrt((1.0 + root - 2.0) / (2.0 * (1.0 + root)))
        assert abs(xs[1] - expected) < 1e-3
        assert abs(xs[0] + expected) < 1e-3

    def test_off_axis_count_non_decreasing_for_71(self):
        mode = ModeIndex(7, 1, Parity.EVEN)
        results = vortex_census(mode, "plus", [0.5, 2.0, 5.0, 10.0], 384)
        counts = []
        for eps, found in results:
            spacing = 2.0 * census_window(1.0, eps) / 383
            counts.append(sum(1 for v in found if abs(v.y) > spacing))
        assert counts == sorted(counts)

    def test_requires_helical_mode(self):
        with pytest.raises(InvalidModeError):
            vortex_census(ModeIndex(2, 0, Parity.EVEN), "plus", [1.0], 128)

    def test_one_number_is_not_an_eps_grid(self):
        with pytest.raises(InvalidModeError, match=r"ellipticity grid must be 1-D, got shape \(\)$"):
            vortex_census(M53, "plus", 2.0, 64)

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_ellipticity_outside_the_window_domain(self, eps):
        with pytest.raises(InvalidModeError, match="ellipticity"):
            vortex_census(M22, "plus", [eps], 64)
