"""Property tests of the LG expansion, the OAM algebra and the curve analysis.

Hypothesis draws admissible modes of order p <= 20 and log-uniform
ellipticities in [1e-3, 1e3], alone or as sorted grids, and synthetic
curve pairs whose samples tie and touch often; runs are derandomized, so
they repeat.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from elliptic_oam.ince import ModeIndex, Parity
from elliptic_oam.quantum import (
    OamCurve,
    decompose,
    find_crossings,
    find_turning_points,
    helical_state,
    oam_curve,
    oam_distribution,
    oam_expectation,
)

from oracles import loop_crossings, loop_turning_points

PROPERTY = settings(derandomize=True, deadline=None, database=None)
ELLIPTICITIES = st.floats(-3.0, 3.0).map(lambda t: 10.0**t)


@st.composite
def modes(draw, helical=False):
    """Admissible (p, m, parity): m = p mod 2, ..., p; odd parity and helical states need m >= 1."""
    p = draw(st.integers(1 if helical else 0, 20))
    m = draw(st.sampled_from([m for m in range(p % 2, p + 1, 2) if m >= 1 or not helical]))
    parity = draw(st.sampled_from([Parity.EVEN, Parity.ODD] if m >= 1 else [Parity.EVEN]))
    return ModeIndex(p, m, parity)


@PROPERTY
@given(modes(), ELLIPTICITIES)
def test_weights_are_normalized(mode, eps):
    assert abs(sum(d * d for _, d in decompose(mode, eps).terms) - 1.0) < 1e-12


@PROPERTY
@given(modes(helical=True), ELLIPTICITIES)
def test_oam_flips_sign_exactly(mode, eps):
    plus = oam_expectation(helical_state(mode, "plus", eps))
    minus = oam_expectation(helical_state(mode, "minus", eps))
    assert plus == -minus


@PROPERTY
@given(modes(helical=True), ELLIPTICITIES)
def test_oam_bounded_by_order(mode, eps):
    assert abs(oam_expectation(helical_state(mode, "plus", eps))) <= mode.p + 1e-12


@PROPERTY
@given(modes(helical=True), ELLIPTICITIES, st.sampled_from(["plus", "minus"]))
def test_oam_is_first_moment_of_distribution(mode, eps, sign):
    state = helical_state(mode, sign, eps)
    moment = sum(l * weight for l, weight in oam_distribution(state).items())
    assert abs(moment - oam_expectation(state)) < 1e-12


@PROPERTY
@given(
    modes(helical=True),
    st.lists(ELLIPTICITIES, min_size=1, max_size=12, unique=True),
    st.sampled_from(["plus", "minus"]),
)
def test_curve_is_the_pointwise_oam(mode, epsilons, sign):
    grid = sorted(epsilons)
    curve = oam_curve(mode, sign, grid)
    for eps, value in zip(grid, curve.oam):
        assert abs(value - oam_expectation(helical_state(mode, sign, eps))) < 1e-13


# few distinct values, so equal neighbours and exact zeros of a difference
# are common; any float now and then
SAMPLES = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 3.0]), st.floats(-1e3, 1e3))
STEPS = st.one_of(st.sampled_from([0.25, 1.0]), st.floats(1e-6, 10.0))


@st.composite
def curve_pairs(draw):
    """Two curves on one strictly increasing grid; b equals a at a random subset of samples."""
    size = draw(st.integers(0, 40))
    column = lambda elements: np.array(draw(st.lists(elements, min_size=size, max_size=size)), dtype=float)
    eps, a, other = np.cumsum(column(STEPS)), column(SAMPLES), column(SAMPLES)
    b = np.where(column(st.booleans()) == 1.0, a, other)
    mode = ModeIndex(1, 1, Parity.EVEN)
    return OamCurve(mode, None, eps, a), OamCurve(mode, None, eps, b)


def _bits(values):
    return [float(v).hex() for v in values]


@PROPERTY
@given(curve_pairs())
def test_curve_analysis_matches_the_per_sample_loops(pair):
    a, b = pair
    if a.epsilons.size >= 3:
        assert _bits(find_turning_points(a)) == _bits(loop_turning_points(a))
        assert _bits(find_turning_points(b)) == _bits(loop_turning_points(b))
    assert _bits(find_crossings(a, b)) == _bits(loop_crossings(a, b))
