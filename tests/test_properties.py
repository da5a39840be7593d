"""Property tests of the eigen kernel, rank labelling, LG expansion, OAM algebra and curve analysis.

Hypothesis draws stacks of symmetric tridiagonal matrices of dimension 1 to
12 with repeated diagonals and couplings of 0, 1e-170, 1e-13 and O(1),
admissible modes of order p <= 20 and log-uniform ellipticities in
[1e-3, 1e3] (in [1e-3, 50] for the rank labelling), alone or as sorted
grids, and synthetic curve pairs whose samples tie and touch often; runs
are derandomized, so they repeat.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from elliptic_oam import ince
from elliptic_oam.ince import ModeIndex, Parity
from elliptic_oam.linalg import eigen_tridiagonal
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


# repeated diagonals, and couplings that vanish, underflow when squared, sit at rounding or are O(1)
DIAGONALS = st.one_of(st.sampled_from([-2.0, 0.0, 0.5, 1.0, 3.0]), st.floats(-5.0, 5.0))
COUPLINGS = st.one_of(st.sampled_from([0.0, 1e-170, 1e-13, 1.0]), st.floats(0.01, 3.0))


@st.composite
def tridiagonal_stacks(draw):
    """Diagonals (N, d) and couplings (N, d - 1) of N symmetric tridiagonal matrices, and 1 to 3 ranks."""
    count, dimension = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    rows = lambda elements, size: [draw(st.lists(elements, min_size=size, max_size=size)) for _ in range(count)]
    diag = np.array(rows(DIAGONALS, dimension), dtype=float)
    coupling = np.array(rows(COUPLINGS, dimension - 1), dtype=float).reshape(count, dimension - 1)
    return diag, coupling, draw(st.lists(st.integers(0, dimension - 1), min_size=1, max_size=3))


def sturm_negatives(diag, coupling, value, first):
    """Parity of the negative terms among q_0 ... q_(first - 1) at ``value``; None if one is near 0.

    q_0 = value - diag[0], q_i = value - diag[i] - coupling[i - 1]^2 / q_(i - 1), in Python floats;
    entry ``first`` of the eigenvector has the sign of entry 0 times -1 to that parity.
    """
    odd, q = False, 1.0
    for i in range(first):
        q = value - diag[i] - (coupling[i - 1] ** 2 / q if i else 0.0)
        if abs(q) < 1e-8:
            return None
        odd ^= q < 0.0
    return odd


@PROPERTY
@given(tridiagonal_stacks())
def test_eigen_kernel_matches_eigh_and_the_sturm_rule(stack):
    # np.linalg.eigh, the oracle, errs by about eps (1 + |T|) / gap, as the kernel does, whose
    # guard and residual bound take the same scale 1 + max|lambda|; the largest ratio to that
    # over 20000 random stacks like these was 3.4
    diag, coupling, ranks = stack
    values, vectors = eigen_tridiagonal(diag, coupling, ranks)
    for i in range(diag.shape[0]):
        one_values, one_vectors = eigen_tridiagonal(diag[i : i + 1], coupling[i : i + 1], ranks)
        assert np.array_equal(one_values[0], values[i]) and np.array_equal(one_vectors[0], vectors[i])
        symmetric = np.diag(diag[i]) + np.diag(coupling[i], 1) + np.diag(coupling[i], -1)
        oracle_values, oracle_vectors = np.linalg.eigh(symmetric)
        scale = 1.0 + np.max(np.abs(oracle_values))
        for column, rank in enumerate(ranks):
            vector = vectors[i, :, column]
            assert not np.signbit(vector[0])  # entry 0 is positive or +0.0
            # a repeated eigenvalue has no one vector to compare
            gap = np.min(np.abs(np.delete(oracle_values, rank) - oracle_values[rank]), initial=math.inf)
            if gap > 0.0:
                oracle = oracle_vectors[:, rank] * math.copysign(1.0, oracle_vectors[:, rank] @ vector)
                assert np.max(np.abs(vector - oracle)) <= 16.0 * np.finfo(float).eps * scale / gap
            first = int(np.argmax(np.abs(vector) > 1e-8))
            odd = sturm_negatives(diag[i], coupling[i], values[i, rank], first)
            if odd is not None:
                assert (vector[first] < 0.0) == odd


@PROPERTY
@given(modes(), st.floats(-3.0, np.log10(50.0)).map(lambda t: 10.0**t))
def test_rank_labelling_is_continuous_in_eps(mode, eps):
    # a 1 % step in eps moves the labelled Fourier vector a little, never onto
    # another rank's vector or its negative; the least overlap on a grid of
    # such steps over p <= 20 was 0.99975
    near, far = ince._fourier_polynomials(mode, [eps, 1.01 * eps])
    assert float(near.fourier @ far.fourier) > 0.99


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
