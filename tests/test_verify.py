"""The verify battery's quadrature oracle: the shared-frame route against its per-mode reference.

The battery builds one elliptic frame per (eps, waist) and one LG table per
waist; ``oracles.per_mode_quadrature_weights`` and
``oracles.per_mode_series_ig`` build everything afresh for every mode.  The
two must agree bit for bit, and the battery must not fall back to
per-mode work unnoticed.
"""

from collections import Counter

import numpy as np
import pytest

from elliptic_oam import beams, ince, linalg, quantum, verify
from elliptic_oam.ince import ModeIndex, Parity, solve_ince, valid_modes

from oracles import geometry, per_mode_quadrature_weights, per_mode_series_ig


def _bits(weights):
    return [(l, np.float64(d).view(np.int64)) for l, d in weights.items()]


class TestSharedQuadratureRoute:
    @pytest.mark.parametrize("waist", [1.0, 1.6])
    @pytest.mark.parametrize("eps", [0.5, 2.0, 5.0])
    def test_batch_weights_equal_per_mode_reference(self, eps, waist):
        modes = valid_modes(5)
        batch = verify._overlap_weights([solve_ince(mode, eps) for mode in modes], verify._QuadraturePlane(waist))
        for mode, weights in zip(modes, batch):
            assert _bits(weights) == _bits(per_mode_quadrature_weights(mode, eps, waist)), mode

    def test_one_mode_case_equals_per_mode_reference(self):
        mode = ModeIndex(7, 3, Parity.ODD)
        assert _bits(verify.quadrature_weights(mode, 2.0, waist=1.3)) == _bits(
            per_mode_quadrature_weights(mode, 2.0, 1.3)
        )

    @pytest.mark.parametrize("z", [0.0, 0.8])
    def test_series_ig_unchanged_at_arbitrary_points(self, z):
        geo = geometry(waist=1.3, z=z)
        t = np.arange(1.0, 40.0)
        x, y = 2.5 * np.cos(2.3 * t) * t / 40.0, 2.5 * np.sin(1.1 * t + 0.3) * t / 40.0
        for mode in (ModeIndex(2, 2, Parity.EVEN), ModeIndex(5, 3, Parity.ODD), ModeIndex(6, 0, Parity.EVEN)):
            new, old = verify.series_ig(mode, 1.7, geo, x, y), per_mode_series_ig(mode, 1.7, geo, x, y)
            assert new.view(np.int64).tolist() == old.view(np.int64).tolist()
        scalar = verify.series_ig(ModeIndex(3, 1, Parity.EVEN), 0.4, geo, 0.3, -0.2)
        assert scalar == per_mode_series_ig(ModeIndex(3, 1, Parity.EVEN), 0.4, geo, 0.3, -0.2)

    @pytest.mark.parametrize("waist", [1.0, 1.6])
    def test_waist_lg_fields_are_real(self, waist):
        # the plane keeps only the real part of each LG field
        plane = verify._QuadraturePlane(waist)
        for p in range(6):
            for l in range(p % 2, p + 1, 2):
                for parity in ("even", "odd") if l else ("even",):
                    field = beams.eval_lg((p - l) // 2, l, parity, plane.geometry, plane.X, plane.Y)
                    assert not np.any(field.imag), (p, l, parity)

    def test_waist_ig_fields_are_real(self):
        # the IG Gram check keeps only the real part of each field, at both levels' orders
        plane = verify._QuadraturePlane(1.0)
        for mode in valid_modes(6):
            assert not np.any(beams.eval_ig(mode, 2.0, plane.geometry, plane.X, plane.Y).imag), mode

    def test_gram_lines_follow_the_overlap_lines(self):
        # the LG Gram matrix is taken first, to release the LG table, but the report keeps its order
        names = [r.name for r in verify.run_checks("fast").results]
        start = names.index("decomposition-overlap-p5-eps0.5")
        assert names[start : start + 5] == [
            "decomposition-overlap-p5-eps0.5",
            "decomposition-overlap-p5-eps2",
            "decomposition-overlap-p5-eps5",
            "ig-gram-identity-p4",
            "lg-gram-identity",
        ]


@pytest.fixture
def calls(monkeypatch):
    """A counter of calls, and ``calls.watch(module, name)`` to count the calls of one function."""
    counter = Counter()

    def watch(module, name):
        function = getattr(module, name)

        def wrapper(*args, **kwargs):
            counter[name] += 1
            return function(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counter.watch = watch
    return counter


class TestBatteryWork:
    def test_fast_battery_shares_frames_and_lg_table(self, calls):
        # a frame and LG fields per mode would call cartesian_to_elliptic 135 times and eval_lg 164 times
        calls.watch(verify, "cartesian_to_elliptic")
        calls.watch(beams, "eval_lg")
        calls.watch(ince, "_fourier_polynomials")
        calls.watch(quantum, "decompose")
        assert verify.run_checks("fast").ok
        # two per (eps, waist) frame, four frames, and the round trip
        assert calls["cartesian_to_elliptic"] <= 9
        # 21 LG fields of order <= 5 at waist 1, and 4 at waist 1.6
        assert calls["eval_lg"] <= 25
        # one table for the whole battery: the 91 modes of order <= 12, each solved once
        # (a solve per (mode, eps) made 372, and one table per section 112)
        assert calls["_fourier_polynomials"] <= 91
        # the overlap check reads one weight stack per mode; decompose serves only the
        # ig22 closed form and the parity state (a call per (mode, eps) made 65)
        assert calls["decompose"] <= 2

    def test_full_battery_solves_each_mode_once_per_section(self, calls):
        # the 91 modes of order <= 12 serve the residual and the overlap checks alike
        calls.watch(ince, "_fourier_polynomials")
        calls.watch(quantum, "decompose")
        verify.run_checks("full")
        assert calls["_fourier_polynomials"] <= 91
        assert calls["decompose"] <= 2

    def test_flipped_expansion_sign_fails_every_overlap_check(self, monkeypatch):
        # the oracle must not read the weights it checks, or a sign error would pass it
        original = quantum._expansion_sign
        monkeypatch.setattr(quantum, "_expansion_sign", lambda n, l, p, m: -original(n, l, p, m))
        failing = {r.name for r in verify.run_checks("fast").results if not r.passed}
        assert {f"decomposition-overlap-p5-eps{eps:g}" for eps in (0.5, 2.0, 5.0)} <= failing


class TestFaultsCaught:
    """Faults injected one at a time into the analytic paths; each must fail exactly the rows that read it."""

    @staticmethod
    def failing(monkeypatch, module, name, fault):
        monkeypatch.setattr(module, name, fault)
        return {r.name for r in verify.run_checks("fast").results if not r.passed}

    def test_turning_point_at_the_middle_sample(self, monkeypatch):
        fault = lambda x0, x1, x2, y0, y1, y2: x1  # the grid sample nearest the extremum, unrefined
        assert self.failing(monkeypatch, quantum, "_parabolic_vertex", fault) == {
            "turning-point-73",
            "turning-point-75",
        }

    def test_crossing_at_the_next_sample(self, monkeypatch):
        original = quantum.find_crossings

        def fault(a, b):  # the sample after each crossing, uninterpolated
            return a.epsilons[np.searchsorted(a.epsilons, original(a, b), side="right")].tolist()

        assert self.failing(monkeypatch, quantum, "find_crossings", fault) == {"crossing-75x77"}

    def test_odd_hg_coefficients_negated(self, monkeypatch):
        original = ince._hg_coefficients

        def fault(mode, sign, epsilons):  # the odd block negated: an odd field, or a helical field's imaginary part
            coefficients = original(mode, sign, epsilons)
            return coefficients.conj() if sign is not None else coefficients if mode.is_even else -coefficients

        monkeypatch.setattr(beams, "_hg_coefficients", fault)
        assert self.failing(monkeypatch, ince, "_hg_coefficients", fault) == {
            "decomposition-overlap-p5-eps0.5",
            "decomposition-overlap-p5-eps2",
            "decomposition-overlap-p5-eps5",
            "hg-block-vs-lg-pencil-p12",
            "vortex-onaxis-plus-count-53",
        }

    def test_hermite_row_2_negated(self, monkeypatch):
        original = beams._hermite_rows

        def fault(order, u):
            rows = original(order, u)
            rows[2:3] *= -1.0
            return rows

        assert self.failing(monkeypatch, beams, "_hermite_rows", fault) == {
            "decomposition-overlap-p5-eps0.5",
            "decomposition-overlap-p5-eps2",
            "decomposition-overlap-p5-eps5",
            "vortex-onaxis-plus-count-53",
        }

    def test_sturm_sign_rule_inverted(self, monkeypatch):
        # only the whole-array passes read the rule through _sturm_flips; the Python-float loop reads the bit itself
        original = linalg._sturm_flips
        fault = lambda vector: ~original(vector)
        assert self.failing(monkeypatch, linalg, "_sturm_flips", fault) == {"hg-block-vs-lg-pencil-p12"}
