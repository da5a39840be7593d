"""Self-contained correctness battery behind the ``verify`` subcommand.

Each check compares a measured quantity against an explicit threshold and
reports one line.  The battery crosses every analytic path in the package
against an independent one: ODE residuals for the eigenproblem, quadrature
overlaps of the elliptic-series fields for the expansion weights, Gram
matrices for the field normalizations, and limit anchors for the OAM
algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import beams, quantum, vortex
from .beams import BeamGeometry
from .ince import (
    ModeIndex,
    Parity,
    eval_angular,
    eval_radial,
    ince_ode_residual,
    solve_ince,
    valid_modes,
)
from .linalg import plane_quadrature_grid
from .quantum import LGIndex, QuantumModeState

GOLDEN_TURNING_POINT_73 = 1.933672
GOLDEN_TURNING_POINT_75 = 5.822778
GOLDEN_CROSSING_75_77 = 12.096803
GOLDEN_OAM_22_AT_2 = 1.70130161670408

IG22_NOTE = (
    "the circulated IG22 weight variant (1 - sqrt(1 - eps^2)) is imaginary for eps > 1; the "
    "quadrature oracle confirms (1 - sqrt(1 + eps^2)), consistent with the closed-form prefactor"
)


@dataclass
class CheckResult:
    name: str
    measured: float
    threshold: float
    passed: bool
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"[{status}] {self.name}: measured {self.measured:.6g} vs threshold {self.threshold:.6g}"
        if self.note:
            text += f"  ({self.note})"
        return text


@dataclass
class Report:
    level: str
    results: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def render(self) -> str:
        lines = [f"verification level: {self.level}", f"checks: {len(self.results)}"]
        lines += [r.line() for r in self.results]
        lines.append("overall: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines) + "\n"


def _geometry(waist: float = 1.0) -> BeamGeometry:
    return BeamGeometry(waist=waist, wavenumber=2.0 * math.pi)


def series_ig(mode: ModeIndex, ellipticity: float, geometry: BeamGeometry, x, y):
    """Unit-norm Ince-Gauss field from the elliptic-coordinate series.

    radial(xi) * angular(eta) * Gaussian envelope * order-p Gouy phase,
    normalized by a 160-node quadrature over 8 beam widths.  It shares no
    code with the LG expansion behind ``beams.eval_ig``, so it is the oracle
    for that expansion.  The radial cosh/sinh series cancels badly at high
    order and ellipticity; the battery uses it for p <= 8 and eps <= 5.
    Odd fields come out real because the factor i of the sine series at
    imaginary argument is dropped (it is a global phase).
    """
    poly = solve_ince(mode, ellipticity)
    semifocal = geometry.semifocal(ellipticity)

    def profile(x, y):
        point = beams.cartesian_to_elliptic(x, y, semifocal)
        envelope = beams.eval_gaussian(geometry, x, y)
        return eval_radial(poly, point.xi) * eval_angular(poly, point.eta) * envelope

    X, Y, W = plane_quadrature_grid(8.0 * geometry.width, 160)
    norm = math.sqrt(float(np.sum(np.abs(profile(X, Y)) ** 2 * W)))
    return profile(x, y) * np.exp(-1j * mode.p * geometry.gouy) / norm


def _quadrature_weights(mode: ModeIndex, eps: float, waist: float, nodes: int = 128):
    """Independent overlap-integral route to the LG weights."""
    geometry = _geometry(waist)
    X, Y, W = plane_quadrature_grid(8.0 * waist, nodes)
    ig = series_ig(mode, eps, geometry, X, Y)
    out = {}
    for index, _ in quantum.decompose(mode, eps).terms:
        lg = beams.eval_lg(index.n, index.l, mode.parity.value, geometry, X, Y)
        out[index] = float(np.sum(np.conj(lg) * ig * W).real)
    return out


def _pseudo_states(count: int):
    """Deterministic normalized states over the p <= 5 even/odd LG basis."""
    basis = []
    for p in range(6):
        for l in range(p % 2, p + 1, 2):
            n = (p - l) // 2
            basis.append(LGIndex(parity=Parity.EVEN, n=n, l=l))
            if l >= 1:
                basis.append(LGIndex(parity=Parity.ODD, n=n, l=l))
    states = []
    for k in range(count):
        amplitudes = {}
        for j, index in enumerate(basis):
            t = (k + 1) * 0.37 + (j + 1) * 1.13
            amplitudes[index] = complex(math.sin(2.9 * t), math.cos(1.7 * t + 0.4))
        scale = 1.0 / math.sqrt(sum(abs(c) ** 2 for c in amplitudes.values()))
        states.append(QuantumModeState({i: c * scale for i, c in amplitudes.items()}))
    return states


def run_checks(level: str = "fast") -> Report:
    if level not in ("fast", "full"):
        raise ValueError(f"unknown verification level {level!r}")
    full = level == "full"
    report = Report(level=level)
    add = report.results.append
    geometry = _geometry()

    # Ince ODE residuals, one check per ellipticity
    p_max = 12 if full else 7
    modes = valid_modes(p_max)
    for eps in (0.01, 0.5, 1.0, 2.0, 5.0, 10.0):
        worst = max(ince_ode_residual(solve_ince(mode, eps)) for mode in modes)
        add(CheckResult(f"ince-residual-p{p_max}-eps{eps:g}", worst, 1e-9, worst <= 1e-9))

    # harmonic decoupling at zero ellipticity
    worst = max(abs(solve_ince(mode, 0.0).eigenvalue - mode.m**2) for mode in valid_modes(12))
    add(CheckResult("eigenvalue-harmonic-limit", worst, 1e-10, worst <= 1e-10))

    # two-term closed form at eps = 0.5 under the confirmed sign variant
    eps = 0.5
    root = math.sqrt(1.0 + eps**2)
    denom = math.sqrt(2.0) * math.sqrt(1.0 + eps**2 - root)
    closed_form = {2: eps / denom, 0: (1.0 - root) / denom}
    computed = {i.l: d for i, d in quantum.decompose(ModeIndex(2, 2, Parity.EVEN), eps).terms}
    worst = max(abs(computed[l] - closed_form[l]) for l in closed_form)
    add(CheckResult("ig22-closed-form", worst, 1e-10, worst <= 1e-10, IG22_NOTE))

    # expansion weights against the overlap-integral oracle
    p_max = 8 if full else 5
    for eps in (0.5, 2.0, 5.0):
        worst = 0.0
        for mode in valid_modes(p_max):
            weights = dict(quantum.decompose(mode, eps).terms)
            oracle = _quadrature_weights(mode, eps, waist=1.0)
            worst = max(worst, max(abs(weights[i] - oracle[i]) for i in oracle))
        add(CheckResult(f"decomposition-overlap-p{p_max}-eps{eps:g}", worst, 1e-7, worst <= 1e-7))

    # IG orthonormality
    p_max = 6 if full else 4
    X, Y, W = plane_quadrature_grid(8.0, 128)
    fields = [beams.eval_ig(mode, 2.0, geometry, X, Y) for mode in valid_modes(p_max)]
    gram = np.array([[np.sum(np.conj(a) * b * W).real for b in fields] for a in fields])
    worst = float(np.max(np.abs(gram - np.eye(len(fields)))))
    add(CheckResult(f"ig-gram-identity-p{p_max}", worst, 1e-6, worst <= 1e-6))

    # LG orthonormality (oracle for the quadrature side itself)
    lg_set = []
    for p in range(5):
        for l in range(p % 2, p + 1, 2):
            lg_set.append(((p - l) // 2, l, "even"))
            if l >= 1:
                lg_set.append(((p - l) // 2, l, "odd"))
    lg_fields = [beams.eval_lg(n, l, parity, geometry, X, Y) for n, l, parity in lg_set]
    gram = np.array([[np.sum(np.conj(a) * b * W).real for b in lg_fields] for a in lg_fields])
    worst = float(np.max(np.abs(gram - np.eye(len(lg_fields)))))
    add(CheckResult("lg-gram-identity", worst, 1e-8, worst <= 1e-8))

    # elliptic coordinate round trip on a deterministic point cloud
    f0 = 0.8
    ts = np.arange(1, 24, dtype=float)
    xs = 3.0 * np.cos(2.1 * ts) * ts / 24.0
    ys = 3.0 * np.sin(1.3 * ts + 0.5) * ts / 24.0
    point = beams.cartesian_to_elliptic(xs, ys, f0)
    xb, yb = beams.elliptic_to_cartesian(point, f0)
    worst = float(np.max(np.hypot(xb - xs, yb - ys) / (1.0 + np.hypot(xs, ys))))
    add(CheckResult("elliptic-roundtrip", worst, 1e-12, worst <= 1e-12))

    # OAM limit anchors
    worst = max(
        abs(quantum.oam_expectation(quantum.helical_state(ModeIndex(p, 2, Parity.EVEN), "plus", 1e-6)) - 2.0)
        for p in (2, 4, 6, 8)
    )
    add(CheckResult("oam-limit-degree2", worst, 1e-5, worst <= 1e-5))
    worst = max(
        abs(quantum.oam_expectation(quantum.helical_state(ModeIndex(7, m, Parity.EVEN), "plus", 1e-6)) - m)
        for m in (1, 3, 5, 7)
    )
    add(CheckResult("oam-limit-order7", worst, 1e-5, worst <= 1e-5))

    # monotonicity of the extremal degree curves
    steps = 512 if full else 65
    grid = np.geomspace(0.01, 30.0, steps)
    curve77 = quantum.oam_curve(ModeIndex(7, 7, Parity.EVEN), "plus", grid)
    curve71 = quantum.oam_curve(ModeIndex(7, 1, Parity.EVEN), "plus", grid)
    worst = float(np.max(np.diff(curve77.oam)))
    add(CheckResult("oam-monotone-77-decreasing", worst, 0.0, worst < 0.0, "max consecutive increase"))
    worst = float(np.min(np.diff(curve71.oam)))
    add(CheckResult("oam-monotone-71-increasing", worst, 0.0, worst > 0.0, "min consecutive increase"))

    # turning points and crossing, against frozen locations
    dense = np.linspace(0.5, 12.0, 2001)
    for m, golden in ((3, GOLDEN_TURNING_POINT_73), (5, GOLDEN_TURNING_POINT_75)):
        curve = quantum.oam_curve(ModeIndex(7, m, Parity.EVEN), "plus", dense)
        points = quantum.find_turning_points(curve)
        measured = min((abs(e - golden) for e in points), default=math.inf)
        add(CheckResult(f"turning-point-7{m}", measured, 1e-3, measured <= 1e-3, f"golden eps {golden}"))
    dense = np.linspace(0.5, 16.0, 2001)
    curve_a = quantum.oam_curve(ModeIndex(7, 5, Parity.EVEN), "plus", dense)
    curve_b = quantum.oam_curve(ModeIndex(7, 7, Parity.EVEN), "plus", dense)
    crossings = quantum.find_crossings(curve_a, curve_b)
    measured = min((abs(e - GOLDEN_CROSSING_75_77) for e in crossings), default=math.inf)
    add(CheckResult("crossing-75x77", measured, 1e-3, measured <= 1e-3, f"golden eps {GOLDEN_CROSSING_75_77}"))

    # convergence toward the common helical-HG value; the gap decays ~ 1/eps
    gap200 = abs(
        quantum.oam_expectation(quantum.helical_state(ModeIndex(7, 7, Parity.EVEN), "plus", 200.0))
        - quantum.oam_expectation(quantum.helical_state(ModeIndex(7, 1, Parity.EVEN), "plus", 200.0))
    )
    add(CheckResult("hhg-convergence-eps200", gap200, 0.1, gap200 <= 0.1))
    gap1000 = abs(
        quantum.oam_expectation(quantum.helical_state(ModeIndex(7, 7, Parity.EVEN), "plus", 1000.0))
        - quantum.oam_expectation(quantum.helical_state(ModeIndex(7, 1, Parity.EVEN), "plus", 1000.0))
    )
    add(CheckResult("hhg-convergence-eps1000", gap1000, 0.02, gap1000 <= 0.02))

    # continuous, non-integer OAM at the frozen golden point
    value = quantum.oam_expectation(quantum.helical_state(ModeIndex(2, 2, Parity.EVEN), "plus", 2.0))
    measured = abs(value - GOLDEN_OAM_22_AT_2)
    inside = 1.05 < value < 1.95
    add(
        CheckResult(
            "oam-nonintegral-22",
            measured,
            1e-12,
            measured <= 1e-12 and inside,
            f"value {value!r}",
        )
    )

    # exact algebraic identities
    plus = quantum.oam_expectation(quantum.helical_state(ModeIndex(5, 3, Parity.EVEN), "plus", 1.7))
    minus = quantum.oam_expectation(quantum.helical_state(ModeIndex(5, 3, Parity.EVEN), "minus", 1.7))
    add(CheckResult("oam-sign-symmetry", abs(plus + minus), 0.0, plus + minus == 0.0))

    even_only = QuantumModeState(
        {i: complex(d) for i, d in quantum.decompose(ModeIndex(5, 3, Parity.EVEN), 2.0).terms}
    )
    add(
        CheckResult(
            "parity-state-zero-oam",
            abs(quantum.oam_expectation(even_only)),
            0.0,
            quantum.oam_expectation(even_only) == 0.0,
        )
    )

    count = 200
    worst = 0.0
    for state in _pseudo_states(count):
        moment = sum(l * p for l, p in quantum.oam_distribution(state).items())
        worst = max(worst, abs(moment - quantum.oam_expectation(state)))
    add(CheckResult(f"distribution-first-moment-n{count}", worst, 1e-12, worst <= 1e-12))

    # waist independence of the weights along the quadrature route
    worst = 0.0
    for mode in (ModeIndex(3, 1, Parity.EVEN), ModeIndex(4, 2, Parity.ODD)):
        a = _quadrature_weights(mode, 2.0, waist=1.0)
        b = _quadrature_weights(mode, 2.0, waist=1.6)
        worst = max(worst, max(abs(a[i] - b[i]) for i in a))
    add(CheckResult("waist-independence-quadrature", worst, 1e-9, worst <= 1e-9))

    # vortex structure of the reference helical mode
    resolution = 512 if full else 384
    geometry53 = _geometry()
    half_width = vortex.census_window(1.0, 2.0)
    field53 = beams.sample_grid(
        lambda x, y: beams.eval_hig(ModeIndex(5, 3, Parity.EVEN), "plus", 2.0, geometry53, x, y),
        half_width,
        resolution,
    )
    spacing = field53.spacing
    detections = vortex.find_vortices(field53)
    on_axis_plus = [v for v in detections if abs(v.y) < spacing and v.charge == 1]
    add(
        CheckResult(
            "vortex-onaxis-plus-count-53",
            float(len(on_axis_plus)),
            3.0,
            len(on_axis_plus) == 3,
            "charge-+1 singularities on the x axis",
        )
    )
    bad_charges = [v for v in detections if abs(v.charge) != 1]
    add(CheckResult("vortex-unit-charges-53", float(len(bad_charges)), 0.0, not bad_charges))
    real_modes = 0
    for parity in (Parity.EVEN, Parity.ODD):
        field = beams.sample_grid(
            lambda x, y: beams.eval_ig(ModeIndex(5, 3, parity), 2.0, geometry53, x, y),
            half_width,
            256,
        )
        real_modes += len(vortex.find_vortices(field))
    add(CheckResult("vortex-none-for-parity-modes", float(real_modes), 0.0, real_modes == 0))

    if full:
        # large-ellipticity convergence onto the Hermite-Gauss family
        X, Y, W = plane_quadrature_grid(8.0, 160)
        ig = beams.eval_ig(ModeIndex(2, 2, Parity.EVEN), 1e4, geometry, X, Y)
        hg = beams.eval_hg(2, 0, geometry, X, Y)
        overlap = abs(np.sum(np.conj(hg) * ig * W)) ** 2
        add(CheckResult("hg-limit-overlap-22", float(overlap), 0.999, overlap >= 0.999))

        # small-ellipticity pointwise convergence onto the LG family
        coords = np.linspace(-2.0, 2.0, 41)
        XS, YS = np.meshgrid(coords, coords)
        ig = beams.eval_ig(ModeIndex(3, 1, Parity.EVEN), 1e-4, geometry, XS, YS)
        lg = beams.eval_lg(1, 1, "even", geometry, XS, YS)
        worst = float(np.max(np.abs(ig - lg)))
        add(CheckResult("lg-limit-pointwise-31", worst, 1e-4, worst <= 1e-4))

        # vortex positions stable under grid refinement
        coarse = vortex.find_vortices(
            beams.sample_grid(
                lambda x, y: beams.eval_hig(ModeIndex(5, 3, Parity.EVEN), "plus", 2.0, geometry53, x, y),
                half_width,
                256,
            )
        )
        fine = detections
        coarse_spacing = 2.0 * half_width / 255
        worst = max(
            min(math.hypot(c.x - f.x, c.y - f.y) for f in fine if f.charge == c.charge)
            for c in coarse
        )
        add(CheckResult("vortex-resolution-stability", worst, coarse_spacing, worst <= coarse_spacing))

    return report
