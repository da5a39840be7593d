"""Self-contained correctness battery behind the ``verify`` subcommand.

Each check compares a measured quantity against an explicit threshold and
reports one line.  The battery crosses every analytic path in the package
against an independent one: ODE residuals for the eigenproblem, quadrature
overlaps of the elliptic-series fields for the expansion weights, the LG
pencil's weights through the LG -> HG table ``_lg_to_hg``, which no field
reads, for the fields' HG-block coefficients ``ince._hg_coefficients``
(order <= 12, or 40 at ``full``, eps from 1e-3 to 1e6), Gram matrices for
the field normalizations, and limit anchors for the OAM algebra.

One table serves the battery: each mode solved once over all its eps by
``ince._fourier_polynomials``, its LG weights read off one
``quantum._ladder_weights`` stack; no check builds the dense
``TridiagonalMatrix`` of ``ince.build_recurrence_matrix``, both kept for
the benchmark and the tests only.  The quadrature oracle computes nothing
per mode that does not depend on the mode.  One elliptic frame per
(eps, waist), the elliptic coordinates and Gaussian envelopes of the
128-node overlap grid and of the 160-node norm grid, serves every mode of
that eps; one table of LG fields per waist serves every eps, and the LG
Gram check reads its fields from it too.  That table is released before
the IG Gram fields are built, so the battery holds one full-size table of
fields at a time, and its memory is set by the overlap frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import beams, ince, quantum, vortex
from .beams import BeamGeometry
from .ince import (
    ModeIndex,
    Parity,
    eval_angular,
    eval_radial,
    ince_ode_residual,
    series_harmonics,
    solve_ince,
    valid_modes,
)
from .linalg import eigen_tridiagonal, plane_quadrature_grid
from .quantum import QuantumModeState

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
    floor: float = 0.0  # a measured value below it is rounding noise, printed as "< floor"

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        measured = f"< {self.floor:g}" if abs(self.measured) < self.floor else f"{self.measured:.6g}"
        text = f"[{status}] {self.name}: measured {measured} vs threshold {self.threshold:.6g}"
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


@dataclass(frozen=True)
class EllipticPoint:
    """Elliptic coordinates with xi >= 0 and eta wrapped to [0, 2*pi)."""

    xi: float
    eta: float


def cartesian_to_elliptic(x, y, semifocal: float) -> EllipticPoint:
    """Invert x = f cosh(xi) cos(eta), y = f sinh(xi) sin(eta).

    Uses the complex arccosh branch with xi >= 0, so it is stable near the
    foci and the inter-focal segment; round-trips to 1e-12 relative.
    Scalar inputs yield scalar fields.
    """
    if semifocal <= 0.0:
        raise ValueError(f"semifocal separation must be positive, got {semifocal}")
    w = np.asarray(np.asarray(x, dtype=float) + 1j * np.asarray(y, dtype=float))
    w /= semifocal
    zeta = np.arccosh(w, out=w)
    xi = np.abs(zeta.real)
    eta = np.mod(zeta.imag, 2.0 * np.pi)
    if np.ndim(xi) == 0:
        return EllipticPoint(xi=float(xi), eta=float(eta))
    return EllipticPoint(xi=xi, eta=eta)


def elliptic_to_cartesian(point: EllipticPoint, semifocal: float):
    x = semifocal * np.cosh(point.xi) * np.cos(point.eta)
    y = semifocal * np.sinh(point.xi) * np.sin(point.eta)
    return x, y


def _series_fields(polys, geometry: BeamGeometry, x, y):
    """Yield the unit-norm series field of each Ince polynomial, all of one eps, at (x, y), one at a time.

    The elliptic frame is built once for all the polynomials: the elliptic
    coordinates and Gaussian envelope of the points and of the 160-node
    norm grid.  Each polynomial then pays only for its series values and
    its norm.
    """
    semifocal = geometry.semifocal(polys[0].ellipticity)
    X, Y, W = plane_quadrature_grid(8.0 * geometry.width, 160)
    grid_point, grid_envelope = cartesian_to_elliptic(X, Y, semifocal), beams.eval_gaussian(geometry, X, Y)
    point, envelope = cartesian_to_elliptic(x, y, semifocal), beams.eval_gaussian(geometry, x, y)

    def profile(poly, at, envelope):
        return eval_radial(poly, at.xi) * eval_angular(poly, at.eta) * envelope

    for poly in polys:
        norm = math.sqrt(float(np.sum(np.abs(profile(poly, grid_point, grid_envelope)) ** 2 * W)))
        yield profile(poly, point, envelope) * np.exp(-1j * poly.mode.p * geometry.gouy) / norm


def series_ig(mode: ModeIndex, ellipticity: float, geometry: BeamGeometry, x, y):
    """Unit-norm Ince-Gauss field from the elliptic-coordinate series.

    radial(xi) * angular(eta) * Gaussian envelope * order-p Gouy phase,
    normalized by a 160-node quadrature over 8 beam widths.  It shares no
    code with the LG expansion of ``quantum.decompose`` or the HG block
    coefficients behind ``beams.eval_ig``, so it is the oracle for both.
    The radial cosh/sinh series cancels badly at high order and
    ellipticity; the battery uses it for p <= 8 and eps <= 5.
    Odd fields come out real because the factor i of the sine series at
    imaginary argument is dropped (it is a global phase).  This is the
    one-mode case of the battery's route, which builds the elliptic frame
    and the 160-node norm grid once for all the modes of one eps and waist.
    """
    return next(_series_fields([solve_ince(mode, ellipticity)], geometry, x, y))


class _QuadraturePlane:
    """The 128-node overlap grid on [-8 w0, 8 w0]^2 at the waist, and its LG fields.

    The LG fields do not depend on the ellipticity, so one plane serves
    every eps of its waist; each (n, l, parity) field is evaluated on first
    use and kept.  At the waist every LG field is real to the last bit, so
    only its real part is kept: half the memory, and the same overlaps.
    """

    def __init__(self, waist: float):
        self.geometry = _geometry(waist)
        self.X, self.Y, self.W = plane_quadrature_grid(8.0 * waist, 128)
        self._lg = {}

    def lg(self, n: int, l: int, parity: str) -> np.ndarray:
        key = (n, l, parity)
        if key not in self._lg:
            self._lg[key] = beams.eval_lg(n, l, parity, self.geometry, self.X, self.Y).real.copy()
        return self._lg[key]


def _overlap_weights(polys, plane: _QuadraturePlane):
    """LG weights {l: D} of each polynomial's mode, all of one eps, by overlap quadrature in one frame."""
    out = []
    for poly, ig in zip(polys, _series_fields(polys, plane.geometry, plane.X, plane.Y)):
        mode = poly.mode
        out.append(
            {
                l: float(np.sum(plane.lg((mode.p - l) // 2, l, mode.parity.value) * ig * plane.W).real)
                for l in series_harmonics(mode)[::-1].tolist()
            }
        )
    return out


def quadrature_weights(mode: ModeIndex, eps: float, waist: float = 1.0):
    """Independent overlap-integral route to the LG weights."""
    return _overlap_weights([solve_ince(mode, eps)], _QuadraturePlane(waist))[0]


def ig22_closed_form(eps: float) -> dict:
    """Closed-form LG weights {l: D} of IG(2,2,even) under the confirmed sign variant."""
    root = math.sqrt(1.0 + eps**2)
    denom = math.sqrt(2.0) * math.sqrt(1.0 + eps**2 - root)
    return {2: eps / denom, 0: (1.0 - root) / denom}


def _helical_oam(p: int, m: int, eps: float, sign: str = "plus") -> float:
    """<Lz> of the helical state of the Ince-Gauss modes (p, m) at eps."""
    return quantum.oam_expectation(quantum.helical_state(ModeIndex(p, m, Parity.EVEN), sign, eps))


def _pseudo_states(count: int):
    """Deterministic normalized states over the p <= 5 even/odd LG basis."""
    n, l = np.array([((p - l) // 2, l) for p in range(6) for l in range(p % 2, p + 1, 2)]).T
    # basis index j = 1, 2, ... of each (even, odd) amplitude, row by row
    j = np.arange(1, 2 * n.size + 1).reshape(-1, 2)
    states = []
    for k in range(count):
        t = (k + 1) * 0.37 + j * 1.13
        amplitudes = np.sin(2.9 * t) + 1j * np.cos(1.7 * t + 0.4)
        amplitudes[l == 0, 1] = 0.0
        amplitudes /= np.linalg.norm(amplitudes)
        states.append(QuantumModeState(n, l, amplitudes[:, 0], amplitudes[:, 1]))
    return states


def _lg_to_hg(order: int) -> np.ndarray:
    """Real orthogonal T with LG_j = sum_k T[k, j] HG_(k, order - k), from the eigenvectors of L_z.

    Column (order + l) / 2 is the even (cos) LG mode of charge l >= 0 and
    column (order - l) / 2 the odd (sin) one, of radial number
    n = (order - l) / 2; HG_(k, order - k) has k quanta along x.  In the
    basis (-i)^k HG_(k, order - k), L_z is the real symmetric tridiagonal
    matrix with zero diagonal and couplings sqrt((k + 1)(order - k))
    (Beijersbergen et al., Opt. Commun. 96, 123 (1993)).  Its eigenvalues
    are -order, -order + 2, ..., order, all 2 apart, so the eigen kernel
    gives the eigenvectors u to about ``order`` ulp, each signed so that
    entry 0 is positive by the Sturm sequence (every coupling is positive).  The helical LG mode of charge
    +-l is then (-1)^n sum_k u_k i^(+-(l - k)) HG_k, from the ladder
    operators, the (-1)^n being the sign of the leading coefficient of
    L_n^l.  So the cos and sin modes are (-1)^n sqrt(2) cos((l - k) pi / 2) u_k
    and (-1)^n sqrt(2) sin((l - k) pi / 2) u_k, real, each on the k of one
    parity; at l = 0 the sqrt(2) drops out.
    """
    k = np.arange(order + 1)
    charge = np.abs(2 * k - order)
    coupling = np.sqrt(k[1:] * (order + 1.0 - k[1:]))
    # the eigenvalues ascend, -order + 2 j at rank j: rank (order + l) / 2 is u of eigenvalue l
    u = eigen_tridiagonal(np.zeros((1, order + 1)), coupling[None], (order + charge) // 2)[1][0]
    # cos(d pi / 2) for d = (l - k) mod 4; in the odd columns sin(d pi / 2) = cos((d - 1) pi / 2)
    pattern = np.array([1.0, 0.0, -1.0, 0.0])[(charge - k[:, None] - (2 * k < order)) % 4]
    scale = np.where((order - charge) // 2 % 2, -1.0, 1.0) * np.where(charge, math.sqrt(2.0), 1.0)
    return u * pattern * scale


def _pencil_gap(order: int, epsilons: np.ndarray) -> float:
    """Largest |C| difference of two routes to the HG coefficients of the modes of one order, over an eps grid.

    One route takes each mode's LG weights of the Ince pencil (one ``quantum._ladder_weights`` stack) to the
    HG modes by the order's ``_lg_to_hg`` table, built once; the other reads them off the HG block
    (``ince._hg_coefficients``), as the fields do.  The two pencils share only the kernel.
    """
    transform, worst = _lg_to_hg(order), 0.0
    for mode in (mode for mode in valid_modes(order) if mode.p == order):
        charges, weights = quantum._ladder_weights(mode, epsilons)
        columns = (order + charges) // 2 if mode.is_even else (order - charges) // 2
        lg_route = weights @ transform[:, columns].T
        worst = max(worst, float(np.max(np.abs(lg_route - ince._hg_coefficients(mode, None, epsilons).real))))
    return worst


def _quadrature_checks(table: dict, grid: tuple, full: bool):
    """The overlap-oracle and Gram checks on one waist-1 plane, and the waist-independence check.

    The polynomials are column ``grid.index(eps)`` of ``run_checks``' table, and the weights they
    check one ``quantum._ladder_weights`` stack per mode over the overlap eps.  One full-size table
    is alive at a time: the plane's LG table serves those eps and then the LG Gram matrix, and is
    released before the IG Gram fields are built, which are kept as their real parts.  The report
    keeps its order, the IG Gram line before the LG one.  The waist-independence check reuses the
    eps-2 polynomials and weights of the overlap check and evaluates its two modes at waist 1.6 in
    one frame.
    """
    results = []
    plane = _QuadraturePlane(1.0)
    X, Y, W = plane.X, plane.Y, plane.W

    # expansion weights against the overlap-integral oracle
    p_max = 8 if full else 5
    modes, epsilons = valid_modes(p_max), (0.5, 2.0, 5.0)
    ladders = [quantum._ladder_weights(mode, epsilons)[1] for mode in modes]
    for column, eps in enumerate(epsilons):
        oracles = _overlap_weights([table[mode][grid.index(eps)] for mode in modes], plane)
        worst = max(
            abs(d - o) for weights, oracle in zip(ladders, oracles) for d, o in zip(weights[column], oracle.values())
        )
        if eps == 2.0:
            at_waist_1 = dict(zip(modes, oracles))
        results.append(CheckResult(f"decomposition-overlap-p{p_max}-eps{eps:g}", worst, 1e-7, worst <= 1e-7))

    # LG orthonormality (oracle for the quadrature side itself), read off the table the overlaps filled,
    # which is then released: the IG fields below are not built beside it
    lg_fields = [
        plane.lg((p - l) // 2, l, parity)
        for p in range(5)
        for l in range(p % 2, p + 1, 2)
        for parity in (("even", "odd") if l else ("even",))
    ]
    gram = np.array([[np.sum(a * b * W) for b in lg_fields] for a in lg_fields])
    worst = float(np.max(np.abs(gram - np.eye(len(lg_fields)))))
    lg_gram = CheckResult("lg-gram-identity", worst, 1e-8, worst <= 1e-8)
    geometry = plane.geometry
    del plane, lg_fields

    # IG orthonormality; at the waist every IG field is real, as every LG field is, so only its real part is kept
    p_max = 6 if full else 4
    fields = [beams.eval_ig(mode, 2.0, geometry, X, Y).real.copy() for mode in valid_modes(p_max)]
    gram = np.array([[np.sum(a * b * W) for b in fields] for a in fields])
    worst = float(np.max(np.abs(gram - np.eye(len(fields)))))
    results.append(CheckResult(f"ig-gram-identity-p{p_max}", worst, 1e-6, worst <= 1e-6))
    results.append(lg_gram)

    # waist independence of the weights along the quadrature route
    worst = 0.0
    pair = (ModeIndex(3, 1, Parity.EVEN), ModeIndex(4, 2, Parity.ODD))
    at_waist_16 = _overlap_weights([table[mode][grid.index(2.0)] for mode in pair], _QuadraturePlane(1.6))
    for mode, b in zip(pair, at_waist_16):
        a = at_waist_1[mode]
        worst = max(worst, max(abs(a[i] - b[i]) for i in a))
    # the two routes agree to a few ulp; printing that noise would make the
    # report move with every last-bit change of the field kernels
    return results, CheckResult("waist-independence-quadrature", worst, 1e-9, worst <= 1e-9, floor=1e-14)


def run_checks(level: str = "fast") -> Report:
    if level not in ("fast", "full"):
        raise ValueError(f"unknown verification level {level!r}")
    full = level == "full"
    report = Report(level=level)
    add = report.results.append
    geometry = _geometry()

    # one solve per mode for the whole battery: eps 0 for the harmonic limit, the rest up to order p_max
    p_max, grid = (12 if full else 7), (0.0, 0.01, 0.5, 1.0, 2.0, 5.0, 10.0)
    table = {mode: ince._fourier_polynomials(mode, grid if mode.p <= p_max else grid[:1]) for mode in valid_modes(12)}

    # Ince ODE residuals, one check per ellipticity
    for column, eps in enumerate(grid[1:], 1):
        worst = max(ince_ode_residual(table[mode][column]) for mode in valid_modes(p_max))
        add(CheckResult(f"ince-residual-p{p_max}-eps{eps:g}", worst, 1e-9, worst <= 1e-9))

    # harmonic decoupling at zero ellipticity
    worst = max(abs(polys[0].eigenvalue - mode.m**2) for mode, polys in table.items())
    add(CheckResult("eigenvalue-harmonic-limit", worst, 1e-10, worst <= 1e-10))

    # two-term closed form at eps = 0.5 under the confirmed sign variant
    computed = dict(quantum.decompose(ModeIndex(2, 2, Parity.EVEN), 0.5).terms)
    worst = max(abs(computed[l] - d) for l, d in ig22_closed_form(0.5).items())
    add(CheckResult("ig22-closed-form", worst, 1e-10, worst <= 1e-10, IG22_NOTE))

    # the LG pencil's weights through the LG -> HG table against the HG block, far past the quadrature oracle
    p_max = 40 if full else 12
    worst = max(_pencil_gap(order, np.geomspace(1e-3, 1e6, 10)) for order in range(p_max + 1))
    add(CheckResult(f"hg-block-vs-lg-pencil-p{p_max}", worst, 1e-13, worst <= 1e-13, floor=1e-14))

    overlap_results, waist_result = _quadrature_checks(table, grid, full)
    report.results.extend(overlap_results)

    # elliptic coordinate round trip on a deterministic point cloud
    f0 = 0.8
    ts = np.arange(1, 24, dtype=float)
    xs = 3.0 * np.cos(2.1 * ts) * ts / 24.0
    ys = 3.0 * np.sin(1.3 * ts + 0.5) * ts / 24.0
    point = cartesian_to_elliptic(xs, ys, f0)
    xb, yb = elliptic_to_cartesian(point, f0)
    worst = float(np.max(np.hypot(xb - xs, yb - ys) / (1.0 + np.hypot(xs, ys))))
    add(CheckResult("elliptic-roundtrip", worst, 1e-12, worst <= 1e-12))

    # OAM limit anchors
    worst = max(abs(_helical_oam(p, 2, 1e-6) - 2.0) for p in (2, 4, 6, 8))
    add(CheckResult("oam-limit-degree2", worst, 1e-5, worst <= 1e-5))
    worst = max(abs(_helical_oam(7, m, 1e-6) - m) for m in (1, 3, 5, 7))
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
    for eps, bound in ((200.0, 0.1), (1000.0, 0.02)):
        gap = abs(_helical_oam(7, 7, eps) - _helical_oam(7, 1, eps))
        add(CheckResult(f"hhg-convergence-eps{eps:g}", gap, bound, gap <= bound))

    # continuous, non-integer OAM at the frozen golden point
    value = _helical_oam(2, 2, 2.0)
    measured, inside = abs(value - GOLDEN_OAM_22_AT_2), 1.05 < value < 1.95
    add(CheckResult("oam-nonintegral-22", measured, 1e-12, measured <= 1e-12 and inside, f"value {value!r}"))

    # exact algebraic identities
    plus, minus = _helical_oam(5, 3, 1.7), _helical_oam(5, 3, 1.7, "minus")
    add(CheckResult("oam-sign-symmetry", abs(plus + minus), 0.0, plus + minus == 0.0))

    value = quantum.oam_expectation(quantum._parity_state(quantum.decompose(ModeIndex(5, 3, Parity.EVEN), 2.0)))
    add(CheckResult("parity-state-zero-oam", abs(value), 0.0, value == 0.0))

    count = 200
    worst = 0.0
    for state in _pseudo_states(count):
        moment = sum(l * p for l, p in quantum.oam_distribution(state).items())
        worst = max(worst, abs(moment - quantum.oam_expectation(state)))
    add(CheckResult(f"distribution-first-moment-n{count}", worst, 1e-12, worst <= 1e-12))

    add(waist_result)

    # vortex structure of the reference helical mode
    half_width = vortex.census_window(1.0, 2.0)

    def helical53(x, y):
        return beams.eval_hig(ModeIndex(5, 3, Parity.EVEN), "plus", 2.0, geometry, x, y)

    field53 = beams.sample_grid(helical53, half_width, 512 if full else 384)
    detections = vortex.find_vortices(field53)
    on_axis_plus = [v for v in detections if abs(v.y) < field53.spacing and v.charge == 1]
    note = "charge-+1 singularities on the x axis"
    add(CheckResult("vortex-onaxis-plus-count-53", float(len(on_axis_plus)), 3.0, len(on_axis_plus) == 3, note))
    bad_charges = [v for v in detections if abs(v.charge) != 1]
    add(CheckResult("vortex-unit-charges-53", float(len(bad_charges)), 0.0, not bad_charges))
    real_modes = 0
    for parity in (Parity.EVEN, Parity.ODD):
        field = beams.sample_grid(
            lambda x, y: beams.eval_ig(ModeIndex(5, 3, parity), 2.0, geometry, x, y), half_width, 256
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
        coarse = vortex.find_vortices(beams.sample_grid(helical53, half_width, 256))
        coarse_spacing = 2.0 * half_width / 255
        worst = max(
            min(math.hypot(c.x - f.x, c.y - f.y) for f in detections if f.charge == c.charge) for c in coarse
        )
        add(CheckResult("vortex-resolution-stability", worst, coarse_spacing, worst <= coarse_spacing))

    return report
