"""The benchmark's workloads: ``sweep``, ``imaging`` and ``cli``.

A workload is an endless sequence of rounds.  A round is a list of ops whose
shape is fixed (which orders, how many points, which subcommands); the seed
draws the free inputs (ellipticity grids, degrees, signs, z planes).  A run
executes whole rounds, so every run times the same mix of ops and its
medians and percentiles compare with other runs.  The ``sweep`` and ``cli``
rounds take longer than a 15 s run even on a fast machine, so such a run is
exactly one round and its op count, which sets the tail percentile, does not
depend on machine speed.  Each op carries a check
against an independent reference, run untimed after the op; the check
returns ``None`` when the output is correct and a message otherwise.

Ops call the library through module attributes (``quantum.oam_curve``), so
the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

from elliptic_oam import beams, quantum, vortex
from elliptic_oam.ince import ModeIndex, Parity, build_recurrence_matrix, eigenvalue_rank
from elliptic_oam.verify import (
    GOLDEN_CROSSING_75_77,
    GOLDEN_TURNING_POINT_73,
    GOLDEN_TURNING_POINT_75,
)

GOLDEN_TOLERANCE = 1e-3  # the verify battery's tolerance on the same goldens
SIGNS = ("plus", "minus")


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]


def _log_uniform(rng, low: float, high: float) -> float:
    return float(np.exp(rng.uniform(math.log(low), math.log(high))))


def _helical_degree(rng, p: int) -> int:
    """A degree m >= 1 with the parity of p."""
    return int(rng.choice(np.arange(2 - p % 2, p + 1, 2)))


def _miss(found, target: float) -> float:
    return min((abs(value - target) for value in found), default=math.inf)


# --- sweep -----------------------------------------------------------------
# Cold OAM-against-ellipticity curves.  Every ellipticity is new, so each
# point costs two fresh Ince eigensolves and no cache is reused.  A study is
# the golden (7,3), (7,5) and (7,7) curves plus one curve per order below;
# the recurrence dimension spans 2 (p=3) to 11 (p=20).  A round is two
# studies, 22 curves: four orders cost less than p=7 and four more, so the
# median and the tail percentile (p54.5) both fall among the six p=7 curves
# rather than between two orders of different cost.  The p=7 curves are
# spread through the study, so those percentiles sample the machine's speed
# across the whole run rather than in one stretch of it.

SWEEP_ORDERS = (3, 20, 4, 16, 5, 14, 9, 12)
STUDIES_PER_ROUND = 2
CURVE_POINTS = 1000
PROBES_PER_CURVE = 4


def _golden_grid(rng):
    # spans all three golden locations with room to spare at both ends
    return np.geomspace(rng.uniform(0.3, 0.5), rng.uniform(16.0, 24.0), CURVE_POINTS)


def _probe_check(mode: ModeIndex, sign: str, eps: float, value: float):
    """Sum D^2 = 1, and <Lz> equal to the first moment of the OAM spectrum."""
    for parity in Parity:
        weights = quantum.decompose(ModeIndex(mode.p, mode.m, parity), eps)
        total = sum(w * w for _, w in weights.terms)
        if abs(total - 1.0) > 1e-12:
            return f"sum D^2 = {total!r} at eps {eps!r} ({parity.value})"
    spectrum = quantum.oam_distribution(quantum.helical_state(mode, sign, eps))
    moment = sum(l * prob for l, prob in spectrum.items())
    if abs(moment - value) > 1e-10 or abs(value) > mode.p:
        return f"<Lz> {value!r} vs spectrum first moment {moment!r} at eps {eps!r}"
    return None


def _curve_op(rng, p, m, sign, grid, turning=None, keep=None, partner=None) -> Op:
    mode = ModeIndex(p, m, Parity.EVEN)
    probes = np.sort(rng.choice(grid.size, PROBES_PER_CURVE, replace=False))

    def run():
        curve = quantum.oam_curve(mode, sign, grid)
        analysis = {"turning_points": quantum.find_turning_points(curve)}
        if partner is not None:
            analysis["crossings"] = quantum.find_crossings(partner["curve"], curve)
        if keep is not None:
            keep["curve"] = curve
        return curve, analysis

    def check(result):
        curve, analysis = result
        if turning is not None:
            miss = _miss(analysis["turning_points"], turning)
            if miss > GOLDEN_TOLERANCE:
                return f"no turning point within {GOLDEN_TOLERANCE} of {turning} (off by {miss:.3g})"
        if partner is not None:
            miss = _miss(analysis["crossings"], GOLDEN_CROSSING_75_77)
            if miss > GOLDEN_TOLERANCE:
                return f"no (7,5)x(7,7) crossing within {GOLDEN_TOLERANCE} of golden (off by {miss:.3g})"
        for i in probes:
            problem = _probe_check(mode, sign, float(curve.epsilons[i]), float(curve.oam[i]))
            if problem:
                return problem
        return None

    return Op(f"oam_curve({p},{m},{sign})", run, check)


def _study(rng):
    sign = str(rng.choice(SIGNS))
    pair_grid = _golden_grid(rng)
    shared = {}
    goldens = [
        _curve_op(rng, 7, 3, sign, _golden_grid(rng), turning=GOLDEN_TURNING_POINT_73),
        _curve_op(rng, 7, 5, sign, pair_grid, turning=GOLDEN_TURNING_POINT_75, keep=shared),
        _curve_op(rng, 7, 7, sign, pair_grid, partner=shared),
    ]
    others = []
    for p in SWEEP_ORDERS:
        grid = np.geomspace(_log_uniform(rng, 0.01, 0.1), _log_uniform(rng, 20.0, 100.0), CURVE_POINTS)
        others.append(_curve_op(rng, p, _helical_degree(rng, p), str(rng.choice(SIGNS)), grid))
    # (7,3), 3 others, (7,5), 3 others, (7,7), 2 others
    return [op for i, golden in enumerate(goldens) for op in (golden, *others[3 * i : 3 * i + 3])]


def sweep_rounds(rng, session=None):
    while True:
        yield [op for _ in range(STUDIES_PER_ROUND) for op in _study(rng)]


# --- imaging ---------------------------------------------------------------
# Propagation stacks of one helical mode: a few ellipticities, each sampled on
# fresh z planes with both signs, then searched for vortices.  Field sampling
# and vortex detection do nearly all the work; the (mode, eps) inputs repeat,
# so the solve and norm caches are reused.

IMAGING_MODE = ModeIndex(5, 3, Parity.EVEN)
IMAGING_RESOLUTION = 256
IMAGING_EPSILONS = 3  # seeded, in addition to the reference one
PLANES_PER_EPS = 3
REFERENCE_EPS = 2.0  # the helical (5,3) mode has three on-axis unit vortices here


def _sample(eps: float, geometry, sign: str):
    window = vortex.census_window(geometry.width, eps)
    return beams.sample_grid(
        lambda x, y: beams.eval_hig(IMAGING_MODE, sign, eps, geometry, x, y),
        window,
        IMAGING_RESOLUTION,
    )


def _field_op(eps: float, geometry, sign: str, pair: dict, waist_amplitude: dict) -> Op:
    charge = 1 if sign == "plus" else -1
    scale = geometry.width / geometry.waist

    def run():
        field = _sample(eps, geometry, sign)
        return field, vortex.find_vortices(field)

    def check(result):
        field, found = result
        norm = float(np.sum(np.abs(field.values) ** 2)) * field.spacing**2
        if abs(norm - 1.0) > 1e-6:
            return f"sampled norm^2 {norm!r} != 1"
        # Propagation only rescales the waist profile: the window scales with
        # w(z), so |field| * w(z)/w0 matches the waist samples point by point.
        if eps not in waist_amplitude:
            waist = beams.BeamGeometry(geometry.waist, geometry.wavenumber)
            waist_amplitude[eps] = np.abs(_sample(eps, waist, "plus").values)
        reference = waist_amplitude[eps]
        drift = float(np.max(np.abs(np.abs(field.values) * scale - reference)))
        if drift > 1e-9 * float(reference.max()):
            return f"|field| differs from the rescaled waist field by {drift:.3g}"
        if any(abs(v.charge) != 1 for v in found):
            return f"non-unit charges {[v.charge for v in found]}"
        if eps == REFERENCE_EPS:
            on_axis = [v for v in found if abs(v.y) < field.spacing and v.charge == charge]
            if len(on_axis) != 3:
                return f"{len(on_axis)} on-axis charge {charge:+d} vortices, expected 3"
        # The two signs share their zeros with opposite charges.  Off the
        # waist the curvature phase moves the detector's position estimates
        # apart, so only the count and the charges are compared.
        if sign == "plus":
            pair["plus"] = found
            return None
        plus = pair.get("plus", [])
        if sorted(v.charge for v in plus) != sorted(-v.charge for v in found):
            return "minus-sign vortex charges do not mirror the plus-sign ones"
        return None

    return Op(f"field(eps={eps:.4g},z={geometry.z:.4g},{sign})", run, check)


def imaging_rounds(rng, session=None):
    epsilons = [REFERENCE_EPS] + [float(e) for e in rng.uniform(0.8, 6.0, IMAGING_EPSILONS)]
    rayleigh = beams.BeamGeometry(waist=1.0, wavenumber=2.0 * math.pi).rayleigh_range
    waist_amplitude = {}
    while True:
        ops = []
        for eps in epsilons:
            for z in rng.uniform(0.0, rayleigh, PLANES_PER_EPS):
                geometry = beams.BeamGeometry(waist=1.0, wavenumber=2.0 * math.pi, z=float(z))
                pair = {}
                ops += [_field_op(eps, geometry, sign, pair, waist_amplitude) for sign in SIGNS]
        yield ops


# --- cli -------------------------------------------------------------------
# A user's shell script: each op is one subcommand in its own process, so
# interpreter start and import are part of every op.  The only workload that
# runs the cli layer and the verify battery.  The script looks up several
# modes, so the median op is one of a group of start-up dominated
# invocations rather than one particular subcommand.  The lookups are spread
# through the script, so the median samples the machine's speed across the
# whole run rather than in one stretch of it.  A round is two scripts.

SCRIPTS_PER_ROUND = 2


@dataclass
class CliSession:
    """Starts CLI processes for one run and keeps what the parent measures."""

    python: str
    root: Path
    env: dict
    work: Path
    trace: bool
    child_script: Path
    payload_bytes: int = 0
    children: list = field(default_factory=list)  # (wall_s, trace record or None)
    _count: int = 0

    def _path(self, suffix: str) -> Path:
        self._count += 1
        return self.work / f"op{self._count:05d}{suffix}"

    def spawn(self, args) -> subprocess.CompletedProcess:
        """One fresh interpreter; without args it only imports the CLI."""
        trace_path = self._path(".trace.json")
        if self.trace:
            cmd = [self.python, str(self.child_script), str(trace_path), *args]
        elif args:
            cmd = [self.python, "-m", "elliptic_oam.cli", *args]
        else:
            cmd = [self.python, "-c", "import elliptic_oam.cli"]
        start = perf_counter()
        done = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, timeout=170)
        wall = perf_counter() - start
        record = json.loads(trace_path.read_text()) if self.trace and trace_path.exists() else None
        self.children.append((wall, record))
        return done

    def op(self, name: str, args, suffix: str, check_payload) -> Op:
        output = self._path(suffix)

        def check(done):
            if done.returncode != 0:
                return f"exit code {done.returncode}: {done.stderr.decode(errors='replace')[-300:]}"
            payload = output.read_bytes()
            self.payload_bytes += len(payload)
            manifest = json.loads(Path(f"{output}.manifest.json").read_text())
            if manifest["checksum"] != hashlib.sha256(payload).hexdigest():
                return "manifest sha256 differs from the payload's"
            return check_payload(payload, output)

        return Op(name, lambda: self.spawn([*args, "-o", str(output)]), check)


def _mode_args(rng):
    p = int(rng.integers(3, 21))
    m = int(rng.choice(np.arange(p % 2, p + 1, 2)))
    parity = "even" if m == 0 else str(rng.choice(("even", "odd")))
    eps = _log_uniform(rng, 0.1, 50.0)
    return ["-p", str(p), "-m", str(m), "--parity", parity, "-e", repr(eps)]


def _check_solve(payload, _):
    doc = json.loads(payload)
    mode = ModeIndex(doc["p"], doc["m"], Parity(doc["parity"]))
    dense = build_recurrence_matrix(mode, doc["epsilon"]).to_dense()
    vector = np.asarray(doc["fourier"])
    value = doc["eigenvalue"]
    scale = 1.0 + abs(value)
    # the dense eigenvalues come from LAPACK, independent of the package's solver
    reference = np.sort(np.linalg.eigvals(dense).real)[eigenvalue_rank(mode)]
    residual = float(np.linalg.norm(dense @ vector - value * vector))
    if abs(reference - value) > 1e-9 * scale or residual > 1e-9 * scale:
        return f"eigenpair off: value {value!r} vs LAPACK {reference!r}, residual {residual:.3g}"
    if abs(np.linalg.norm(vector) - 1.0) > 1e-12:
        return "Fourier vector not unit norm"
    return None


def _check_decompose(payload, _):
    terms = json.loads(payload)["terms"]
    total = sum(t["D"] ** 2 for t in terms)
    return None if abs(total - 1.0) <= 1e-12 else f"sum D^2 = {total!r}"


def _curve_checker(m: int, sign: str, eps_min: float, eps_max: float, steps: int):
    def check(payload, output):
        grid = np.geomspace(eps_min, eps_max, steps)
        curve = quantum.oam_curve(ModeIndex(7, m, Parity.EVEN), sign, grid)
        partner = quantum.oam_curve(ModeIndex(7, 7, Parity.EVEN), sign, grid)
        fmt = lambda v: format(float(v), ".17g")  # noqa: E731 - the CLI's format
        expected = ["epsilon,oam"] + [f"{fmt(e)},{fmt(v)}" for e, v in zip(curve.epsilons, curve.oam)]
        if payload.decode().splitlines() != expected:
            return "CSV differs from in-process oam_curve"
        analysis = json.loads(Path(f"{output}.analysis.json").read_text())
        if (
            analysis["turning_points"] != quantum.find_turning_points(curve)
            or analysis["crossings"]["epsilons"] != quantum.find_crossings(curve, partner)
        ):
            return "analysis sidecar differs from in-process analysis"
        return None

    return check


def _check_field_csv(payload, _):
    data = np.loadtxt(io.BytesIO(payload), delimiter=",", skiprows=1)
    xs = np.unique(data[:, 0])
    spacing = float(xs[1] - xs[0])
    norm = float(np.sum(data[:, 2] ** 2 + data[:, 3] ** 2)) * spacing**2
    return None if abs(norm - 1.0) <= 1e-6 else f"sampled norm^2 {norm!r} != 1"


def _pgm_checker(resolution: int):
    header = f"P5\n{resolution} {resolution}\n65535\n".encode("ascii")

    def check(payload, _):
        if not payload.startswith(header) or len(payload) != len(header) + 2 * resolution**2:
            return "malformed PGM"
        if int(np.frombuffer(payload[len(header) :], dtype=">u2").max()) != 65535:
            return "PGM peak is not full scale"
        return None

    return check


def _vortices_checker(sign: str, eps: float, resolution: int):
    charge = 1 if sign == "plus" else -1
    spacing = 2.0 * vortex.census_window(1.0, eps) / (resolution - 1)

    def check(payload, _):
        found = json.loads(payload)["vortices"]
        on_axis = [v for v in found if abs(v["y"]) < spacing and v["charge"] == charge]
        if len(on_axis) != 3:
            return f"{len(on_axis)} on-axis charge {charge:+d} vortices, expected 3"
        return None

    return check


def _check_verify(payload, _):
    return None if payload.decode().endswith("overall: PASS\n") else "verify battery did not pass"


def _script(rng, session: CliSession):
    curve_m = int(rng.choice((1, 3, 5)))
    curve_sign = str(rng.choice(SIGNS))
    eps_min, eps_max = float(rng.uniform(0.05, 0.5)), float(rng.uniform(20.0, 40.0))
    field_sign = str(rng.choice(SIGNS))
    field_eps, field_z = float(rng.uniform(0.8, 6.0)), float(rng.uniform(0.0, 1.0))
    preview_sign = str(rng.choice(SIGNS))
    preview_eps = float(rng.uniform(0.8, 6.0))
    vortex_sign = str(rng.choice(SIGNS))

    def lookups():
        return [
            session.op("solve-ince", ["solve-ince", *_mode_args(rng)], ".json", _check_solve),
            session.op("decompose", ["decompose", *_mode_args(rng)], ".json", _check_decompose),
        ]

    return [
        *lookups(),
        session.op(
            "oam-curve",
            ["oam-curve", "-p", "7", "-m", str(curve_m), "--sign", curve_sign,
             "--eps-min", repr(eps_min), "--eps-max", repr(eps_max),
             "--steps", "512", "--log-spacing", "--cross", "7", "7"],
            ".csv",
            _curve_checker(curve_m, curve_sign, eps_min, eps_max, 512),
        ),
        session.op(
            "field-csv",
            ["field", "-p", "5", "-m", "3", "--kind", f"helical_{field_sign}",
             "-e", repr(field_eps), "--z", repr(field_z),
             "--resolution", "256", "--format", "csv"],
            ".csv",
            _check_field_csv,
        ),
        *lookups(),
        session.op("verify", ["verify", "--level", "fast"], ".txt", _check_verify),
        *lookups(),
        session.op(
            "field-pgm",
            ["field", "-p", "5", "-m", "3", "--kind", f"helical_{preview_sign}",
             "-e", repr(preview_eps), "--resolution", "512", "--format", "pgm"],
            ".pgm",
            _pgm_checker(512),
        ),
        session.op(
            "vortices",
            ["vortices", "-p", "5", "-m", "3", "--sign", vortex_sign,
             "-e", repr(REFERENCE_EPS), "--resolution", "512"],
            ".json",
            _vortices_checker(vortex_sign, REFERENCE_EPS, 512),
        ),
    ]


def cli_rounds(rng, session: CliSession):
    while True:
        yield [op for _ in range(SCRIPTS_PER_ROUND) for op in _script(rng, session)]


@dataclass(frozen=True)
class Workload:
    rounds: Callable  # (rng, session) -> iterator of rounds
    in_process: bool
    # a round's duration at the baseline; the traced run executes a fixed
    # number of rounds, seconds / this, so its counts repeat exactly
    nominal_round_s: float


WORKLOADS = {
    "sweep": Workload(sweep_rounds, True, 26.0),
    "imaging": Workload(imaging_rounds, True, 1.2),
    "cli": Workload(cli_rounds, False, 34.0),
}
