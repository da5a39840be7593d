"""End-to-end tests of the command-line interface and its file contracts."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from elliptic_oam import cli, quantum, verify
from elliptic_oam.beams import ComplexField, eval_hig, eval_ig, sample_grid
from elliptic_oam.ince import ModeIndex, Parity

from oracles import field_csv, geometry

SRC = Path(__file__).resolve().parents[1] / "src"

# the benchmark's field-csv payload (tests/test_bench_contract.py)
HELICAL_CSV = ["field", "-p", "5", "-m", "3", "-e", "3.1", "--kind", "helical_minus", "--z", "0.4",
               "--resolution", "256", "--format", "csv"]

CHECKSUM_CASES = [
    ["field", "-p", "4", "-m", "2", "--kind", "helical_plus", "-e", "1.3", "--resolution", "24"],
    ["field", "-p", "4", "-m", "2", "--kind", "helical_plus", "-e", "1.3", "--resolution", "24", "--format", "pgm"],
    ["oam-curve", "-p", "5", "-m", "3", "--eps-min", "0.2", "--eps-max", "9", "--steps", "33", "--cross", "5", "5"],
]


def run_cli(args):
    return cli.main(args)


def run_child(args):
    """This interpreter run on ``args`` in a child process, the checkout's ``src`` first on its PYTHONPATH.

    The child inherits the caller's environment, which need not reach the package: pytest's
    ``pythonpath`` setting extends the test process's ``sys.path`` only.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def read_manifest(path):
    with open(f"{path}.manifest.json", encoding="utf-8") as handle:
        return json.load(handle)


class TestSolveInce:
    def test_payload_and_manifest(self, tmp_path):
        out = tmp_path / "poly.json"
        code = run_cli(
            ["solve-ince", "-p", "2", "-m", "2", "--parity", "even", "-e", "0.5", "-o", str(out)]
        )
        assert code == 0
        document = json.loads(out.read_text())
        assert document["p"] == 2 and document["parity"] == "even"
        assert document["residual"] <= 1e-9
        assert abs(sum(f * f for f in document["fourier"]) - 1.0) < 1e-12
        manifest = read_manifest(out)
        assert manifest["subcommand"] == "solve-ince"
        assert manifest["checksum"] == hashlib.sha256(out.read_bytes()).hexdigest()

    def test_order_zero(self, tmp_path):
        out = tmp_path / "p0.json"
        assert run_cli(["solve-ince", "-p", "0", "-m", "0", "--parity", "even", "-e", "1.0", "-o", str(out)]) == 0
        document = json.loads(out.read_text())
        assert document["fourier"] == [1.0]
        assert document["eigenvalue"] == 0.0

    def test_parity_violation_exits_2(self, tmp_path):
        code = run_cli(
            ["solve-ince", "-p", "3", "-m", "2", "--parity", "even", "-e", "1.0", "-o", str(tmp_path / "x.json")]
        )
        assert code == 2

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            run_cli(["solve-ince", "-p", "5", "-m", "3", "--parity", "odd", "-e", "2.0", "-o", str(out)])
        assert a.read_bytes() == b.read_bytes()


class TestDecompose:
    def test_payload_shape(self, tmp_path):
        out = tmp_path / "dec.json"
        assert run_cli(["decompose", "-p", "2", "-m", "2", "--parity", "even", "-e", "0.5", "-o", str(out)]) == 0
        document = json.loads(out.read_text())
        assert abs(document["sum_sq"] - 1.0) < 1e-12
        ls = [t["l"] for t in document["terms"]]
        assert ls == sorted(ls, reverse=True)
        assert all(t["n"] * 2 + t["l"] == 2 for t in document["terms"])

    def test_invalid_mode_exits_2(self, tmp_path):
        assert run_cli(["decompose", "-p", "2", "-m", "3", "--parity", "odd", "-e", "1.0", "-o", str(tmp_path / "x")]) == 2

    def test_order_past_factorial_overflow(self, tmp_path):
        out = tmp_path / "dec.json"
        assert run_cli(["decompose", "-p", "200", "-m", "2", "--parity", "even", "-e", "0.5", "-o", str(out)]) == 0
        assert abs(json.loads(out.read_text())["sum_sq"] - 1.0) < 1e-12


class TestOamCurve:
    def test_left_edge_and_csv_format(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = run_cli(
            ["oam-curve", "-p", "2", "-m", "2", "--eps-min", "1e-4", "--eps-max", "30",
             "--steps", "64", "--log-spacing", "-o", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "epsilon,oam"
        first = lines[1].split(",")
        assert abs(float(first[1]) - 2.0) < 1e-3
        sidecar = json.loads((tmp_path / "curve.csv.analysis.json").read_text())
        assert sidecar["turning_points"] == []

    def test_77_monotone_decreasing(self, tmp_path):
        out = tmp_path / "c77.csv"
        run_cli(["oam-curve", "-p", "7", "-m", "7", "--eps-min", "0.01", "--eps-max", "30",
                 "--steps", "64", "--log-spacing", "-o", str(out)])
        values = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_crossing_sidecar(self, tmp_path):
        out = tmp_path / "c75.csv"
        code = run_cli(
            ["oam-curve", "-p", "7", "-m", "5", "--eps-min", "8", "--eps-max", "16",
             "--steps", "128", "--cross", "7", "7", "-o", str(out)]
        )
        assert code == 0
        sidecar = json.loads((tmp_path / "c75.csv.analysis.json").read_text())
        assert len(sidecar["crossings"]["epsilons"]) >= 1
        assert abs(sidecar["crossings"]["epsilons"][0] - 12.0968) < 1e-2

    def test_bad_domain_exits_2(self, tmp_path, monkeypatch, capsys):
        assert run_cli(["oam-curve", "-p", "2", "-m", "2", "--eps-min", "0", "--eps-max", "1",
                        "-o", str(tmp_path / "x.csv")]) == 2
        assert run_cli(["oam-curve", "-p", "2", "-m", "0", "--eps-min", "0.1", "--eps-max", "1",
                        "-o", str(tmp_path / "y.csv")]) == 2
        # the helical-state check refuses an m = 0 crossing partner as it does an m = 0 curve
        assert run_cli(["oam-curve", "-p", "2", "-m", "2", "--eps-min", "0.1", "--eps-max", "1",
                        "--cross", "2", "0", "-o", str(tmp_path / "f")]) == 2
        assert list(tmp_path.iterdir()) == []
        capsys.readouterr()
        # too few steps is refused before any curve is computed
        monkeypatch.setattr(quantum, "oam_curve", None)
        assert run_cli(["oam-curve", "-p", "2", "-m", "2", "--eps-min", "0.1", "--eps-max", "1",
                        "--steps", "2", "-o", str(tmp_path / "z.csv")]) == 2
        assert capsys.readouterr().err == "error: need at least 3 steps\n"

    def test_stdout_holds_the_csv_then_the_analysis(self):
        argv = ["oam-curve", "-p", "3", "-m", "3", "--eps-min", "0.1", "--eps-max", "2", "--steps", "8"]
        proc = run_child(["-m", "elliptic_oam.cli", *argv])
        assert proc.returncode == 0, proc.stderr
        csv, analysis = proc.stdout.split("\n{", 1)
        assert csv.splitlines()[0] == "epsilon,oam" and len(csv.splitlines()) == 9
        assert "turning_points" in json.loads("{" + analysis)


class TestField:
    def test_order_past_factorial_overflow(self, tmp_path):
        out = tmp_path / "field.csv"
        args = ["field", "-p", "172", "-m", "172", "--kind", "even", "-e", "0.5",
                "--window", "14", "--resolution", "16", "-o", str(out)]
        assert run_cli(args) == 0
        values = [complex(*map(float, row.split(",")[2:])) for row in out.read_text().splitlines()[1:]]
        assert len(values) == 16 * 16 and max(abs(v) for v in values) > 0.0

    def test_csv_round_trips_sample_grid(self, tmp_path):
        out = tmp_path / "field.csv"
        run_cli(["field", "-p", "3", "-m", "1", "--kind", "even", "-e", "1.5",
                 "--window", "3", "--resolution", "17", "-o", str(out)])
        geo = geometry()
        reference = sample_grid(
            lambda x, y: eval_ig(ModeIndex(3, 1, Parity.EVEN), 1.5, geo, x, y), 3.0, 17
        )
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 17 * 17
        for row, (iy, ix) in zip(rows, ((i, j) for i in range(17) for j in range(17))):
            x, y, re, im = (float(v) for v in row.split(","))
            value = reference.values[iy, ix]
            assert (x, y, re, im) == (
                reference.x_coords()[ix],
                reference.y_coords()[iy],
                value.real,
                value.imag,
            )

    def test_csv_bytes_match_the_per_sample_writer(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(256, 256)) * 10.0 ** rng.integers(-320, 308, size=(256, 256))
        values = values + 1j * rng.normal(size=(256, 256))
        values.real[0, :4] = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308]
        values.imag[1, :3] = [-0.0, 1.7976931348623157e308, -4e-320]
        field = ComplexField(256, 256, (-3.7, -1e-17), 0.029, values)
        assert b"".join(cli._field_csv(field)) == field_csv(field)

    def test_csv_file_is_the_per_sample_writer_bytes(self, tmp_path):
        out = tmp_path / "field.csv"
        assert run_cli([*HELICAL_CSV[:-4], "--resolution", "48", "--format", "csv", "-o", str(out)]) == 0
        mode, geo = ModeIndex(5, 3, Parity.EVEN), geometry(z=0.4)
        field = sample_grid(lambda x, y: eval_hig(mode, "minus", 3.1, geo, x, y), 6.0, 48)
        assert out.read_bytes() == field_csv(field)

    def test_csv_to_stdout_is_the_file_bytes(self, tmp_path, capsysbinary):
        argv = ["field", "-p", "3", "-m", "1", "--kind", "odd", "-e", "0.8", "--resolution", "20"]
        out = tmp_path / "field.csv"
        assert run_cli([*argv, "-o", str(out)]) == 0
        assert run_cli(argv) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()

    @pytest.mark.parametrize("argv", CHECKSUM_CASES, ids=lambda argv: " ".join(argv[:2] + argv[-1:]))
    def test_manifest_checksum_is_the_file_sha256(self, tmp_path, argv):
        out = tmp_path / "payload"
        assert run_cli([*argv, "-o", str(out)]) == 0
        assert read_manifest(out)["checksum"] == hashlib.sha256(out.read_bytes()).hexdigest()

    def test_refused_field_leaves_no_file(self, tmp_path):
        out = tmp_path / "field.csv"
        argv = ["field", "-p", "5", "-m", "3", "--kind", "helical_plus", "-e", "2", "--window", "1e308",
                "--resolution", "32", "-o", str(out)]
        assert run_cli(argv) == 2
        assert list(tmp_path.iterdir()) == []

    def test_center_value_is_normalization_constant(self, tmp_path):
        out = tmp_path / "gauss.csv"
        run_cli(["field", "-p", "0", "-m", "0", "--kind", "even", "-e", "1.0",
                 "--window", "2", "--resolution", "17", "-o", str(out)])
        rows = out.read_text().splitlines()[1:]
        center = rows[8 * 17 + 8].split(",")
        assert abs(float(center[2]) - math.sqrt(2.0 / math.pi)) < 1e-12
        assert float(center[3]) == 0.0

    def test_pgm_output_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        for out in (a, b):
            run_cli(["field", "-p", "5", "-m", "3", "--kind", "helical_plus", "-e", "2.0",
                     "--window", "4", "--resolution", "64", "--format", "pgm", "-o", str(out)])
        payload = a.read_bytes()
        assert payload == b.read_bytes()
        assert payload.startswith(b"P5\n64 64\n65535\n")
        assert len(payload) == len(b"P5\n64 64\n65535\n") + 2 * 64 * 64

    def test_pgm_to_stdout_is_the_file_bytes(self, tmp_path, capsysbinary):
        argv = ["field", "-p", "2", "-m", "2", "--kind", "helical_minus", "-e", "1.0", "--window", "3",
                "--resolution", "16", "--format", "pgm"]
        out = tmp_path / "field.pgm"
        assert run_cli([*argv, "-o", str(out)]) == 0
        assert run_cli(argv) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()

    def test_pgm_levels_of_a_tiny_waist_do_not_overflow(self, tmp_path):
        # amplitudes near 1e155 square past the double range unless they are scaled first
        base = ["field", "-p", "0", "-m", "0", "--kind", "even", "-e", "1", "--resolution", "16", "--format", "pgm"]
        tiny, unit = tmp_path / "tiny.pgm", tmp_path / "unit.pgm"
        proc = run_child(
            ["-W", "error::RuntimeWarning", "-m", "elliptic_oam.cli", *base,
             "--waist", "1e-155", "--window", "3e-155", "-o", str(tiny)],
        )
        assert proc.returncode == 0, proc.stderr
        assert run_cli([*base, "--waist", "1", "--window", "3", "-o", str(unit)]) == 0
        header = b"P5\n16 16\n65535\n"
        levels = np.frombuffer(tiny.read_bytes()[len(header):], dtype=">u2")
        assert levels.max() == 65535
        assert tiny.read_bytes() == unit.read_bytes()

    def test_bad_kind_combination_exits_2(self, tmp_path):
        assert run_cli(["field", "-p", "2", "-m", "0", "--kind", "helical_plus", "-e", "1.0",
                        "-o", str(tmp_path / "x.csv")]) == 2


class TestMemory:
    """A subcommand's traced peak is bounded by its field's bytes, not by the size of its text."""

    @staticmethod
    def traced_peak(argv, tmp_path):
        argv = [*argv, "-o", str(tmp_path / "payload")]
        assert run_cli(argv) == 0  # the warm-up fills the kernels' constant tables
        tracemalloc.start()
        try:
            assert run_cli(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def field_bytes(resolution):
        return resolution**2 * np.dtype(complex).itemsize

    def test_csv_field_streams_its_text(self, tmp_path):
        # the text (5.6 MB) is over five times the field's bytes; one row of it at a time fits
        assert self.traced_peak(HELICAL_CSV, tmp_path) <= 2 * self.field_bytes(256)

    def test_pgm_levels_take_one_float_plane(self, tmp_path):
        argv = ["field", "-p", "5", "-m", "3", "-e", "3.1", "--kind", "helical_plus", "--resolution", "512",
                "--format", "pgm"]
        assert self.traced_peak(argv, tmp_path) <= 1.75 * self.field_bytes(512)

    def test_verify_holds_one_table_at_a_time(self, tmp_path):
        assert self.traced_peak(["verify", "--level", "fast"], tmp_path) <= 8 * 2**20


class TestVortices:
    def test_payload_lists_foci_and_detections(self, tmp_path):
        out = tmp_path / "v.json"
        code = run_cli(["vortices", "-p", "2", "-m", "2", "-e", "2.0",
                        "--resolution", "256", "-o", str(out)])
        assert code == 0
        document = json.loads(out.read_text())
        assert document["foci"] == [[1.0, 0.0], [-1.0, 0.0]]
        assert len(document["vortices"]) == 2
        assert all(v["charge"] == 1 for v in document["vortices"])

    def test_m_zero_exits_2(self, tmp_path):
        assert run_cli(["vortices", "-p", "2", "-m", "0", "-e", "1.0", "-o", str(tmp_path / "x")]) == 2


@pytest.fixture(scope="class")
def fast_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify") / "report.txt"
    return out, run_cli(["verify", "--level", "fast", "-o", str(out)])


class TestVerify:
    def test_fast_level_passes(self, fast_report):
        out, code = fast_report
        assert code == 0
        text = out.read_text()
        count = int(next(line for line in text.splitlines() if line.startswith("checks:")).split()[1])
        assert count >= 20
        assert "overall: PASS" in text
        assert "FAIL" not in text.replace("overall: PASS", "")
        assert read_manifest(out)["parameters"] == {"level": "fast"}

    def test_waist_independence_prints_a_bound(self, fast_report):
        # the measured value is rounding noise; the report states its bound instead
        lines = fast_report[0].read_text().splitlines()
        line = next(line for line in lines if "waist-independence-quadrature" in line)
        assert line == "[PASS] waist-independence-quadrature: measured < 1e-14 vs threshold 1e-09"

    def test_values_at_or_above_the_floor_print_in_full(self):
        check = verify.CheckResult("noise", 2.5e-14, 1e-9, True, floor=1e-14)
        assert check.line() == "[PASS] noise: measured 2.5e-14 vs threshold 1e-09"
        assert verify.CheckResult("noise", 0.0, 1e-9, True).line() == "[PASS] noise: measured 0 vs threshold 1e-09"

    def test_perturbed_weight_sign_fails(self, monkeypatch):
        # canary: corrupting the expansion sign factor must not go unnoticed
        original = quantum._expansion_sign
        monkeypatch.setattr(quantum, "_expansion_sign", lambda n, l, p, m: -original(n, l, p, m))
        report = verify.run_checks("fast")
        assert not report.ok
        failing = [r.name for r in report.results if not r.passed]
        assert "ig22-closed-form" in failing or any("overlap" in name for name in failing)


MANIFEST_CASES = [
    ["solve-ince", "-p", "3", "-m", "1", "--parity", "odd", "-e", "0.7"],
    ["decompose", "-p", "4", "-m", "2", "--parity", "even", "-e", "1.5"],
    ["oam-curve", "-p", "3", "-m", "3", "--eps-min", "0.1", "--eps-max", "2", "--steps", "8"],
    ["oam-curve", "-p", "7", "-m", "5", "--sign", "minus", "--eps-min", "0.1", "--eps-max", "2",
     "--steps", "8", "--log-spacing", "--cross", "7", "7"],
    ["field", "-p", "2", "-m", "2", "--kind", "helical_minus", "-e", "1.0", "--window", "3",
     "--resolution", "16", "--z", "0.2", "--format", "pgm", "--waist", "1.5"],
    ["vortices", "-p", "2", "-m", "2", "-e", "2.0", "--resolution", "64", "--wavenumber", "3"],
]


class TestManifest:
    @pytest.mark.parametrize("argv", MANIFEST_CASES, ids=lambda argv: argv[0])
    def test_parameters_are_the_parsed_options(self, tmp_path, argv):
        out = tmp_path / "payload"
        assert run_cli([*argv, "-o", str(out)]) == 0
        parsed = vars(cli.build_parser().parse_args(argv))
        expected = {k: v for k, v in parsed.items() if k not in ("command", "func", "output")}
        manifest = read_manifest(out)
        assert manifest["subcommand"] == argv[0]
        assert manifest["parameters"] == expected
        if "--cross" in argv:
            assert manifest["parameters"]["cross"] == [7, 7]


NON_FINITE_CASES = [
    ["solve-ince", "-p", "5", "-m", "3", "--parity", "odd", "-e", "nan"],
    ["decompose", "-p", "5", "-m", "3", "--parity", "odd", "-e", "inf"],
    ["vortices", "-p", "5", "-m", "3", "-e", "nan", "--resolution", "64"],
    ["vortices", "-p", "5", "-m", "3", "-e", "inf", "--resolution", "64"],
    ["oam-curve", "-p", "7", "-m", "5", "--eps-min", "nan", "--eps-max", "30"],
    ["oam-curve", "-p", "7", "-m", "5", "--eps-min", "0.1", "--eps-max", "inf"],
    ["oam-curve", "-p", "7", "-m", "5", "--eps-min", "0.1", "--eps-max", "inf", "--log-spacing"],
]


class TestNonFiniteEllipticity:
    @pytest.mark.parametrize("argv", NON_FINITE_CASES, ids=" ".join)
    def test_domain_error_without_warnings(self, argv):
        proc = run_child(["-W", "error::RuntimeWarning", "-m", "elliptic_oam.cli", *argv])
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


OVERFLOW_CASES = [
    ["solve-ince", "-p", "7", "-m", "5", "--parity", "even", "-e", "1e160"],
    ["oam-curve", "-p", "7", "-m", "5", "--eps-min", "1", "--eps-max", "1e300", "--steps", "5", "--log-spacing"],
    ["solve-ince", "-p", "7", "-m", "5", "--parity", "even", "-e", "1e308"],
]


class TestHugeEllipticity:
    @pytest.mark.parametrize("argv", OVERFLOW_CASES, ids=" ".join)
    def test_overflow_is_a_numerical_failure(self, argv):
        proc = run_child(["-W", "error::RuntimeWarning", "-m", "elliptic_oam.cli", *argv])
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure:"), proc.stderr

    def test_below_overflow_still_solves(self, tmp_path):
        out = tmp_path / "ince.json"
        assert run_cli(["solve-ince", "-p", "7", "-m", "5", "--parity", "even", "-e", "1e150", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["harmonics"] == [1, 3, 5, 7]

    def test_tiny_refined_vector_is_normalized_without_warnings(self):
        # at 1e200 the one-harmonic vector must come out exactly 1, with no over- or underflow
        # warning from the exact rescale or the norm, nor from the decomposition's weights
        argv = ["-p", "1", "-m", "1", "--parity", "even", "-e", "1e200"]
        documents = {}
        for command in ("solve-ince", "decompose"):
            proc = run_child(["-W", "error::RuntimeWarning", "-m", "elliptic_oam.cli", command, *argv])
            assert proc.returncode == 0 and proc.stderr == "", proc.stderr
            documents[command] = json.loads(proc.stdout)
        assert documents["solve-ince"]["fourier"] == [1.0]
        assert documents["decompose"]["terms"] == [{"n": 0, "l": 1, "D": 1.0}]

    def test_small_eigenvalue_at_huge_ellipticity(self, tmp_path):
        # D's residual is bounded by the scale of the matrix, so its accurate
        # weights are accepted; eigh's eigenvalue itself is not accurate at
        # 1e100 (about 1e85 for an exact 12), so solve-ince still refuses it
        argv = ["-p", "4", "-m", "2", "--parity", "even"]
        assert run_cli(["decompose", *argv, "-e", "1e7", "-o", str(tmp_path / "dec.json")]) == 0
        assert run_cli(["decompose", *argv, "-e", "1e100", "-o", str(tmp_path / "dec.json")]) == 0
        assert run_cli(["solve-ince", *argv, "-e", "1e100", "-o", str(tmp_path / "ince.json")]) == 3

    def test_tiny_ellipticity_still_solves(self, tmp_path):
        # every coupling product underflows to 0 here; none is defective
        out = tmp_path / "curve.json"
        argv = ["oam-curve", "-p", "3", "-m", "1", "--eps-min", "1e-300", "--eps-max", "1e-299", "--steps", "3"]
        assert run_cli([*argv, "-o", str(out)]) == 0


class TestFarPlane:
    @pytest.mark.parametrize("z", ["1e160", "1e300"])
    def test_sampled_or_named_never_internal(self, tmp_path, z):
        # z^2 passes the double range here; 1/R must not overflow on the way
        out = tmp_path / "far.csv"
        argv = ["field", "-p", "1", "-m", "1", "--kind", "helical_plus", "-e", "2", "--resolution", "16", "--z", z]
        proc = run_child(["-W", "error::RuntimeWarning", "-m", "elliptic_oam.cli", *argv, "-o", str(out)])
        assert "internal failure" not in proc.stderr
        assert proc.returncode == 0 or (proc.returncode == 2 and proc.stderr.startswith("error: ")), proc.stderr
        if proc.returncode == 0:
            assert len(out.read_text().splitlines()) == 1 + 16 * 16


FIELD_ARGS = ["field", "-p", "2", "-m", "2", "--kind", "even", "-e", "1.0", "--resolution", "16"]
VORTEX_ARGS = ["vortices", "-p", "5", "-m", "3", "--resolution", "64"]
DOMAIN_CASES = [
    ([*FIELD_ARGS, "--waist", "nan"], "waist must be"),
    ([*FIELD_ARGS, "--waist", "inf"], "waist must be"),
    ([*FIELD_ARGS, "--wavenumber", "inf"], "wavenumber must be"),
    ([*FIELD_ARGS, "--wavenumber", "nan"], "wavenumber must be"),
    ([*FIELD_ARGS, "--z", "inf"], "z must be"),
    ([*FIELD_ARGS, "--z", "nan"], "z must be"),
    ([*VORTEX_ARGS, "-e", "2.0", "--waist", "nan"], "waist must be"),
    ([*FIELD_ARGS, "--waist", "1e-170"], "Rayleigh range"),
    ([*FIELD_ARGS, "--waist", "1e200"], "Rayleigh range"),
    ([*VORTEX_ARGS, "-e", "2.0", "--waist", "1e-170"], "Rayleigh range"),
    ([*VORTEX_ARGS, "-e", "-1"], "ellipticity must be positive"),
    ([*VORTEX_ARGS, "-e", "0"], "ellipticity must be positive"),
]


class TestDomainErrors:
    @pytest.mark.parametrize("argv, message", DOMAIN_CASES, ids=[" ".join([a[0], *a[-2:]]) for a, _ in DOMAIN_CASES])
    def test_named_before_sampling(self, argv, message):
        proc = run_child(["-W", "error::RuntimeWarning", "-m", "elliptic_oam.cli", *argv])
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"error: {message}"), proc.stderr


class TestOverflowingWindow:
    @pytest.mark.parametrize("warnings", ["default", "error::RuntimeWarning"])
    def test_non_finite_field_prints_only_the_error(self, warnings):
        proc = run_child(
            ["-W", warnings, "-m", "elliptic_oam.cli", "field", "-p", "5", "-m", "3",
             "--kind", "helical_plus", "-e", "2", "--window", "1e308", "--resolution", "32"],
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == "error: field contains non-finite samples\n"


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "poly.json"
        proc = run_child(
            ["-m", "elliptic_oam.cli", "solve-ince", "-p", "1", "-m", "1",
             "--parity", "even", "-e", "0.25", "-o", str(out)],
        )
        assert proc.returncode == 0
        assert json.loads(out.read_text())["eigenvalue"] == pytest.approx(1.25, abs=1e-12)

    def test_import_leaves_scipy_unloaded(self):
        proc = run_child(["-c", "import sys, elliptic_oam.cli; print('scipy' in sys.modules)"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_stdout_when_no_output_file(self, capsys):
        assert run_cli(["solve-ince", "-p", "1", "-m", "1", "--parity", "odd", "-e", "0.5"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["eigenvalue"] == pytest.approx(0.5, abs=1e-12)

    def test_unexpected_exception_exits_3(self, monkeypatch, capsys):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_solve_ince", broken)
        assert run_cli(["solve-ince", "-p", "1", "-m", "1", "--parity", "even", "-e", "0.5"]) == 3
        assert capsys.readouterr().err == "internal failure: RuntimeError: boom\n"
