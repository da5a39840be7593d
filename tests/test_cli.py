"""End-to-end tests of the command-line interface and its file contracts."""

import hashlib
import json
import math
import subprocess
import sys

import pytest

from elliptic_oam import cli, quantum, verify
from elliptic_oam.beams import eval_ig, sample_grid
from elliptic_oam.ince import ModeIndex, Parity

from oracles import geometry


def run_cli(args):
    return cli.main(args)


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

    def test_bad_domain_exits_2(self, tmp_path):
        assert run_cli(["oam-curve", "-p", "2", "-m", "2", "--eps-min", "0", "--eps-max", "1",
                        "-o", str(tmp_path / "x.csv")]) == 2
        assert run_cli(["oam-curve", "-p", "2", "-m", "0", "--eps-min", "0.1", "--eps-max", "1",
                        "-o", str(tmp_path / "y.csv")]) == 2


class TestField:
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

    def test_bad_kind_combination_exits_2(self, tmp_path):
        assert run_cli(["field", "-p", "2", "-m", "0", "--kind", "helical_plus", "-e", "1.0",
                        "-o", str(tmp_path / "x.csv")]) == 2


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


class TestVerify:
    def test_fast_level_passes(self, tmp_path):
        out = tmp_path / "report.txt"
        code = run_cli(["verify", "--level", "fast", "-o", str(out)])
        assert code == 0
        text = out.read_text()
        count = int(next(line for line in text.splitlines() if line.startswith("checks:")).split()[1])
        assert count >= 20
        assert "overall: PASS" in text
        assert "FAIL" not in text.replace("overall: PASS", "")
        assert (tmp_path / "report.txt.manifest.json").exists()

    def test_perturbed_weight_sign_fails(self, monkeypatch):
        # canary: corrupting the expansion sign factor must not go unnoticed
        original = quantum._expansion_sign
        monkeypatch.setattr(quantum, "_expansion_sign", lambda n, l, p, m: -original(n, l, p, m))
        report = verify.run_checks("fast")
        assert not report.ok
        failing = [r.name for r in report.results if not r.passed]
        assert "ig22-closed-form" in failing or any("overlap" in name for name in failing)


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "poly.json"
        proc = subprocess.run(
            [sys.executable, "-m", "elliptic_oam.cli", "solve-ince", "-p", "1", "-m", "1",
             "--parity", "even", "-e", "0.25", "-o", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(out.read_text())["eigenvalue"] == pytest.approx(1.25, abs=1e-12)

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
