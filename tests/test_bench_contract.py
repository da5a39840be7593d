"""The benchmark must still run against the library's current interface.

``bench/tracer.py`` wraps every public function of each module and records
an entry for it at install time, so the metrics of an empty snapshot list
every traced name.  A public function named in ``BENCHMARK.json`` that is
moved or renamed would leave its metric missing, and ``bench/run.py
--trace 1`` would stop with a ``KeyError``.  The in-process workloads call
the library directly (``decompose(...).terms``, ``oam_distribution``,
``census_window``), so the first op of each must still run and pass its
check; the whole first ``imaging`` round runs too, so its plus/minus
mirror and on-axis checks see the field and vortex kernels.  A traced
first ``sweep`` op must count the eigen kernel's calls, so the layer-1
metric cannot read 0 on working code.  The ``cli``
workload's payload checkers call the library too
(``build_recurrence_matrix``, ``eigenvalue_rank``, ``census_window``), so
they must pass on payloads the CLI writes.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from elliptic_oam import cli

ROOT = Path(__file__).resolve().parent.parent

# metrics that bench/run.py adds itself, outside the tracer
ADDED_BY_RUNNER = {"cli.import_s", "cli.process_s", "cli.payload_bytes", "trace.op_mean_s"}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_per_layer_metric_is_traced():
    tracer_module = _load("tracer")
    wanted = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    tracer = tracer_module.Tracer().install()
    try:
        metrics = tracer_module.layer_metrics(tracer.snapshot())
    finally:
        tracer.uninstall()
    assert sorted(wanted - ADDED_BY_RUNNER - set(metrics)) == []


@pytest.mark.parametrize("workload", ["sweep", "imaging"])
def test_first_in_process_op_passes_its_check(workload):
    workloads = _load("workloads")
    first_round = next(workloads.WORKLOADS[workload].rounds(np.random.default_rng(0), None))
    op = first_round[0]
    assert op.check(op.run()) is None


def test_traced_sweep_op_counts_the_eigen_kernel():
    # the curves solve through linalg.eigen_tridiagonal; a kernel the tracer
    # cannot see would read 0 calls on the layer-1 metric
    tracer_module, workloads = _load("tracer"), _load("workloads")
    op = next(workloads.WORKLOADS["sweep"].rounds(np.random.default_rng(0), None))[0]
    tracer = tracer_module.Tracer().install()
    try:
        op.run()
    finally:
        tracer.uninstall()
    assert tracer_module.layer_metrics(tracer.snapshot())["linalg.eigen_tridiagonal.calls"] >= 1


def test_whole_first_imaging_round_passes_its_checks():
    workloads = _load("workloads")
    first_round = next(workloads.WORKLOADS["imaging"].rounds(np.random.default_rng(0), None))
    assert len(first_round) == 24
    for op in first_round:
        assert op.check(op.run()) is None, op.name


FIELD = ["field", "-p", "5", "-m", "3", "-e", "3.1"]
VORTICES = ["vortices", "-p", "5", "-m", "3", "-e", "2.0", "--resolution", "512"]

# (checker, argv): a checker is a name in bench/workloads.py, or a
# (factory name, *arguments) tuple for the checkers built per payload
CLI_PAYLOADS = [
    ("_check_solve", ["solve-ince", "-p", "7", "-m", "5", "--parity", "odd", "-e", "3.3"]),
    ("_check_solve", ["solve-ince", "-p", "20", "-m", "10", "--parity", "even", "-e", "17"]),
    ("_check_solve", ["solve-ince", "-p", "6", "-m", "2", "--parity", "odd", "-e", "0.4"]),
    ("_check_solve", ["solve-ince", "-p", "8", "-m", "0", "--parity", "even", "-e", "2.5"]),
    ("_check_decompose", ["decompose", "-p", "12", "-m", "4", "--parity", "even", "-e", "0.7"]),
    ("_check_decompose", ["decompose", "-p", "9", "-m", "3", "--parity", "odd", "-e", "5"]),
    (
        "_check_field_csv",
        [*FIELD, "--kind", "helical_minus", "--z", "0.4", "--resolution", "256", "--format", "csv"],
    ),
    (("_pgm_checker", 512), [*FIELD, "--kind", "helical_plus", "--resolution", "512", "--format", "pgm"]),
    (("_vortices_checker", "plus", 2.0, 512), [*VORTICES, "--sign", "plus"]),
    (("_vortices_checker", "minus", 2.0, 512), [*VORTICES, "--sign", "minus"]),
]


def _id(value):
    if isinstance(value, list):
        return " ".join(value)
    return value if isinstance(value, str) else value[0]


@pytest.mark.parametrize("checker, argv", CLI_PAYLOADS, ids=_id)
def test_cli_payload_passes_its_check(checker, argv, tmp_path):
    workloads = _load("workloads")
    if isinstance(checker, str):
        check = getattr(workloads, checker)
    else:
        check = getattr(workloads, checker[0])(*checker[1:])
    output = tmp_path / "payload"
    assert cli.main([*argv, "-o", str(output)]) == 0
    assert check(output.read_bytes(), output) is None
