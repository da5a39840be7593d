"""The benchmark's per-layer metrics must name functions the library still has.

``bench/tracer.py`` wraps every public function of each module and records
an entry for it at install time, so the metrics of an empty snapshot list
every traced name.  A public function named in ``BENCHMARK.json`` that is
moved or renamed would leave its metric missing, and ``bench/run.py
--trace 1`` would stop with a ``KeyError``.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# metrics that bench/run.py adds itself, outside the tracer
ADDED_BY_RUNNER = {"cli.import_s", "cli.process_s", "cli.payload_bytes", "trace.op_mean_s"}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_per_layer_metric_is_traced():
    tracer_module = _load_tracer()
    wanted = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    tracer = tracer_module.Tracer().install()
    try:
        metrics = tracer_module.layer_metrics(tracer.snapshot())
    finally:
        tracer.uninstall()
    assert sorted(wanted - ADDED_BY_RUNNER - set(metrics)) == []
