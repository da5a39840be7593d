"""Benchmark entry point: one workload, one run, one JSON result line.

    python3 bench/run.py --workload {sweep,imaging,cli} --seed N --seconds S --trace {0,1}

Run it from the repository root; the library is imported from ``src/``.
The run is a closed loop (one client, one process, no worker threads): each
op starts when the previous one has finished and been checked.  With
``--trace 0`` it runs whole rounds until ``--seconds`` have passed and
reports the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it runs
a fixed number of rounds with every library call traced and reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is the JSON result.  Exit code 0 means the run completed,
even when some op failed its check (see ``correct`` and ``failed``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SPAWNS = 5
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "imaging", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        lines = top.stdout.split()
        sha = lines[1] if top.returncode == 0 and Path(lines[0]).resolve() == ROOT else "unknown"
    except OSError:
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        **SINGLE_THREADED,
    }


def drive(rounds, seconds, fixed_rounds, tracer):
    """Run whole rounds; return per-op durations and failure messages."""
    samples, failures = [], []
    untraced = tracer.paused if tracer else nullcontext
    start = perf_counter()
    for done, ops in enumerate(rounds, 1):
        for op in ops:
            began = perf_counter()
            try:
                result, error = op.run(), None
            except Exception as exc:  # an op that raises is a failed op, not a failed run
                traceback.print_exc(file=sys.stderr)
                result, error = None, f"raised {type(exc).__name__}: {exc}"
            samples.append(perf_counter() - began)
            if error is None:
                with untraced():
                    try:
                        error = op.check(result)
                    except Exception as exc:
                        traceback.print_exc(file=sys.stderr)
                        error = f"check raised {type(exc).__name__}: {exc}"
            if error:
                failures.append(f"{op.name}: {error}")
        if done == fixed_rounds or (fixed_rounds is None and perf_counter() - start >= seconds):
            return samples, failures


def tail(samples):
    """The highest percentile with TAIL_BEYOND samples above it, and that percentile.

    It is the quantile at q = (n - TAIL_BEYOND) / n, interpolated between
    order statistics; with fewer than 2 * TAIL_BEYOND samples it lies below
    the median.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    q = (n - TAIL_BEYOND) / n
    position = q * (n - 1)
    low = int(position)
    high = min(low + 1, n - 1)
    value = ordered[low] + (position - low) * (ordered[high] - ordered[low])
    return value, 100.0 * q


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = os.environ.get("ELLIPTIC_OAM_THREADS", "")
    if threads not in ("", "1"):
        print(f"error: ELLIPTIC_OAM_THREADS={threads!r}; the benchmark runs single-threaded "
              "(unset it or set it to 1)", file=sys.stderr)
        return 2
    if not (SRC / "elliptic_oam" / "__init__.py").is_file():
        print(f"error: no package at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.environ.update(SINGLE_THREADED)
    sys.path.insert(0, str(SRC))

    import numpy as np

    import elliptic_oam
    from tracer import LAYERS, Tracer, layer_metrics, merge
    from workloads import WORKLOADS, CliSession

    if Path(elliptic_oam.__file__).resolve().parent != SRC / "elliptic_oam":
        print(f"error: imported {elliptic_oam.__file__}, not the checkout's", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_out"))
    try:
        session = CliSession(sys.executable, ROOT, env, work, traced, BENCH / "cli_child.py")
        # set-up: fresh interpreters through `import elliptic_oam.cli`, the
        # first one discarded (it may write the bytecode cache)
        for attempt in range(SETUP_SPAWNS + 1):
            done = session.spawn([])
            if done.returncode != 0:
                print(done.stderr.decode(errors="replace"), file=sys.stderr)
                return 2
            if attempt == 0:
                session.children.clear()
        setup = [wall for wall, _ in session.children]

        tracer = Tracer().install() if traced and workload.in_process else None
        fixed = max(1, round(args.seconds / workload.nominal_round_s)) if traced else None
        rounds = workload.rounds(np.random.default_rng(args.seed), session)
        try:
            samples, failures = drive(rounds, args.seconds, fixed, tracer)
        finally:
            if tracer:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    n = len(samples)
    tail_s, tail_pct = tail(samples)
    if traced:
        # a child that crashed left no record; its op already counts as failed
        children = [(wall, record) for wall, record in session.children if record]
        snapshot = tracer.snapshot() if tracer else merge(r for _, r in children if "stats" in r)
        values = layer_metrics(snapshot)
        values["cli.import_s"] = statistics.median(r["import_s"] for _, r in children)
        values["cli.process_s"] = statistics.median(wall - r["main_s"] for wall, r in children)
        values["cli.payload_bytes"] = session.payload_bytes
        values["trace.op_mean_s"] = sum(samples) / n
        wanted = spec["per_layer"]
    else:
        who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
        values = {
            "setup_s": statistics.median(setup),
            "ops_per_s": n / sum(samples),
            "op_p50_s": statistics.median(samples),
            "op_tail_s": tail_s,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
            "ok_ratio": (n - len(failures)) / n,
        }
        wanted = spec["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {n} ops, "
          f"{len(failures)} failed; op_tail_s is p{tail_pct:.1f} of {n} samples")
    for failure in failures:
        print(f"FAILED {failure}")
    if traced:
        total = sum(samples)
        shares = {layer: values[f"{layer}.self_s"] / total for layer in LAYERS}
        print("self-time share of op time: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps({"correct": not failures, "attempted": n, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
