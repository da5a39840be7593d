"""Tracing overhead per workload: traced minus untraced mean op time.

    python3 bench/overhead.py [--seed N] [--seconds S]

Runs bench/run.py on every workload twice with the same seed, once with
``--trace 0`` and once with ``--trace 1``, and prints the traced run's mean
op time (``trace.op_mean_s``) minus the untraced run's (1 / ``ops_per_s``).
Run it from the repository root.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def result(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = done.stdout.splitlines()
    print(next(line for line in lines if line.startswith("env ")))
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args()
    for workload in ("sweep", "imaging", "cli"):
        plain = result(workload, args.seed, args.seconds, 0)
        traced = result(workload, args.seed, args.seconds, 1)
        untraced_s = 1.0 / plain["metrics"]["ops_per_s"]["value"]
        traced_s = traced["metrics"]["trace.op_mean_s"]["value"]
        print(f"{workload}: mean op {untraced_s:.4f} s untraced, {traced_s:.4f} s traced, "
              f"overhead {traced_s - untraced_s:+.4f} s ({(traced_s / untraced_s - 1):+.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
