"""Run one CLI invocation under the tracer and write its stats as JSON.

Usage: python3 bench/cli_child.py TRACE_JSON [CLI ARGUMENTS...]

The interpreter must find the package (``PYTHONPATH=src``).  The import of
``elliptic_oam.cli`` is timed before the tracer is loaded.  With no CLI
arguments the child only imports the CLI, which times start-up.  The exit
code is the CLI's.
"""

import json
import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    from elliptic_oam import cli

    record = {"import_s": perf_counter() - start, "main_s": 0.0}
    code = 0
    if argv:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer().install()
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        finally:
            record["main_s"] = perf_counter() - start
            tracer.uninstall()
        record.update(tracer.snapshot())
    Path(trace_path).write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
