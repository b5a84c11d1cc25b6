"""Traced stand-in for `python -m hopflift.cli`, used by the cli_pipeline workload.

Usage: cli_shim.py TRACE_FILE CLI_ARGS...

It imports hopflift.cli (timed as cli.import_s), installs the same layer
wrappers as the in-process workloads, runs cli.main(CLI_ARGS), writes the
tracer totals to TRACE_FILE as JSON and exits with main's exit code.
"""

import json
import sys
import time

t0 = time.perf_counter()
from hopflift import cli  # noqa: E402

import_s = time.perf_counter() - t0

import tracer as trace_mod  # noqa: E402


def main():
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tr = trace_mod.Tracer()
    tr.install()
    tr.recording = True
    try:
        code = cli.main(argv)
    finally:
        tr.recording = False
        tr.uninstall()
        with open(trace_file, "w") as fh:
            json.dump({**tr.snapshot(), "import_s": import_s}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
