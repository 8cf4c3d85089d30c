"""Run one satakit CLI command with boundary tracing on.

Used by the cli workload's traced run in place of ``python -m satakit.cli``::

    python3 perfbench/cli_probe.py TRACE_FILE [satakit arguments ...]

It times the import of ``satakit.cli`` (the start-up cost above a bare
interpreter) and ``main``, and writes those times, the span summary and
the spans to TRACE_FILE as JSON.  The exit code is the command's.
"""

import sys
import time

started = time.perf_counter()
import satakit.cli  # noqa: E402  (timed import)

imported = time.perf_counter()

import json  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402


def main() -> int:
    tr = tracer.Tracer()
    tr.install()
    t0 = time.perf_counter()
    try:
        code = satakit.cli.main(sys.argv[2:])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    elapsed = time.perf_counter() - t0
    tr.uninstall()
    sys.stdout.flush()
    payload = {
        "import_ms": (imported - started) * 1000,
        "command_ms": elapsed * 1000,
        "summary": tr.summarize(),
        "spans": tr.span_rows(),
    }
    Path(sys.argv[1]).write_text(json.dumps(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
