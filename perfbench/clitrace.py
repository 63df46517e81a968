"""Traced twin of ``python -m fdrates.cli``.

Usage: python clitrace.py TRACE_JSON CLI_ARGS...

Installs the benchmark's wrappers before fdrates is imported, runs
fdrates.cli.main(CLI_ARGS), writes the import time (wrapper installation
included), the time of main and the aggregated spans to TRACE_JSON, and
exits with main's exit code.
"""

import json
import sys
import time

t0 = time.perf_counter()
import tracing  # noqa: E402

tracer = tracing.install()
import fdrates.cli  # noqa: E402

t1 = time.perf_counter()
try:
    code = fdrates.cli.main(sys.argv[2:])
except SystemExit as e:  # argparse rejects the arguments
    code = e.code if isinstance(e.code, int) else 1
t2 = time.perf_counter()
sys.stdout.flush()
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump({"import_s": t1 - t0, "main_s": t2 - t1,
               "spans": tracer.snapshot()}, fh)
sys.exit(code)
