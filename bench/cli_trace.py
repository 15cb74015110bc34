"""Run the binomfactor CLI with layer spans installed.

    PYTHONPATH=src python3 bench/cli_trace.py decompose 2000 800 --format json

Stdout is the CLI's own, byte for byte.  At exit one line
`BENCH_TRACE <json>` goes to stderr: the import time of binomfactor.cli,
the per-layer self times and counts, and the raw spans.
"""

import json
import sys
import time

from tracer import Tracer

t0 = time.perf_counter()
import binomfactor.cli  # noqa: E402  (timed: the import is a layer cost)
import_s = time.perf_counter() - t0

tracer = Tracer()
tracer.install()
try:
    rc = binomfactor.cli.main(sys.argv[1:])
finally:
    tracer.uninstall()
    sys.stdout.flush()
    sys.stderr.write("BENCH_TRACE " + json.dumps({
        "import_s": import_s, "layers": tracer.layer_metrics(),
        "spans": tracer.spans, "missing": tracer.missing}) + "\n")
sys.exit(rc)
