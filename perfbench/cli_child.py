"""Traced ``harmalign`` CLI process: ``python cli_child.py TRACE_JSON <cli args>``.

Times ``import harmalign.cli``, wraps the package's layers with the
benchmark's tracer, runs ``harmalign.cli.main`` on the remaining arguments
and writes the spans, counts and import time to ``TRACE_JSON``.  The caller
sets ``PYTHONPATH`` to the checkout's ``src``.
"""

import json
import sys
from time import perf_counter

from tracer import Tracer

if __name__ == "__main__":
    trace_out, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import harmalign.cli

    import_s = perf_counter() - start
    tracer = Tracer()
    tracer.install()
    code = harmalign.cli.main(argv)
    with open(trace_out, "w") as handle:
        json.dump(dict(tracer.dump(), import_s=import_s), handle)
    sys.exit(code)
