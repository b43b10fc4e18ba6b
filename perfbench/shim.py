"""Run the freeprob CLI with the benchmark's layer tracing installed.

    PERFBENCH_T0=<time.time() at spawn> python shim.py ARGV...

behaves like `python -m freeprob ARGV...`: same stdout, same exit code.
Its last stderr line is `PERFBENCH_TRACE {json}` with the per-layer
summary of this process, plus cli.startup_s (spawn until freeprob is
imported) and cli.run_s (time inside freeprob.cli.run).
"""

import json
import os
import sys
from time import perf_counter, time

import layertrace

from freeprob import cli

startup_s = time() - float(os.environ["PERFBENCH_T0"])
tracer = layertrace.Tracer()
tracer.install({name: sys.modules[f"freeprob.{name}"]
                for name in layertrace.LAYERS + ("cli", "sequences")})
t0 = perf_counter()
code = cli.run(sys.argv[1:])
run_s = perf_counter() - t0
sys.stdout.flush()
summary = tracer.summary()
summary.update({"cli.startup_s": startup_s, "cli.run_s": run_s})
sys.stderr.write("PERFBENCH_TRACE " + json.dumps(summary) + "\n")
sys.exit(code)
