"""Fresh-interpreter helper for the benchmark.

    python3 bench/child.py setup <workload> <trace 0|1>
        imports the library and makes the first call of each route the
        workload uses, then prints one JSON line; the parent times the
        interval from starting this process to that line (set-up time).
    python3 bench/child.py command <uwitness.cli arguments...>
        the traced form of one CLI command: times the import of
        uwitness.cli, wraps the library, runs main() with its output
        captured, and prints one JSON line with the output and the spans.

uwitness must be importable (the parent puts src/ on PYTHONPATH).
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

import spans


def setup(name, traced):
    import workloads

    tracer = spans.Tracer() if traced else None
    if tracer:
        tracer.install()
    workloads.setup_first_calls(name)
    first = spans.collective_seconds(tracer.spans) if tracer else None
    return {"collective_first_call_s": first}


def command(args):
    t0 = time.perf_counter()
    import uwitness.cli

    import_s = time.perf_counter() - t0
    tracer = spans.Tracer()
    tracer.install()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = uwitness.cli.main(args)
    return {"code": code, "output": buf.getvalue(), "import_s": import_s, "trace": tracer.export()}


def main(argv):
    if len(argv) >= 3 and argv[0] == "setup":
        doc = setup(argv[1], argv[2] == "1")
    elif argv and argv[0] == "command":
        doc = command(argv[1:])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    sys.stdout.write(json.dumps(doc, separators=(",", ":")) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
