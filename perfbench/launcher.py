"""Runs one `periplectic` CLI call with the tracer installed.

Usage (from the repository root, with PYTHONPATH=src):
    PERFBENCH_SPAWN=<time.monotonic() at spawn> PERFBENCH_TRACE_OUT=<file> \\
        python3 perfbench/launcher.py <verb> [args...]

cli.startup_s runs from the spawn time the parent passes in until
`periplectic.cli` is imported.  The counters and spans go to
PERFBENCH_TRACE_OUT when the command exits.
"""

import os
import sys
import time


def main() -> None:
    import periplectic.cli

    startup_s = time.monotonic() - float(os.environ["PERFBENCH_SPAWN"])
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    for verb, command in periplectic.cli.main.commands.items():
        command.callback = tracer.span(f"cli.{verb}", command.callback)
    tracer.add("cli.startup_s", startup_s)
    tracer.on = True
    sys.argv[0] = "periplectic"
    try:
        periplectic.cli.main()
    finally:
        tracer.on = False
        tracer.dump(os.environ["PERFBENCH_TRACE_OUT"])


if __name__ == "__main__":
    main()
