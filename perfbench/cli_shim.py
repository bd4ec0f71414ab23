"""Run one ``apavoid`` command under the benchmark's layer wrappers.

Usage: python perfbench/cli_shim.py SPANS_FILE -- ARGS...

Times ``import apavoid.cli``, wraps the layers as the in-process traced run
does, calls ``apavoid.cli.main(ARGS)``, writes the spans and the names it
could not wrap to SPANS_FILE as JSON, and exits with the command's code.
"""

import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import apavoid.cli

    t1 = time.perf_counter()
    import json

    import tracing

    spans_file, sep, *args = sys.argv[1:]
    if sep != "--":
        sys.exit("usage: cli_shim.py SPANS_FILE -- ARGS...")
    tracer = tracing.Tracer()
    tracer.spans.append(tracing.Span(0, "cli.import", -1, -1, t0, t1))
    undo, absent = tracing.install(tracer, with_cli=True)
    code = 2
    try:
        code = apavoid.cli.main(args)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code
    finally:
        tracing.uninstall(undo)
        with open(spans_file, "w", encoding="ascii") as fh:
            json.dump({"spans": [s.to_list() for s in tracer.spans], "absent": absent}, fh)
    sys.exit(code)
