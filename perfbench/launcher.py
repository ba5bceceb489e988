"""Run one CLI command in this fresh process, timing import and main apart.

Usage: python launcher.py TIMING_JSON TRACE REQUEST SPANS_JSON -- ARGV...

The command's stdout and exit code are the CLI's own; the timings (import
of ``quadricops.cli``, ``cli.main(argv)``, each with its CLOCK_MONOTONIC
start) and the peak RSS go to TIMING_JSON.  With TRACE=1 the engine's layers are wrapped before `main`
runs and the spans, tagged with REQUEST, are written to SPANS_JSON.
"""

import json
import resource
import sys
import time


def main(argv) -> int:
    timing_path, trace, request, spans_path = argv[:4]
    cli_argv = argv[5:]
    t0 = time.monotonic()
    from quadricops import cli
    t1 = time.monotonic()
    tracer = None
    if trace == "1":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.request = int(request)
        tracer.install()
    t2 = time.monotonic()
    try:
        code = cli.main(cli_argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    t3 = time.monotonic()
    sys.stdout.flush()
    if tracer is not None:
        tracer.dump(spans_path, [request])
    with open(timing_path, "w") as fh:
        json.dump({"import_start": t0, "import_s": t1 - t0,
                   "main_start": t2, "main_s": t3 - t2,
                   "peak_rss_mb": resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
