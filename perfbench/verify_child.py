"""One verify pass in a fresh process: run suites in the given order.

Usage: python verify_child.py K SUITE[,SUITE...] TRACE OUT_JSON [SPANS_JSON]

For each suite it records the call's CLOCK_MONOTONIC start, its wall time
and the sha256 of
``emit(report, "json")``; it also records the process's peak RSS from its
own rusage.  With TRACE=1 the engine's layers are wrapped first and the
spans are written to SPANS_JSON after the last suite returns.
"""

import hashlib
import json
import resource
import sys
import time
import traceback


def main(argv) -> int:
    k, order, trace, out_path = int(argv[0]), argv[1].split(","), *argv[2:4]
    from quadricops.suites import emit, run_suite
    tracer = None
    if trace == "1":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    suites = []
    first = time.monotonic()
    for index, name in enumerate(order):
        if tracer is not None:
            tracer.request = index
        start = time.monotonic()
        entry = {"suite": name, "start": start}
        try:
            report = run_suite(name, k)
            entry["sha256"] = hashlib.sha256(emit(report, "json")).hexdigest()
            entry["ok"] = report.exit_status == 0
        except Exception:
            entry["error"] = traceback.format_exc()
            entry["ok"] = False
        entry["wall_s"] = time.monotonic() - start
        suites.append(entry)
    wall_s = time.monotonic() - first
    if tracer is not None:
        tracer.dump(argv[4], order)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(out_path, "w") as fh:
        json.dump({"wall_s": wall_s, "suites": suites,
                   "peak_rss_mb": peak_kb / 1024}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
