"""Speed monitor: how fast the benchmark's vCPU runs, sampled while it works.

Usage: python speed.py CPU OUT_FILE PERIOD_S

The process pins itself to CPU, the vCPU the benchmark and its children are
pinned to, and until it gets SIGTERM it repeats: sleep PERIOD_S, run the
probe once to warm the caches, run it again and record the second run's
thread CPU time with the CLOCK_MONOTONIC time it started.  The probe is a
fixed piece of pure-Python work of the same kind as the engine's
(`Fraction` arithmetic, tuple-keyed dicts), so its CPU time tracks the
vCPU's speed at that moment.  On exit it writes one "start_s probe_s" line
per sample to OUT_FILE.

`Monitor` runs this script as a child; `factor` turns the samples around an
interval into the scale that brings a time measured in it to the reference
speed (see README.md, "Noise").
"""

from __future__ import annotations

import bisect
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction

PERIOD_S = 0.02
# The probe's CPU time on the reference machine in its fast state (the
# lowest sample over several minutes).  A scaled time is the time the same
# work would take at that speed.
REF_PROBE_S = 0.00033


def probe() -> Fraction:
    table = {}
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(i, i + 1)
        table[(i, i % 7)] = total
    return total


class Monitor:
    """The speed monitor as a child process, pinned to `cpu`."""

    def __init__(self, cpu: int, out_path, python: str = sys.executable):
        self.out_path = str(out_path)
        self.proc = subprocess.Popen(
            [python, os.path.abspath(__file__), str(cpu), self.out_path,
             str(PERIOD_S)], stdin=subprocess.DEVNULL)
        self.samples: list = []

    def stop(self) -> list:
        """Stop the monitor, wait for it, and load its samples."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if os.path.exists(self.out_path):
            with open(self.out_path) as fh:
                self.samples = [tuple(map(float, line.split()))
                                for line in fh if line.strip()]
        return self.samples


def factor(samples: list, start: float, end: float) -> float:
    """Mean of REF_PROBE_S / probe over the samples that started within one
    period of [start, end]; the nearest sample when none did."""
    if not samples:
        raise ValueError("the speed monitor recorded no samples")
    starts = [s for s, _ in samples]
    lo = bisect.bisect_left(starts, start - PERIOD_S)
    hi = bisect.bisect_right(starts, end + PERIOD_S)
    if lo >= hi:
        near = min(range(len(samples)),
                   key=lambda j: abs(starts[j] - (start + end) / 2))
        lo, hi = near, near + 1
    window = samples[lo:hi]
    return sum(REF_PROBE_S / p for _, p in window) / len(window)


def main(argv) -> int:
    cpu, out_path, period = int(argv[0]), argv[1], float(argv[2])
    os.sched_setaffinity(0, {cpu})
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(1))
    parent = os.getppid()
    samples = []
    for _ in range(20):
        probe()
    # a parent that died without stopping the monitor stops it too
    while not stop and os.getppid() == parent:
        time.sleep(period)
        probe()
        start, c0 = time.monotonic(), time.thread_time_ns()
        probe()
        samples.append((start, (time.thread_time_ns() - c0) / 1e9))
    with open(out_path, "w") as fh:
        fh.writelines(f"{s:.6f} {p:.9f}\n" for s, p in samples)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
