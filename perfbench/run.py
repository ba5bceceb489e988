"""quadricops benchmark: verify-k3, verify-k4 and cli-session.

Usage (from the repository root):
    python3 perfbench/run.py --workload verify-k3 --seed 1 --seconds 30 \
        --trace 0

The engine is a black box: every unit of work runs in fresh child
processes that drive the public API (`run_suite`) or the CLI.  A unit is
one verify pass or one CLI session.  The run pins itself and its children
to one vCPU, where the speed monitor (speed.py) samples how fast that vCPU
runs; every reported time is scaled, by the samples taken while it was
measured, to the time the work would take at the reference speed.  A run repeats the same unit
round(--seconds / UNIT_S) times (at least once) and takes each operation's
median scaled time over the repeats; the latency metrics are taken over
those medians.  With --trace 1 the run makes one untraced and one traced
unit and reports the per-layer metrics instead.  Every output is checked
against the sha256 recorded in expected.json.  The last stdout line is the
JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
EXPECTED = HERE / "expected.json"
MAX_DEGREE = "6"
# A round figure for the length of one unit.  It fixes how many units a
# given --seconds buys, so the parent and a change measure the same number
# of repeats.
UNIT_S = {"verify-k3": 15.0, "verify-k4": 30.0, "cli-session": 15.0}
SETUP_SAMPLES = 10     # import samples before each verify unit
RUN_BUDGET_S = 170.0
CLI_SUBCOMMANDS = ["reduce", "fourier-transform", "kelvin", "bessel",
                   "boundary", "counterexample-n2", "moment", "harmonic",
                   "shapovalov"]


def child_env() -> dict:
    """The caller's environment minus anything that steers Python or the
    engine, plus the pinned engine settings."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "QUADRICOPS_"))}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               QUADRICOPS_MAX_DEGREE=MAX_DEGREE)
    return env


class Budget:
    def __init__(self, seconds: float):
        self.deadline = time.monotonic() + seconds

    def run(self, cmd, **kwargs):
        timeout = max(1.0, self.deadline - time.monotonic())
        return subprocess.run(cmd, env=child_env(), cwd=ROOT,
                              capture_output=True, timeout=timeout, **kwargs)


def bench_cpu() -> int:
    """The vCPU the run pins itself, its children and the monitor to."""
    return max(os.sched_getaffinity(0))


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def tail(samples: list) -> float:
    """The highest order statistic with ten samples beyond it (the maximum
    when there are ten or fewer samples)."""
    s = sorted(samples)
    return s[-11] if len(s) > 10 else s[-1]


IMPORT_CODE = ("import time; t = time.monotonic(); import quadricops; "
               "print(t, time.monotonic() - t)")


def measure_setup(budget: Budget) -> list:
    """Import time of quadricops in fresh processes: (start, seconds)."""
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = budget.run([sys.executable, "-c", IMPORT_CODE], check=True)
        start, seconds = map(float, proc.stdout.split())
        out.append((start, seconds))
    return out


# -- units ----------------------------------------------------------------

class Unit:
    """Result of one verify pass or one CLI session."""

    def __init__(self):
        self.ops = []          # (name, latency_s, ok, start, end)
        self.failures = []     # (name, reason)
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.peak_rss_mb = 0.0
        self.import_s = []     # cli-session: launcher (start, import_s)
        self.main_s = {}       # cli-session: subcommand -> [(start, main_s)]
        self.spans = []        # traced unit: one span list per process


def verify_unit(workload, seed, trace, budget, expected, tag) -> Unit:
    k, _ = workloads.VERIFY[workload]
    order = workloads.suite_order(workload, seed)
    out, spans = OUT / f"{tag}.json", OUT / f"{tag}.spans.json"
    unit = Unit()
    cpu0 = children_cpu_s()
    try:
        proc = budget.run([sys.executable, str(HERE / "verify_child.py"),
                           str(k), ",".join(order), str(trace), str(out),
                           str(spans)])
    except subprocess.TimeoutExpired:
        proc = None
    unit.cpu_s = children_cpu_s() - cpu0
    if proc is None or proc.returncode != 0:
        reason = "timeout" if proc is None else proc.stderr.decode()[-2000:]
        for name in order:
            unit.ops.append((name, float("nan"), False, 0.0, 0.0))
            unit.failures.append((name, reason))
        return unit
    data = json.loads(out.read_text())
    unit.wall_s, unit.peak_rss_mb = data["wall_s"], data["peak_rss_mb"]
    for entry in data["suites"]:
        name = entry["suite"]
        want = expected["verify"].get(f"k{k}/{name}")
        ok = entry["ok"] and entry.get("sha256") == want
        unit.ops.append((name, entry["wall_s"], ok, entry["start"],
                         entry["start"] + entry["wall_s"]))
        if "error" in entry:
            unit.failures.append((name, entry["error"]))
        elif not entry["ok"]:
            unit.failures.append((name, "a check is not ok"))
        elif not ok:
            unit.failures.append(
                (name, f"output sha256 {entry['sha256']} != {want}"))
    if trace:
        unit.spans = [tracer.load(str(spans))]
    return unit


def cli_command(argv, trace, budget, tag, request):
    """Spawn one launcher; returns (start, latency_s, stdout, exit code,
    timing)."""
    timing, spans = OUT / f"{tag}.timing.json", OUT / f"{tag}.spans.json"
    cmd = [sys.executable, str(HERE / "launcher.py"), str(timing), str(trace),
           str(request), str(spans), "--", *argv]
    start = time.monotonic()
    proc = budget.run(cmd)
    latency = time.monotonic() - start
    info = json.loads(timing.read_text()) if timing.exists() else None
    if info is not None and trace:
        info["spans"] = tracer.load(str(spans))
    return start, latency, proc.stdout, proc.returncode, info


def output_digest(stdout: bytes, code: int) -> str:
    return hashlib.sha256(stdout + b"\nexit=%d\n" % code).hexdigest()


def cli_unit(seed, trace, budget, expected, tag) -> Unit:
    unit = Unit()
    cpu0 = children_cpu_s()
    session_start = time.monotonic()
    for index, (kind, argv) in enumerate(workloads.session(seed)):
        name = " ".join(argv)
        try:
            start, latency, stdout, code, info = cli_command(
                argv, trace, budget, f"{tag}.{index}", index)
        except subprocess.TimeoutExpired:
            unit.ops.append((name, float("nan"), False, 0.0, 0.0))
            unit.failures.append((name, "timeout"))
            continue
        want = expected["cli"].get(json.dumps(argv))
        ok = (want is not None and code == workloads.expected_exit(kind)
              and output_digest(stdout, code) == want and info is not None)
        unit.ops.append((name, latency, ok, start, start + latency))
        if not ok:
            unit.failures.append(
                (name, f"exit {code}, output sha256 "
                       f"{output_digest(stdout, code)} != {want}"))
        if info is not None:
            unit.import_s.append((info["import_start"], info["import_s"]))
            unit.main_s.setdefault(argv[0], []).append(
                (info["main_start"], info["main_s"]))
            unit.peak_rss_mb = max(unit.peak_rss_mb, info["peak_rss_mb"])
            if trace:
                unit.spans.append(info["spans"])
    unit.wall_s = time.monotonic() - session_start
    unit.cpu_s = children_cpu_s() - cpu0
    return unit


def run_unit(workload, seed, trace, budget, expected, tag) -> Unit:
    if workload == "cli-session":
        return cli_unit(seed, trace, budget, expected, tag)
    return verify_unit(workload, seed, trace, budget, expected, tag)


# -- metrics --------------------------------------------------------------

def scaled(samples, start, seconds) -> float:
    """A time measured from `start`, scaled to the reference speed."""
    return seconds * speed.factor(samples, start, start + seconds)


def op_latencies(units, samples) -> list:
    """Each operation's median scaled time over the units of a run.  Every
    unit of a run repeats the same operations in the same order."""
    per_unit = ([scaled(samples, start, lat) for _, lat, _, start, _ in u.ops]
                for u in units)
    return [statistics.median(calls) for calls in zip(*per_unit)]


def end_to_end(units, setup, samples) -> dict:
    if any(u.failures for u in units):
        return {}
    ops = op_latencies(units, samples)
    return {
        "wall_s": (sum(ops), "s"),
        "setup_s": (statistics.median(scaled(samples, *s) for s in setup),
                    "s"),
        "op_p50_ms": (statistics.median(ops) * 1e3, "ms"),
        "op_tail_ms": (tail(ops) * 1e3, "ms"),
        "peak_rss_mb": (max(u.peak_rss_mb for u in units), "MB"),
    }


def per_layer(plain: Unit, traced: Unit, samples) -> dict:
    out = tracer.aggregate(traced.spans)
    suite_wall = {name: scaled(samples, start, lat)
                  for name, lat, _, start, _ in plain.ops}
    for name in workloads.SUITE_ORDER:
        out[f"suites.{name}.wall_s"] = (suite_wall.get(name, 0.0), "s")
    out["cli.import_ms"] = (statistics.median(
        scaled(samples, *s) for s in plain.import_s) * 1e3
        if plain.import_s else 0.0, "ms")
    for sub in CLI_SUBCOMMANDS:
        calls = [scaled(samples, *c) for c in plain.main_s.get(sub, [])]
        out[f"cli.main.{sub}.p50_ms"] = (statistics.median(calls) * 1e3
                                         if calls else 0.0, "ms")
    plain_s, traced_s = (sum(scaled(samples, start, lat)
                             for _, lat, _, start, _ in u.ops)
                         for u in (plain, traced))
    out["trace.overhead_frac"] = (traced_s / plain_s - 1
                                  if plain_s else 0.0, "ratio")
    return out


# -- run record -------------------------------------------------------------

def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def unit_speed(unit, samples) -> float:
    """Scaled over measured time of a unit's operations: 1 at the reference
    speed, lower when the vCPU ran slower."""
    spans = [(start, lat) for _, lat, ok, start, _ in unit.ops if ok]
    measured = sum(lat for _, lat in spans)
    return (sum(scaled(samples, *s) for s in spans) / measured
            if measured else 0.0)


def measure(args, expected):
    """Run the units of one run; returns (units, setup samples)."""
    # the budget only guards against a hung child; a long --seconds
    # widens it
    budget = Budget(max(RUN_BUDGET_S, 3 * args.seconds))
    # one warm-up import writes the bytecode cache
    budget.run([sys.executable, "-c", IMPORT_CODE], check=True)
    verify = args.workload != "cli-session"
    count = (2 if args.trace else
             max(1, round(args.seconds / UNIT_S[args.workload])))
    units, setup = [], []
    for index in range(count):
        if verify:
            setup += measure_setup(budget)
        units.append(run_unit(args.workload, args.seed,
                              int(args.trace and index == 1), budget,
                              expected, f"unit{index}"))
    if not verify:
        setup = [s for u in units for s in u.import_s]
    return units, setup


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "quadricops" / "__init__.py").is_file():
        sys.stderr.write(f"error: no engine source under {SRC}\n")
        return 2
    expected = json.loads(EXPECTED.read_text())
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir()

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "commit": commit(),
              "python": platform.python_version(), "nproc": os.cpu_count(),
              "loadavg_start": os.getloadavg()}
    # the run, its children and the monitor share one vCPU, so the monitor
    # samples the speed that the measured work gets
    cpu = bench_cpu()
    os.sched_setaffinity(0, {cpu})
    monitor = speed.Monitor(cpu, OUT / "speed.txt")
    try:
        units, setup = measure(args, expected)
    finally:
        samples = monitor.stop()
    record.update(cpu=cpu, speed_samples=len(samples),
                  units=len(units), loadavg_end=os.getloadavg(),
                  unit_wall_s=[u.wall_s for u in units],
                  unit_cpu_s=[u.cpu_s for u in units],
                  unit_speed=[unit_speed(u, samples) for u in units],
                  setup_samples_s=[s for _, s in setup])

    attempted = sum(len(u.ops) for u in units)
    failed = sum(1 for u in units for _, _, ok, _, _ in u.ops if not ok)
    if args.trace:
        metrics = per_layer(*units, samples) if failed == 0 else {}
    else:
        metrics = end_to_end(units, setup, samples)

    print("# run " + json.dumps(record))
    for u in units:
        for name, reason in u.failures:
            last = reason.strip().splitlines()[-1:] or ["?"]
            print(f"# FAILED {name}: {last[0]}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed}/{attempted} "
          f"operations)")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
