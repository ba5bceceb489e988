"""Self-check of the traced run.

Usage (from the repository root):
    python3 perfbench/selfcheck.py --workload verify-k3 [--seed 1]

Makes two traced runs of one workload with the same seed.  Each traced run
already checks both its untraced and its traced outputs against the hashes
in expected.json; this script adds that every count metric repeats exactly
between the two runs.  Exits 1 when either check fails.
"""

import argparse
import json
import subprocess
import sys

import run
import workloads


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    first, second = (traced_run(args.workload, args.seed) for _ in range(2))
    ok = first["correct"] and second["correct"]
    print(f"outputs match the recorded hashes: {ok}")
    for name, metric in first["metrics"].items():
        a, b = metric["value"], second["metrics"][name]["value"]
        if metric["unit"] == "count":
            ok = ok and a == b
            mark, shown = ("same" if a == b else "DIFFERENT"), f"{a} / {b}"
        else:
            mark, shown = "", f"{a:.6g} / {b:.6g}"
        print(f"{mark:9s} {name} = {shown} {metric['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
