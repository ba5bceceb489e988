"""Record the output hashes that run.py checks, into expected.json.

Usage (from the repository root): python3 perfbench/record.py

Runs every verify suite of verify-k3 and verify-k4 once and every command
of the cli-session pools once, untraced, with the same pinned environment
as run.py.  Run it only on a commit whose outputs are known good: later
runs treat any other output as a failure.
"""

import json
import shutil
import sys

import run
import workloads


def main() -> int:
    shutil.rmtree(run.OUT, ignore_errors=True)
    run.OUT.mkdir()
    budget = run.Budget(3600)
    expected = {"verify": {}, "cli": {}}
    for workload, (k, _) in workloads.VERIFY.items():
        run.verify_unit(workload, 0, 0, budget, {"verify": {}}, workload)
        data = json.loads((run.OUT / f"{workload}.json").read_text())
        for entry in data["suites"]:
            if not entry["ok"]:
                sys.exit(f"k={k} {entry['suite']}: a check is not ok")
            expected["verify"][f"k{k}/{entry['suite']}"] = entry["sha256"]
            print(f"{entry['wall_s']:8.3f} s  verify {entry['suite']} --k {k}")
    for kind, pool in workloads.pools().items():
        for argv in pool:
            argv = workloads.with_format(argv)
            _, latency, stdout, code, info = run.cli_command(
                argv, 0, budget, "record", 0)
            if code != workloads.expected_exit(kind):
                sys.exit(f"{argv}: exit {code}, expected "
                         f"{workloads.expected_exit(kind)}")
            expected["cli"][json.dumps(argv)] = run.output_digest(stdout, code)
            print(f"{latency:8.3f} s  {kind:18s} {' '.join(argv)}")
    with open(run.EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
