"""Every output the benchmark checks must match its recorded hash.

``perfbench/run.py`` rejects a run whose output differs from the sha256
recorded in ``perfbench/expected.json``: each CLI command of the session
pools hashes ``stdout + "\\nexit=N\\n"``, and each verify suite the JSON
report.  Here every pool command runs in process through ``cli.main`` and
every k=3 suite through ``run_suite``, so an output drift surfaces with the
tests rather than when the benchmark runs.  The perfbench files are loaded
from their paths and only read.
"""

import hashlib
import importlib.util
import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from quadricops import cli
from quadricops.suites import emit, run_suite

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_in_process(argv) -> tuple:
    """stdout and exit code of one command, as the benchmark's launcher
    reports them; stderr is dropped."""
    out = StringIO()
    with redirect_stdout(out), redirect_stderr(StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
    return out.getvalue().encode(), code


def test_cli_pools_reproduce_the_recorded_outputs():
    workloads = load_workloads()
    expected = json.loads((PERFBENCH / "expected.json").read_text())["cli"]
    drifted, count = [], 0
    for pool in workloads.pools().values():
        for argv in pool:
            argv = workloads.with_format(argv)
            stdout, code = run_in_process(argv)
            digest = hashlib.sha256(stdout + b"\nexit=%d\n" % code).hexdigest()
            if digest != expected[json.dumps(argv)]:
                drifted.append(argv)
            count += 1
    assert drifted == []
    assert count == len(expected)


def test_k3_suites_reproduce_the_recorded_reports():
    workloads = load_workloads()
    expected = json.loads((PERFBENCH / "expected.json").read_text())["verify"]
    k, order = workloads.VERIFY["verify-k3"]
    drifted = [name for name in order
               if hashlib.sha256(emit(run_suite(name, k), "json")).hexdigest()
               != expected[f"k{k}/{name}"]]
    assert drifted == []
