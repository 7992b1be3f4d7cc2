"""The benchmark's traced runs, each in a fresh interpreter.

A collected pytest run imports every sepcheck module, which hides a
module that the tracer needs but that the benchmark harness never imports.
A standalone ``perfbench/run.py --trace 1`` run sees only what the harness
and the library load themselves.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["rank_n", "eligible", "cli"])
def test_traced_tiny_run(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", "1", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    json.loads(proc.stdout.strip().splitlines()[-1])
