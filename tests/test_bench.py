"""The benchmark's correctness gate, run as a test: every workload must
reproduce its stored output digest byte for byte."""

import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["singletons", "groups", "selftest"])
def test_bench_digest_matches(workload):
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1"],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert f"{workload} check digest_matches pass" in run.stdout.splitlines()
