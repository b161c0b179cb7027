"""The benchmark's correctness gate, run as a test: every workload must
reproduce its stored output digest byte for byte."""

import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _check_digest(workload, seed):
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1"],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert f"{workload} check digest_matches pass" in run.stdout.splitlines()


@pytest.mark.parametrize("workload", ["singletons", "groups", "selftest"])
def test_bench_digest_matches(workload):
    _check_digest(workload, 1)


def test_bench_groups_seed_6_digest_matches():
    # seed 6 holds the largest passage search of seeds 1-10 (15 candidate
    # paths, 13,684 nodes against a budget of 20,000), so its digest is the
    # first to change when the search's order or its budget does
    _check_digest("groups", 6)


def test_bench_singletons_seed_2_digest_matches():
    # the singleton path (the endpoint rule and the G - X capacities of the
    # restricted flow) is checked on a second seed's networks
    _check_digest("singletons", 2)


def test_bench_selftest_seed_2_digest_matches():
    # the oracle's arc ends, the cost vectors and the conversions to flows
    # and sequences that cross_check runs on every pair, on a second seed
    _check_digest("selftest", 2)


def test_bench_selftest_seed_4_digest_matches():
    # the throughputs the min cut settles and those it leaves to cycle
    # cancelling, on a seed held out from the work counts of seed 1
    _check_digest("selftest", 4)


def test_bench_selftest_seed_7_digest_matches():
    # the checks cross_check makes on arc ids, on the seed held out from
    # the timings of seed 1
    _check_digest("selftest", 7)


def test_bench_groups_seed_2_digest_matches():
    # the cut rule and the throughput read one min cut per pair in one walk
    # over the members' arcs; the multi-vertex groups, whose arcs between
    # members the walk counts once in C_X, on a second seed's networks
    _check_digest("groups", 2)
