"""fullflow benchmark: fixed-seed workloads, timed end to end, traced per layer.

Usage, from the root of a checkout::

    python3 bench/run.py --workload singletons|groups|selftest|all \\
        [--seed N] [--seconds S] [--trace 0|1]

Each pass runs in a fresh child process (``child.py``), one child at a
time, over the inputs the seed generates.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced pass.  Every line but the last is for people: run metadata, each
metric with its unit, the correctness gate.  The last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when the correctness gate passes, 1 when
it fails, and 2 when the benchmark could not run at all (no result line).
README.md next to this file documents every metric and workload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"

# an untraced run times set-up in this many set-up-only children before
# its passes and as many after them, besides the set-up of each pass, so
# that the samples span the run rather than one moment of it
SETUP_SAMPLES = 3
# every run makes at least this many passes, each with its own hash seed,
# so that passes_agree can fail on every run
MIN_PASSES = 2
# a run ends, with whatever it measured, well inside this many seconds
HARD_LIMIT_S = 170.0
# query_tail_ms is the highest of these percentiles with at least
# TAIL_BEYOND queries beyond it
TAIL_PERCENTILES = (90, 99, 99.9)
TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_child(job: dict, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a pass could start")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py")],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(
            f"pass exited with code {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def nearest_rank(values: list[float], percent: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(percent / 100 * len(ordered))) - 1]


def tail_percentile(count: int) -> float:
    best = 50
    for percent in TAIL_PERCENTILES:
        if count - math.ceil(percent / 100 * count) >= TAIL_BEYOND:
            best = percent
    return best


def speed(result: dict) -> float:
    """Factor from a child's seconds to seconds at the nominal speed."""
    return probe.NOMINAL_S / statistics.fmean(d for _, d in result["probes"])


def scaled_setup(result: dict) -> float:
    """Set-up seconds at the nominal speed, by the probe right after it."""
    return result["setup_s"] * probe.NOMINAL_S / result["probes"][0][1]


def scaled_queries(result: dict) -> list[float]:
    """Query latencies at the nominal speed, each by the probes around it."""
    probes, latencies = result["probes"], result["query_s"]
    scaled = []
    for (start, before), (end, after) in zip(probes, probes[1:]):
        factor = probe.NOMINAL_S / ((before + after) / 2)
        scaled += [t * factor for t in latencies[start:end]]
    return scaled


def scaled_run(result: dict) -> float:
    return scaled_setup(result) + sum(scaled_queries(result))


def run_passes(job: dict, seconds: float, deadline: float, trace: bool) -> list:
    """Passes until the next one would end after ``seconds``; at least
    ``MIN_PASSES``, unless the hard limit comes first.

    A traced run makes one untraced pass first, to measure the overhead.
    """
    start = time.monotonic()
    passes = []
    while True:
        traced = trace and bool(passes)
        began = time.monotonic()
        passes.append(run_child(dict(job, trace=traced, setup_only=False), deadline))
        passes[-1]["traced"] = traced
        now = time.monotonic()
        took = now - began
        if now + took > deadline:
            return passes
        if len(passes) >= MIN_PASSES and now - start + took > seconds and traced == trace:
            return passes


def measure(name: str, seed: int, seconds: float, trace: bool, timed: set) -> dict:
    """One run of one workload; returns metrics, checks and metadata.

    Every metric named in ``timed`` is in seconds at the nominal speed.
    """
    began = time.monotonic()
    deadline = began + HARD_LIMIT_S
    inputs = workloads.generate(name, seed)
    job = {"workload": name, "inputs": inputs, "src": str(SRC)}
    setup_job = dict(job, trace=False, setup_only=True)
    setups = [] if trace else [run_child(setup_job, deadline) for _ in range(SETUP_SAMPLES)]
    remaining = seconds - (time.monotonic() - began)
    passes = run_passes(job, remaining, deadline, trace)
    if not trace:
        setups += [run_child(setup_job, deadline) for _ in range(SETUP_SAMPLES)]
        setups += passes

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if trace and not traced:
        raise BenchError(f"no traced pass fit in {HARD_LIMIT_S:.0f} s")
    digests = sorted({p["digest"] for p in passes})
    errors = [e for p in passes for e in p["errors"]]
    expected = load_digests().get(name, {}).get(str(seed))
    gate = {
        "invariants": not errors,
        "passes_agree": len(digests) == 1,
        "digest_matches": expected is None or digests == [expected],
    }
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    # one latency per query: its median over the passes that ran it
    per_query = [statistics.median(q) for q in zip(*map(scaled_queries, plain))]
    tail = tail_percentile(len(per_query))
    meta = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "inputs": workloads.input_sizes(name, inputs),
        "passes": len(plain),
        "traced_passes": len(traced),
        "setup_samples": len(setups),
        "query_samples": len(per_query),
        "tail_percentile": tail,
        "output_bytes": passes[0]["output_bytes"],
        "digest": digests[0] if len(digests) == 1 else digests,
        "speed": [round(speed(p), 4) for p in passes],
        "wall_run_s": statistics.median(p["run_s"] for p in plain),
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "expected_digest": expected,
        "wall_s": round(time.monotonic() - began, 3),
    }
    run_s = statistics.median(map(scaled_run, plain))
    if trace:
        values, absent = layer_metrics(traced, timed)
        values["trace.run_s"] = statistics.median(map(scaled_run, traced))
        values["trace.overhead_s"] = values["trace.run_s"] - run_s
        values["network.parse_s"] = statistics.median(
            p["parse_s"] * speed(p) for p in traced
        )
        meta["absent"] = absent
    else:
        values = {
            "run_s": run_s,
            "query_p50_ms": 1e3 * nearest_rank(per_query, 50),
            "query_tail_ms": 1e3 * nearest_rank(per_query, tail),
            "setup_s": statistics.median(map(scaled_setup, setups)),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
    return {
        "meta": meta,
        "values": values,
        "gate": gate,
        "errors": errors[:20],
        "attempted": attempted,
        "failed": failed,
    }


def layer_metrics(traced: list, timed: set) -> tuple[dict, list]:
    """Median of each per-layer metric over the traced passes."""
    values = {
        name: statistics.median(
            p["trace"]["values"][name] * (speed(p) if name in timed else 1)
            for p in traced
        )
        for name in traced[0]["trace"]["values"]
    }
    absent = sorted({a for p in traced for a in p["trace"]["absent"]})
    return values, absent


def load_digests() -> dict:
    try:
        return json.loads(DIGESTS.read_text())
    except FileNotFoundError:
        return {}


def declared_metrics(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in entries}


def report(outcome: dict, units: dict) -> None:
    """Human-readable lines for one workload run."""
    meta = outcome["meta"]
    name = meta["workload"]
    print(f"meta {json.dumps(meta, sort_keys=True)}")
    for metric, unit in units.items():
        value = outcome["values"].get(metric)
        note = ""
        if metric == "query_tail_ms":
            note = f"  (p{meta['tail_percentile']} of {meta['query_samples']} queries)"
        if metric in meta.get("absent", ()):
            note = "  (absent: not measurable on this code)"
        print(f"{name} {metric} {value:.6g} {unit}{note}")
    if not meta["trace"]:
        frac = outcome["failed"] / outcome["attempted"]
        print(
            f"{name} failed_frac {frac:.6g} "
            f"({outcome['failed']} of {outcome['attempted']} queries raised)"
        )
    for check, ok in outcome["gate"].items():
        print(f"{name} check {check} {'pass' if ok else 'FAIL'}")
    for error in outcome["errors"]:
        print(f"{name} error {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fullflow" / "__init__.py").is_file():
        print(f"error: no fullflow sources under {SRC}", file=sys.stderr)
        return 2
    # the selftest inputs are drawn with fullflow's own instance generator
    sys.path.insert(0, str(SRC))
    trace = bool(args.trace)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        units = declared_metrics(trace)
        timed = {name for name, unit in units.items() if unit == "s"}
        outcomes = [
            measure(name, args.seed, args.seconds, trace, timed) for name in names
        ]
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for outcome in outcomes:
        report(outcome, units)
    correct = all(all(o["gate"].values()) for o in outcomes)
    prefix = len(outcomes) > 1
    metrics = {
        (f"{o['meta']['workload']}.{m}" if prefix else m): {
            "value": o["values"][m],
            "unit": unit,
        }
        for o in outcomes
        for m, unit in units.items()
    }
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(o["attempted"] for o in outcomes),
                "failed": sum(o["failed"] for o in outcomes),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
