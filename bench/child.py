"""One benchmark pass in a fresh process.

Reads a job (JSON on stdin) from ``run.py``, imports fullflow from the
checkout's ``src/`` and parses the inputs (the set-up), runs every query
unless the job asks for set-up only, checks the outputs outside the timed
region and prints one JSON result line on stdout.  Speed probes (see
probe.py) run after the set-up, between queries and at the end; their
time is in no measured interval.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main() -> int:
    job = json.load(sys.stdin)
    name = job["workload"]
    src = Path(job["src"])

    # nothing fullflow imports is imported before this point, so set-up
    # pays for the whole import, as the CLI does
    start = time.perf_counter()
    sys.path.insert(0, str(src))
    import fullflow
    import workloads

    parse_start = time.perf_counter()
    parsed = workloads.parse(name, job["inputs"])
    setup_end = time.perf_counter()
    if not Path(fullflow.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: fullflow imported from {fullflow.__file__}", file=sys.stderr)
        return 2

    import hashlib
    import resource

    import probe
    import tracer

    result = {
        "setup_s": setup_end - start,
        "parse_s": setup_end - parse_start,
        "probes": [[0, probe.probe()]],  # [queries done, probe seconds]
    }
    if job["setup_only"]:
        print(json.dumps(result))
        return 0

    trace = tracer.Tracer() if job["trace"] else None
    if trace is not None:
        trace.install()
    calls = workloads.queries(name, parsed)
    query_s, chunks, results, broken = [], [], [], []
    failed = 0
    probed = time.perf_counter()
    for index, call in enumerate(calls):
        t = time.perf_counter()
        try:
            text, outcome = call()
        except Exception as exc:  # a failed query is counted, never fatal
            text, outcome = f"failed {index} {type(exc).__name__}\n", None
            failed += 1
            if isinstance(exc, fullflow.InvariantViolationError):
                broken.append(f"query {index}: {exc}")
        query_s.append(time.perf_counter() - t)
        chunks.append(text)
        results.append(outcome)
        if time.perf_counter() - probed >= probe.PROBE_EVERY_S:
            result["probes"].append([index + 1, probe.probe()])
            probed = time.perf_counter()
    result["probes"].append([len(calls), probe.probe()])

    output = "".join(chunks).encode()
    result.update(
        run_s=(setup_end - start) + sum(query_s),
        query_s=query_s,
        attempted=len(calls),
        failed=failed,
        digest=hashlib.sha256(output).hexdigest(),
        output_bytes=len(output),
        errors=(broken + workloads.check(name, results))[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if trace is not None:
        result["trace"] = trace.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
