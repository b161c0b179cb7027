"""Seeded inputs, queries and output checks for the benchmark workloads.

``run.py`` builds a run's inputs from the seed; only the selftest inputs
need fullflow (its instance generator) to be drawn.  ``child.py`` parses
them (the timed set-up), runs the queries through fullflow's public API
the way ``fullflow.cli`` does, and checks the results outside the timed
region.

Why each workload exists, and which layers it loads, is written down in
README.md next to this file.
"""

from __future__ import annotations

import random
from functools import partial
from math import comb

WORKLOADS = ("singletons", "groups", "selftest")

# Networks are G(n, m) digraphs: exactly round(ARC_SHARE * n * (n - 1))
# arcs, capacities uniform in 1..MAX_CAPACITY.  A fixed arc count (rather
# than an independent coin per arc) keeps the cost of a pass from drifting
# with the seed, since max-flow work grows with the number of arcs.
ARC_SHARE = 0.3
MAX_CAPACITY = 3

SINGLETONS_VERTICES = 9
SINGLETONS_NETWORKS = 220

GROUPS_VERTICES = 8
GROUPS_NETWORKS = 225
GROUPS_PER_NETWORK = 4
GROUP_SIZES = (2, 3)
# A fiftieth of the default 10**6: the largest search seen on
# these networks took under 10**3 nodes, and one exhausted query then
# costs a few seconds instead of minutes.
GROUPS_NODE_BUDGET = 20_000

# Instance sizes cycle 2..6 as in `fullflow selftest --max-vertices 6`;
# capacity and arc probability are the CLI defaults.  The assignment
# budget is a tenth of the CLI default so that the brute-force oracle,
# whose cost per instance grows with the product of (capacity + 1) over
# the arcs, does not make a few instances dominate a pass.  Instances are
# drawn stratified by arc count (see _selftest_seeds).
SELFTEST_INSTANCES = 600
SELFTEST_SIZES = (2, 3, 4, 5, 6)
SELFTEST_CAPACITY = 2
SELFTEST_ARC_PROBABILITY = 0.4
SELFTEST_ASSIGNMENT_BUDGET = 5_000


def _network_text(rng: random.Random, n: int) -> str:
    tokens = [f"v{i:02d}" for i in range(n)]
    pairs = [(t, h) for t in tokens for h in tokens if t != h]
    lines = ["vertices " + " ".join(tokens)]
    for tail, head in sorted(rng.sample(pairs, round(ARC_SHARE * len(pairs)))):
        lines.append(f"{tail} {head} {rng.randint(1, MAX_CAPACITY)}")
    return "\n".join(lines) + "\n"


def generate(workload: str, seed: int) -> dict:
    """The inputs of one run, as JSON-ready data; same seed, same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "singletons":
        return {
            "networks": [
                _network_text(rng, SINGLETONS_VERTICES)
                for _ in range(SINGLETONS_NETWORKS)
            ]
        }
    if workload == "groups":
        networks, queries = [], []
        tokens = [f"v{i:02d}" for i in range(GROUPS_VERTICES)]
        for index in range(GROUPS_NETWORKS):
            networks.append(_network_text(rng, GROUPS_VERTICES))
            for _ in range(GROUPS_PER_NETWORK):
                group = rng.sample(tokens, rng.choice(GROUP_SIZES))
                queries.append([index, ",".join(group)])
        return {
            "networks": networks,
            "queries": queries,
            "node_budget": GROUPS_NODE_BUDGET,
        }
    if workload == "selftest":
        per_size = SELFTEST_INSTANCES // len(SELFTEST_SIZES)
        seeds = {n: _selftest_seeds(rng, n, per_size) for n in SELFTEST_SIZES}
        return {
            "specs": [
                [n, SELFTEST_CAPACITY, SELFTEST_ARC_PROBABILITY, seeds[n][i]]
                for i in range(per_size)
                for n in SELFTEST_SIZES
            ],
            "assignment_budget": SELFTEST_ASSIGNMENT_BUDGET,
        }
    raise ValueError(f"unknown workload {workload!r}")


def _binomial_quota(trials: int, p: float, total: int) -> dict[int, int]:
    """``total`` split over 0..trials in proportion to Binomial(trials, p),
    rounded by largest remainder so the counts sum to ``total``."""
    shares = [total * comb(trials, k) * p**k * (1 - p) ** (trials - k) for k in range(trials + 1)]
    counts = [int(x) for x in shares]
    by_remainder = sorted(range(trials + 1), key=lambda k: counts[k] - shares[k])
    for k in by_remainder[: total - sum(counts)]:
        counts[k] += 1
    return {k: c for k, c in enumerate(counts) if c}


def _selftest_seeds(rng: random.Random, n: int, count: int) -> list[int]:
    """Instance seeds for ``count`` n-vertex instances, stratified by arc count.

    The oracle's generator draws each arc independently, and an
    instance's cost grows steeply with its arc count.  Seeds are drawn at
    random but kept only while their arc count's quota -- its binomial
    share of ``count`` -- is not yet filled, so every seed gives the same
    arc-count histogram and the cost of a pass varies less between seeds.
    """
    from fullflow.oracle import InstanceSpec, generate

    quota = _binomial_quota(n * (n - 1), SELFTEST_ARC_PROBABILITY, count)
    seeds = []
    while len(seeds) < count:
        seed = rng.randrange(2**63)
        spec = InstanceSpec(n, SELFTEST_CAPACITY, SELFTEST_ARC_PROBABILITY, seed)
        arcs = len(generate(spec).capacities)
        if quota.get(arcs, 0) > 0:
            quota[arcs] -= 1
            seeds.append(seed)
    return seeds


def input_sizes(workload: str, inputs: dict) -> dict:
    """Sizes recorded with every result."""
    if workload == "selftest":
        specs = inputs["specs"]
        return {
            "instances": len(specs),
            "n": sorted({s[0] for s in specs}),
            "capacity": SELFTEST_CAPACITY,
            "arc_probability": SELFTEST_ARC_PROBABILITY,
            "assignment_budget": inputs["assignment_budget"],
        }
    networks = inputs["networks"]
    sizes = {
        "networks": len(networks),
        "n": len(networks[0].split("\n", 1)[0].split()) - 1,
        "arcs": sum(text.count("\n") - 1 for text in networks),
        "max_capacity": MAX_CAPACITY,
    }
    if workload == "groups":
        sizes["groups"] = len(inputs["queries"])
        sizes["node_budget"] = inputs["node_budget"]
    return sizes


def parse(workload: str, inputs: dict) -> list:
    """Set-up: turn the inputs into library objects, one entry per query."""
    import fullflow

    if workload == "selftest":
        return [
            (
                fullflow.InstanceSpec(
                    vertex_count=n, max_capacity=cap, arc_probability=p, seed=s
                ),
                inputs["assignment_budget"],
            )
            for n, cap, p, s in inputs["specs"]
        ]
    networks = [fullflow.parse_network(text) for text in inputs["networks"]]
    if workload == "singletons":
        return networks
    return [
        (networks[index], [tok for tok in text.split(",") if tok], inputs["node_budget"])
        for index, text in inputs["queries"]
    ]


def _centrality_query(network, groups, **options):
    import fullflow

    reports = fullflow.centrality_report(network, groups, **options)
    return "".join(r.record() + "\n" for r in reports), reports


def _selftest_query(spec, assignment_budget):
    import fullflow

    report = fullflow.cross_check([spec], assignment_budget=assignment_budget)
    return report.render(), report


def queries(workload: str, parsed: list) -> list:
    """Zero-argument callables, one per query, each returning (text, result).

    fullflow's functions are looked up at call time, so names rebound by
    the tracer are the ones called.
    """
    if workload == "singletons":
        return [
            partial(_centrality_query, net, [[v] for v in net.vertices])
            for net in parsed
        ]
    if workload == "groups":
        return [
            partial(_centrality_query, net, [group], node_budget=budget)
            for net, group, budget in parsed
        ]
    return [partial(_selftest_query, *query) for query in parsed]


def check(workload: str, results: list) -> list[str]:
    """Invariant violations among the results of the queries that returned."""
    errors = []
    for index, result in enumerate(results):
        if result is None:
            continue
        if workload == "selftest":
            if not result.ok or "violations 0\n" not in result.render():
                errors.append(f"query {index}: selftest reported violations")
            continue
        for report in result:
            vit, bet = report.vitality, report.betweenness
            if bet is None or vit > bet:
                errors.append(
                    f"query {index} group {sorted(report.group)}: "
                    f"vitality {vit} exceeds betweenness {bet}"
                )
            elif len(report.group) == 1 and vit != bet:
                errors.append(
                    f"query {index} singleton {sorted(report.group)}: "
                    f"vitality {vit} differs from betweenness {bet}"
                )
    return errors
