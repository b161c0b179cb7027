"""Brute-force references and randomized cross-checking at desk scale.

The flow oracle enumerates raw arc assignments and filters by the
conservation law -- a genuinely different code path from the augmenting
search, so shared assumptions cannot hide a bug.  One walk serves every
ordered pair: a subtree is cut as soon as two vertices whose incident arcs
are all assigned both send net flow out, or both take net flow in, as no
flow of any pair lies below it.

Instance generation is reproducible: a spec fixes the vertex count,
capacity bound, arc probability and seed, and the same spec always yields
the same network.  ``cross_check`` runs a batch of specs against the
solvers, scoring a pair's groups, by the member ids of one encoding per
instance, against vertex masks of its enumerated paths and outflow vectors
of its oracle flows, and reports violations verbatim instead of raising.
"""

from __future__ import annotations

import random
from contextlib import suppress
from itertools import permutations
from math import prod
from typing import Callable, Sequence

from .errors import BudgetExceededError, InvalidSpecError
from .flows import _as_flow, decompose, recompose, validate_flow
from .network import Network, VertexId, _Value
from .paths import is_arc_disjoint
from .quantities import (
    DEFAULT_NODE_BUDGET,
    _least_throughput,
    _max_sequences,
    encode_groups,
    render_group,
    settle_pair,
)

GENERATOR_ID = "python-random-mersenne-twister"
DEFAULT_ASSIGNMENT_BUDGET = 10**7
_RANDOM_GROUPS = 2  # sampled groups per instance besides the empty and whole set

_TOKEN_POOL = ("a", "b", "c", "d", "e", "f")


class InstanceSpec(_Value):
    """Deterministic recipe for one random network."""

    _fields = ("vertex_count", "max_capacity", "arc_probability", "seed")

    def __init__(
        self, vertex_count: int, max_capacity: int, arc_probability: float, seed: int
    ):
        values = (vertex_count, max_capacity, arc_probability, seed)
        for name, value in zip(self._fields, values):
            kind = "a number" if name == "arc_probability" else "an integer"
            types = (int, float) if kind == "a number" else int
            if isinstance(value, bool) or not isinstance(value, types):
                raise InvalidSpecError(name, f"{value!r} is not {kind}")
        if not 2 <= vertex_count <= 6:
            raise InvalidSpecError("vertex_count", f"{vertex_count} outside 2..6")
        if not 0 <= max_capacity <= 3:
            raise InvalidSpecError("max_capacity", f"{max_capacity} outside 0..3")
        if not 0 <= arc_probability <= 1:
            raise InvalidSpecError(
                "arc_probability", f"{arc_probability} outside [0, 1]"
            )
        if not 0 <= seed < 2**64:
            raise InvalidSpecError("seed", f"{seed} not a 64-bit integer")
        self._set(*values)


def generate(spec: InstanceSpec) -> Network:
    """Pseudorandom network: each ordered pair independently gets a uniform
    capacity in [1, max_capacity] with the arc probability, else 0."""
    rng = random.Random(spec.seed)
    tokens = _TOKEN_POOL[: spec.vertex_count]
    caps = {}
    for tail in tokens:
        for head in tokens:
            if tail == head:
                continue
            hit = rng.random() < spec.arc_probability
            if hit and spec.max_capacity > 0:
                caps[(tail, head)] = rng.randint(1, spec.max_capacity)
    return Network(tokens, caps)


def brute_force_flows(
    network: Network,
    *,
    assignment_budget: int = DEFAULT_ASSIGNMENT_BUDGET,
) -> dict[tuple[VertexId, VertexId], tuple[int, list[tuple[int, ...]]]]:
    """Enumerate every integral assignment within capacity once, and keep
    the maximum flows of every ordered pair as ``(value, assignments)``.

    An assignment is the tuple of arc values indexed by arc id of
    ``network.compiled``; each pair's are in enumeration order.  An
    assignment that conserves flow at every vertex is a circulation, a
    flow of value 0 for every pair; one whose only unbalanced vertices are
    u, with net outflow, and v, with net inflow k, is a flow of value k for
    (u, v).  Every pair with no flow of positive value shares one
    ``(0, circulations)`` entry.
    The budget bounds the size of the raw assignment space
    (product of capacity+1 over the positive arcs); larger instances raise
    BudgetExceededError up front.
    """
    net = network.compiled
    arcs, caps = net.arcs, net.capacities
    space = prod(c + 1 for c in caps)
    if space > assignment_budget:
        raise BudgetExceededError(
            f"assignment space {space} exceeds budget {assignment_budget}",
            partial=0,
            nodes=0,
        )
    # a vertex's net flow is settled once its incident arcs are all
    # assigned, that is at the last arc index touching it
    last_index = {v: idx for idx, pair in enumerate(arcs) for v in pair}
    settles: list[tuple[int, ...]] = [()] * len(arcs)
    for vertex, idx in last_index.items():
        settles[idx] += (vertex,)
    balance = [0] * len(net.neighbors)
    assignment: list[int] = [0] * len(arcs)
    # (source, sink) -> (value, assignments); (-1, -1) keeps the circulations
    best: dict[tuple[int, int], tuple[int, list[tuple[int, ...]]]] = {}

    def leaf(source: int, sink: int):
        value = balance[sink] if sink >= 0 else 0
        kept = best.get((source, sink))
        if kept is None or value > kept[0]:
            best[source, sink] = value, [tuple(assignment)]
        elif value == kept[0]:
            kept[1].append(tuple(assignment))

    def rec(idx: int, source: int, sink: int):
        # source and sink are the settled vertices with net outflow and net
        # inflow, -1 while there is none; no flow of any pair lies below a
        # node with two of either kind
        if idx == len(arcs):
            leaf(source, sink)
            return
        (tail, head), settled = arcs[idx], settles[idx]
        for val in range(caps[idx] + 1):
            assignment[idx] = val
            balance[tail] -= val
            balance[head] += val
            out, into = source, sink
            for v in settled:
                if balance[v] < 0:
                    if out >= 0:
                        break
                    out = v
                elif balance[v] > 0:
                    if into >= 0:
                        break
                    into = v
            else:
                rec(idx + 1, out, into)
            balance[tail] += val
            balance[head] -= val

    rec(0, -1, -1)
    return {
        (y, z): best.get((s, t), best[-1, -1])
        for (s, y), (t, z) in permutations(enumerate(net.vertices), 2)
    }


class CrossCheckReport:
    """A batch run's outcome, counted as it runs; violations verbatim, not raised."""

    def __init__(
        self,
        generator: str,
        instances: int,
        pairs_checked: int = 0,
        assertions: int = 0,
        oracle_skips: int = 0,
        enumeration_skips: int = 0,
        violations: list[str] | None = None,
    ):
        self.generator = generator
        self.instances = instances
        self.pairs_checked = pairs_checked
        self.assertions = assertions
        self.oracle_skips = oracle_skips
        self.enumeration_skips = enumeration_skips
        self.violations = [] if violations is None else violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        lines = [
            f"generator {self.generator}",
            f"instances {self.instances}",
            f"pairs_checked {self.pairs_checked}",
            f"assertions {self.assertions}",
            f"oracle_skips {self.oracle_skips}",
            f"enumeration_skips {self.enumeration_skips}",
            f"violations {len(self.violations)}",
        ]
        lines.extend(f"violation: {v}" for v in self.violations)
        return "\n".join(lines) + "\n"


def cross_check(
    batch: Sequence[InstanceSpec],
    *,
    assignment_budget: int = DEFAULT_ASSIGNMENT_BUDGET,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> CrossCheckReport:
    """Verify the solvers against first principles on every batch instance.

    Per instance and ordered pair: the decomposition round-trips and its
    paths are arc-disjoint with length equal to the flow value; when the
    assignment space fits the budget, the oracle's maximum flows are valid
    and of the solver's value.  Then, for every singleton and sampled
    group, the minimum passage over the complete enumeration equals the
    passage :func:`settle_pair` gives (without ``exact``) and lies in the
    chain drop <= passage <= min(throughput, max flow), all three equal
    for a singleton; and the oracle's least throughput equals the forced
    throughput.  One oracle walk and one :func:`encode_groups` per instance
    serve every pair: :func:`settle_pair` and the throughput, once per
    pair, take the encoding, and its member ids, as one vertex mask per
    group, score a pair's groups against the vertex masks of its
    enumerated paths, as the enumeration yields them (see
    :func:`passage_count`), and its validated oracle flows as per-vertex
    outflows, the value at the endpoints (see :func:`flow_through`).  The
    passages checked against them come from :func:`settle_pair`, whose
    rules 1 to 7 read no mask.  An enumeration or assignment space over
    budget is skipped and counted per pair, never silently dropped.
    """
    report = CrossCheckReport(generator=GENERATOR_ID, instances=len(batch))

    def check(condition: bool, message: Callable[[], str]):
        report.assertions += 1
        if not condition:
            report.violations.append(message())

    for index, spec in enumerate(batch):
        net = generate(spec)
        label = (
            f"instance {index} (n={spec.vertex_count} cap<={spec.max_capacity} "
            f"p={spec.arc_probability} seed={spec.seed})"
        )
        sample_rng = random.Random(spec.seed * 1_000_003 + 17)
        groups = [frozenset({x}) for x in net.vertices]
        groups += [frozenset(), frozenset(net.vertices)]
        for _ in range(_RANDOM_GROUPS):
            size = sample_rng.randint(0, len(net.vertices))
            groups.append(frozenset(sample_rng.sample(net.vertices, size)))
        distinct = list(dict.fromkeys(groups))
        compiled = net.compiled
        encoded = encode_groups(compiled, distinct)
        # each distinct group's member ids and vertex mask, bit i for id i
        scored = [(ids, sum(1 << i for i in ids)) for ids, _ in encoded]
        try:
            oracle = brute_force_flows(net, assignment_budget=assignment_budget)
        except BudgetExceededError:
            oracle = None
        moves = compiled.neighbors
        out_arcs = [[a for _, a, _ in around if a >= 0] for around in moves]
        for (s, y), (t, z) in permutations(enumerate(net.vertices), 2):
            where = f"{label} pair ({y},{z})"
            report.pairs_checked += 1
            sequences = None
            try:
                value, arc_flow, settled = settle_pair(
                    compiled, s, t, encoded, passage=True, node_budget=node_budget
                )
            except BudgetExceededError:
                # the passage search visits a subset of the enumeration's
                # nodes, so the enumeration would run out of budget too
                value, arc_flow, settled = settle_pair(
                    compiled, s, t, encoded, passage=False, node_budget=node_budget
                )
            else:
                with suppress(BudgetExceededError):
                    found = _max_sequences(compiled, s, t, value, node_budget)
                    sequences = [masks for _, _, masks in found]
            if sequences is None:
                report.enumeration_skips += 1
            flow = _as_flow(compiled, y, z, arc_flow)
            dec = decompose(net, flow)
            check(
                recompose(dec) == flow,
                lambda: f"{where}: decomposition does not recompose to the flow",
            )
            check(
                len(dec.paths) == value,
                lambda: f"{where}: decomposition has {len(dec.paths)} paths, "
                f"value {value}",
            )
            check(
                is_arc_disjoint(net, dec.paths.paths),
                lambda: f"{where}: decomposition paths not arc-disjoint",
            )
            outflows = None
            if oracle is None:
                report.oracle_skips += 1
            else:
                oracle_value, assignments = oracle[y, z]
                check(
                    oracle_value == value,
                    lambda: f"{where}: oracle max {oracle_value}, solver max {value}",
                )
                flows = (_as_flow(compiled, y, z, a) for a in assignments)
                bad = next((f for f in flows if validate_flow(net, f)), None)
                check(
                    bad is None,
                    lambda: f"{where}: oracle produced an invalid maximum flow {bad}",
                )
                # a vertex's share of a throughput: its outflow, or the value
                into_s = [a for _, _, a in moves[s] if a >= 0]
                outflows = []
                for a in assignments:
                    out = [sum(map(a.__getitem__, arcs)) for arcs in out_arcs]
                    out[s] = out[t] = out[s] - sum(map(a.__getitem__, into_s))
                    outflows.append(out)
            least = _least_throughput(compiled, arc_flow, s, t, encoded, value)
            terms = dict(zip(distinct, zip(scored, settled, least)))
            for group in groups:
                (members, bits), (drop, passage), throughput = terms[group]
                if sequences is not None:
                    enum = min(sum(1 for m in masks if m & bits) for masks in sequences)
                    check(
                        drop <= enum == passage <= min(throughput, value)
                        and (len(group) != 1 or drop == passage == throughput),
                        lambda: f"{where} group {render_group(group)}: drop {drop}, "
                        f"enumeration {enum}, passage {passage}, max flow {value}, "
                        f"throughput {throughput}",
                    )
                if outflows is not None:
                    oracle_min = min(sum(map(o.__getitem__, members)) for o in outflows)
                    check(
                        oracle_min == throughput,
                        lambda: f"{where} group {render_group(group)}: oracle "
                        f"throughput {oracle_min}, solver {throughput}",
                    )
    return report
