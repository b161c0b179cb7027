"""Per-pair quantities for a vertex group X between a source y and a sink z.

Three numbers, all nonnegative integers:

* vitality drop -- how much the maximum flow value falls when every arc
  touching X is zeroed out;
* forced passage -- the minimum number of component paths meeting X over
  all maximum-length arc-disjoint path sequences from y to z;
* forced throughput -- the minimum total flow through X over all maximum
  flows.

They always satisfy ``0 <= drop <= passage <= min(throughput, max_flow)``,
and all three coincide whenever X is a single vertex.  :func:`settle_pair`
is the one place that turns this chain into rules settling drop and
passage without a search; every caller in the package takes both from
it.  Where no rule applies, the passage is computed exactly by one
backtracking search over the canonical maximum sequences, which both the
enumeration and the minimization consume.  It keeps an explicit stack
rather than recursing, so a pair with a large max-flow value needs no deep
Python stack.  Capacity bookkeeping and a feasibility cut (remaining
capacity must still admit the missing number of paths) bound it; the
minimization adds two sound prunings (a partial sequence already meeting
X at least best-so-far times cannot improve; a completed sequence matching
the vitality-drop lower bound ends the search).  The search is budgeted by
node count and fails loudly rather than approximating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import BudgetExceededError, InvariantViolationError
from .flows import (
    Flow,
    _augment,
    _bfs_augmenting,
    _check_endpoints,
    max_flow,
    max_flow_value,
    min_cost_max_flow,
)
from .network import CompiledNetwork, Network, VertexId, vertex_group
from .paths import ArcDisjointSequence, Path

DEFAULT_NODE_BUDGET = 10**6


def vitality_drop(
    network: Network, source: VertexId, sink: VertexId, members: Iterable[VertexId]
) -> int:
    """Fall in maximum flow value when all arcs incident to the group vanish.

    Always in ``[0, max_flow]``; equals the full max-flow value whenever
    the group touches an endpoint; monotone in the group.
    """
    _check_endpoints(network, source, sink)
    group = vertex_group(network, members)
    _, _, [(drop, _)] = settle_pair(network, source, sink, [group], passage=False)
    return drop


def _residual_max_value(
    net: CompiledNetwork, caps: list[int], source: int, sink: int
) -> int:
    """Max-flow value under capacities ``caps`` (by arc id, zeros allowed)."""
    return _augment(net, caps, [0] * len(caps), source, sink, _bfs_augmenting)


def _path_candidates(
    network: Network, source: VertexId, sink: VertexId
) -> list[Path]:
    """All source->sink paths over positive-capacity arcs, in lexicographic order."""
    adj: dict[VertexId, list[VertexId]] = {}
    for tail, head in network.positive_arcs():
        adj.setdefault(tail, []).append(head)
    found: list[Path] = []
    if source == sink:
        return found
    trail = [source]
    on_trail = {source}
    heads = [iter(adj.get(source, ()))]  # unvisited heads of each trail vertex
    while heads:
        for w in heads[-1]:
            if w == sink:
                found.append(Path(tuple(trail) + (sink,)))
            elif w not in on_trail:
                trail.append(w)
                on_trail.add(w)
                heads.append(iter(adj.get(w, ())))
                break
        else:
            heads.pop()
            on_trail.discard(trail.pop())
    return found


def _max_sequences(
    network: Network,
    source: VertexId,
    sink: VertexId,
    target: int,
    node_budget: int,
    what: str,
    group: frozenset | None = None,
) -> Iterator[tuple[int, tuple[Path, ...]]]:
    """Yield ``(hits, paths)`` for the maximum sequences, canonically.

    ``target`` is the pair's max-flow value; ``hits`` counts the paths
    meeting ``group``.  Without a group every sequence is yielded; with
    one, a node meeting it at least as often as the last yield is cut, so
    each yield improves on the one before.  Each node is counted against
    the budget as it is entered.  The stack holds the next candidate
    index of each open node, so the depth is not bounded by Python's.
    """
    if target == 0:
        yield 0, ()
        return
    net = network.compiled
    cands = _path_candidates(network, source, sink)
    cand_arcs = [tuple(net.arc_ids[a] for a in p.arcs) for p in cands]
    meets = [group is not None and not group.isdisjoint(p.vertices) for p in cands]
    caps = list(net.capacities)
    s, t = net.index[source], net.index[sink]
    chosen: list[int] = []
    frames: list[int] = []
    hits = nodes = found = start = 0
    best = None
    n = len(cands)
    while True:
        nodes += 1
        if nodes > node_budget:
            where = f" group {render_group(group)}" if group is not None else ""
            raise BudgetExceededError(
                f"{what} budget exhausted at pair ({source}, {sink}){where}",
                partial=found,
                nodes=nodes,
            )
        if best is not None and hits >= best:
            pass
        elif len(chosen) == target:
            found += 1
            if group is not None:
                best = hits
            yield hits, tuple(cands[i] for i in chosen)
        elif _residual_max_value(net, caps, s, t) >= target - len(chosen):
            frames.append(start)
        # an open node at depth d has d chosen paths, so a path beyond that
        # was chosen by the node just left: undo it, then enter the next
        # candidate that fits
        while frames:
            if len(chosen) == len(frames):
                i = chosen.pop()
                for a in cand_arcs[i]:
                    caps[a] += 1
                hits -= meets[i]
            i = frames[-1]
            while i < n and not all(caps[a] for a in cand_arcs[i]):
                i += 1
            if i == n:
                frames.pop()
                continue
            frames[-1] = i + 1
            for a in cand_arcs[i]:
                caps[a] -= 1
            chosen.append(i)
            hits += meets[i]
            start = i
            break
        else:
            return


def enumerate_max_sequences(
    network: Network,
    source: VertexId,
    sink: VertexId,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Iterator[ArcDisjointSequence]:
    """Stream every maximum arc-disjoint sequence class, canonically.

    Yields exactly one representative per reordering class -- the one
    whose components are sorted -- in lexicographic order of those
    canonical forms.  Raises BudgetExceededError (carrying the partial
    count) when the node budget runs out.
    """
    _check_endpoints(network, source, sink)
    target = max_flow_value(network, source, sink)
    for _, paths in _max_sequences(
        network, source, sink, target, node_budget, "sequence enumeration"
    ):
        yield ArcDisjointSequence(paths, source, sink)


def _min_passage(
    network: Network,
    source: VertexId,
    sink: VertexId,
    group: frozenset,
    node_budget: int,
    target: int,
    lower_bound: int,
) -> tuple[int, ArcDisjointSequence]:
    """Exact minimum passage count plus a witness sequence attaining it,
    given the pair's max-flow value and its vitality drop."""
    best = None
    for best in _max_sequences(
        network, source, sink, target, node_budget, "passage minimization", group
    ):
        if best[0] == lower_bound:
            break
    if best is None:
        raise InvariantViolationError(
            f"no maximum sequence found for {source!r}->{sink!r} "
            f"despite max flow {target}"
        )
    return best[0], ArcDisjointSequence(best[1], source, sink)


def settle_pair(
    network: Network,
    source: VertexId,
    sink: VertexId,
    groups: Sequence[frozenset],
    *,
    passage: bool,
    exact: bool = False,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[int, Flow, list[tuple[int, int | None]]]:
    """The pair's canonical maximum flow value and flow, and one
    ``(drop, passage)`` per group.

    Every group shares the one canonical maximum flow ``f``.  The chain
    ``0 <= drop <= passage <= min(throughput, max_flow)`` then settles a
    group X by the first rule that applies:

    1. ``max_flow == 0``: drop = passage = 0.
    2. ``source`` or ``sink`` is in X: every path meets X, so drop =
       passage = max_flow.
    3. ``f`` sends nothing through X (``flow_through(f, X) == 0``): drop =
       passage = 0, since passage <= throughput <= ``flow_through(f, X)``.
    4. Otherwise the drop comes from one more max flow that never enters
       X.  If it equals ``flow_through(f, X)``, the passage is squeezed to
       the same value.
    5. A single vertex takes passage = drop, which the paper proves for
       singletons, unless ``exact`` turns this shortcut off.
    6. Otherwise the passage search runs if ``passage`` asks for the
       passage; if not, the passage is None.

    Every rule is a proof; ``exact`` only turns off rule 5, so that
    singletons run the search too.  The groups must be validated
    (:func:`vertex_group`).
    """
    total, flow = max_flow(network, source, sink)
    if total == 0:
        return total, flow, [(0, 0)] * len(groups)
    outflow = dict.fromkeys(network.vertices, 0)
    for (tail, _head), val in flow.values.items():
        outflow[tail] += val
    settled: list[tuple[int, int | None]] = []
    for group in groups:
        if source in group or sink in group:
            drop = found = total
        else:
            # flow_through(flow, group), as no endpoint is in the group
            through = sum(outflow[x] for x in group)
            if through == 0:
                drop = found = 0
            else:
                drop = total - max_flow_value(network, source, sink, group)
                found = None
                if drop == through or (not exact and len(group) == 1):
                    found = drop
                elif passage:
                    found, _ = _min_passage(
                        network, source, sink, group, node_budget, total, drop
                    )
        settled.append((drop, found))
    return total, flow, settled


def forced_passage(
    network: Network,
    source: VertexId,
    sink: VertexId,
    members: Iterable[VertexId],
    *,
    exact: bool = False,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> int:
    """Minimum number of paths meeting the group in a maximum sequence.

    Settled by :func:`settle_pair`: ``exact`` only turns off the singleton
    shortcut, and the search runs where no rule applies.
    """
    _check_endpoints(network, source, sink)
    group = vertex_group(network, members)
    _, _, [(_, value)] = settle_pair(
        network,
        source,
        sink,
        [group],
        passage=True,
        exact=exact,
        node_budget=node_budget,
    )
    return value


def forced_throughput(
    network: Network, source: VertexId, sink: VertexId, members: Iterable[VertexId]
) -> int:
    """Minimum total flow through the group over all maximum flows.

    The throughput of a flow is linear: a constant (flow value, once per
    endpoint inside the group) plus the flow on every arc leaving an
    interior group member.  Minimizing it over maximum flows is therefore
    a min-cost max-flow with unit cost on exactly those arcs.
    """
    _check_endpoints(network, source, sink)
    group = vertex_group(network, members)
    interior = group - {source, sink}
    costs = {arc: 1 for arc in network.capacities if arc[0] in interior}
    value, cost, _ = min_cost_max_flow(network, source, sink, costs)
    return len(group & {source, sink}) * value + cost


@dataclass(frozen=True)
class PairQuantities:
    """Everything this package can say about one (source, sink, group) triple.

    ``witness`` is a canonical sequence attaining the forced passage; it is
    present exactly when the passage search ran (``exact`` is True).
    """

    source: VertexId
    sink: VertexId
    group: frozenset
    max_flow_total: int
    max_flow_restricted: int
    vitality_drop: int
    forced_passage: int
    forced_throughput: int
    witness: ArcDisjointSequence | None
    exact: bool

    def record(self, sep: str = " ") -> str:
        """Flat record: y z X phi_total phi_restricted phi_X lambda_X delta_X witness."""
        witness = "-" if self.witness is None else str(self.witness)
        return sep.join(
            [
                self.source,
                self.sink,
                render_group(self.group),
                str(self.max_flow_total),
                str(self.max_flow_restricted),
                str(self.vitality_drop),
                str(self.forced_passage),
                str(self.forced_throughput),
                witness,
            ]
        )


def render_group(group: frozenset) -> str:
    return ",".join(sorted(group)) if group else "-"


def pair_report(
    network: Network,
    source: VertexId,
    sink: VertexId,
    members: Iterable[VertexId],
    *,
    exact: bool = False,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> PairQuantities:
    """Compute all pair quantities and assert their chain before returning.

    The drop comes from :func:`settle_pair`.  The passage search runs, and
    its canonical witness is attached, whenever ``exact`` is set or the
    group has two or more vertices; otherwise the passage is the drop.
    """
    _check_endpoints(network, source, sink)
    group = vertex_group(network, members)
    total, _, [(drop, passage)] = settle_pair(
        network, source, sink, [group], passage=False, exact=exact
    )
    restricted = total - drop
    use_exact = exact or len(group) > 1
    witness = None
    if use_exact:
        passage, witness = _min_passage(
            network, source, sink, group, node_budget, total, drop
        )
    throughput = forced_throughput(network, source, sink, group)
    if not (0 <= drop <= passage <= min(throughput, total)):
        raise InvariantViolationError(
            f"pair quantity chain violated for ({source!r}, {sink!r}, "
            f"{render_group(group)}): drop={drop} passage={passage} "
            f"throughput={throughput} max_flow={total}"
        )
    return PairQuantities(
        source=source,
        sink=sink,
        group=group,
        max_flow_total=total,
        max_flow_restricted=restricted,
        vitality_drop=drop,
        forced_passage=passage,
        forced_throughput=throughput,
        witness=witness,
        exact=use_exact,
    )
