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
passage without a search; every caller in the package takes the drop
from it, and the passage too, except where :func:`pair_report` runs the
search to print a witness.  Two of those rules are max-flow bounds: for
any maximum flow F, the passage is at most the max-flow value minus the
largest flow of G - X that fits under F, and a bound that meets the drop
settles the passage, which leaves the search only the groups whose
passage may exceed their drop.  Where no rule applies, the passage is
computed exactly by one backtracking search over the canonical maximum
sequences, which both the enumeration and the minimization consume.
Capacity bookkeeping (a candidate path enters only while every arc on it
has capacity left) and the budget bound it; the minimization adds two
sound prunings (a partial sequence already meeting X at least
best-so-far times cannot improve; a completed sequence matching the
vitality-drop lower bound ends the search).  One budget caps both its
candidate paths and its nodes, and the search fails loudly rather than
approximating.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Iterable, Iterator, Sequence

from .errors import BudgetExceededError, InvariantViolationError
from .flows import (
    Flow,
    _as_flow,
    _augment,
    _cancel_negative_cycles,
    _check_endpoints,
    _decompose_ids,
    _sequence,
)
from .network import CompiledNetwork, Network, VertexId, vertex_group
from .paths import ArcDisjointSequence

DEFAULT_NODE_BUDGET = 10**6


def vitality_drop(
    network: Network, source: VertexId, sink: VertexId, members: Iterable[VertexId]
) -> int:
    """Fall in maximum flow value when all arcs incident to the group vanish.

    Always in ``[0, max_flow]``; equals the full max-flow value whenever
    the group touches an endpoint; monotone in the group; 0, with no max
    flow run, for the empty group.
    """
    return _settle_group(network, source, sink, members, passage=False)[0]


def _settle_group(
    network: Network, source: VertexId, sink: VertexId, members: Iterable, **options
) -> tuple[int, int | None]:
    """``(drop, passage)`` of one group at the pair, by :func:`settle_pair`
    with ``options``; ``(0, 0)``, with no max flow run, for the empty group."""
    s, t = _check_endpoints(network, source, sink)
    group = vertex_group(network, members)
    if not group:
        return 0, 0
    net = network.compiled
    return settle_pair(net, s, t, encode_groups(net, [group]), **options)[2][0]


def _path_candidates(
    net: CompiledNetwork, source: int, sink: int, limit: int
) -> list[tuple[int, ...]]:
    """Source->sink paths over positive-capacity arcs, as arc-id tuples in
    lexicographic vertex order.  Stops once ``limit + 1`` are found."""
    neighbors = net.neighbors
    found: list[tuple[int, ...]] = []
    on_trail = bytearray(len(neighbors))
    on_trail[source] = 1
    arcs: list[int] = []  # the arcs between the trail vertices
    trail = [(source, iter(neighbors[source]))]  # each with its unvisited neighbors
    while trail:
        for w, arc, _ in trail[-1][1]:
            if arc < 0 or on_trail[w]:
                continue
            if w == sink:
                found.append((*arcs, arc))
                if len(found) > limit:
                    return found
            else:
                arcs.append(arc)
                on_trail[w] = 1
                trail.append((w, iter(neighbors[w])))
                break
        else:
            on_trail[trail.pop()[0]] = 0
            del arcs[-1:]
    return found


def _max_sequences(
    net: CompiledNetwork,
    s: int,
    t: int,
    target: int,
    node_budget: int,
    members: frozenset[int] | None = None,
) -> Iterator[tuple[int, list[tuple[int, ...]], list[int]]]:
    """Yield ``(hits, paths, masks)`` for the maximum sequences from vertex
    id ``s`` to ``t`` of ``net``, canonically.

    ``paths`` lists its paths as arc-id tuples and ``masks`` their vertex
    sets, bit ``i`` for vertex id ``i``; ``hits`` counts the paths meeting
    the group of vertex ids ``members``, and ``target`` is the pair's
    max-flow value.  A node holds a multiset of candidate paths that fits
    the capacities; one with fewer than ``target`` paths is always opened.
    Without a group, a sequence enumeration, every sequence is yielded;
    with one, a passage minimization, a node meeting it at least as often
    as the last yield is cut, so each yield improves on the one before.
    Its budget error names which of the two ran out, and the pair and the
    group by their tokens.  More than ``node_budget`` candidate paths
    exhaust the budget before the search starts; each node is counted
    against it as it is entered.  The state is the node's candidate
    indices, ascending, and the next index to test, so the depth is not
    bounded by Python's.
    """
    if target == 0:
        yield 0, [], []
        return
    what = "sequence enumeration" if members is None else "passage minimization"
    v = net.vertices
    where = "" if members is None else f" group {render_group({v[i] for i in members})}"
    reason = f"{what} budget exhausted at pair ({v[s]}, {v[t]}){where}"
    cand_arcs = _path_candidates(net, s, t, node_budget)
    if len(cand_arcs) > node_budget:
        raise BudgetExceededError(reason, partial=0, nodes=0)
    # a path's vertices are its source and the heads of its arcs, all distinct
    bits = [1 << head for _, head in net.arcs]
    masks = [sum(map(bits.__getitem__, cand), 1 << s) for cand in cand_arcs]
    xbits = sum(1 << x for x in members or ())
    meets = [bool(mask & xbits) for mask in masks]
    caps = list(net.capacities)
    chosen: list[int] = []  # the node's candidates, ascending
    hits = nodes = found = i = 0  # i: the next candidate the scan tests
    best = target + 1
    n = len(cand_arcs)
    while True:
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(reason, partial=found, nodes=nodes)
        if hits >= best:
            i = n
        elif len(chosen) == target:
            found += 1
            if members is not None:
                best = hits
            yield hits, [cand_arcs[j] for j in chosen], [masks[j] for j in chosen]
            i = n
        # an open node scans on from its last candidate, as a candidate may
        # repeat; past the last, undo the node's last candidate j and scan
        # its parent on from j + 1
        while i == n or not all(map(caps.__getitem__, cand_arcs[i])):
            if i < n:
                i += 1
            elif chosen:
                j = chosen.pop()
                for a in cand_arcs[j]:
                    caps[a] += 1
                hits -= meets[j]
                i = j + 1
            else:
                return
        for a in cand_arcs[i]:
            caps[a] -= 1
        chosen.append(i)
        hits += meets[i]


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
    s, t = _check_endpoints(network, source, sink)
    net = network.compiled
    target = settle_pair(net, s, t, [], passage=False)[0]
    for _, paths, _ in _max_sequences(net, s, t, target, node_budget):
        yield _sequence(net, source, sink, paths)


def _min_passage(
    net: CompiledNetwork,
    s: int,
    t: int,
    members: frozenset[int],
    node_budget: int,
    target: int,
    lower_bound: int,
) -> tuple[int, list[tuple[int, ...]]]:
    """Exact minimum passage count of the group of vertex ids ``members``
    at the pair of ids ``(s, t)`` plus the canonical witness attaining it,
    as arc-id paths of ``net``, given the pair's max-flow value and drop."""
    best = None
    for best in _max_sequences(net, s, t, target, node_budget, members):
        if best[0] == lower_bound:
            break
    if best is None:
        raise InvariantViolationError(
            f"no maximum sequence found for {net.vertices[s]!r}->{net.vertices[t]!r} "
            f"despite max flow {target}"
        )
    return best[0], best[1]


def settle_pair(
    net: CompiledNetwork,
    s: int,
    t: int,
    groups: Sequence[tuple[frozenset[int], tuple[int, ...]]],
    *,
    passage: bool,
    exact: bool = False,
    node_budget: int = DEFAULT_NODE_BUDGET,
    tree: dict | None = None,
) -> tuple[int, list[int], list[tuple[int, int | None]]]:
    """The max flow value of the pair of vertex ids ``(s, t)``, its canonical
    maximum flow ``f`` and one ``(drop, passage)`` per group.

    ``f`` is the flow :func:`max_flow` returns, indexed by arc id of
    ``net``.  Every group shares it.  The chain
    ``0 <= drop <= passage <= min(throughput, max_flow)`` then settles a
    group X by the first rule that applies:

    1. ``max_flow == 0``: drop = passage = 0.
    2. ``s`` or ``t`` is in X: every path meets X, so drop =
       passage = max_flow; see ``centrality`` for groups meeting every path.
    3. The cut rule: let S be the source side of the min cut where the
       last search of ``f`` failed, and C_X the capacity of the arcs from
       S to the rest that touch X.  If C_X equals ``through =
       flow_through(f, X)`` (always so when through is 0), drop = passage
       = through, with no restricted flow.  C_X <= through, as ``f`` fills
       those arcs and each unit on them passes through X; and the
       restricted flow is at most ``max_flow - C_X``, what the cut keeps
       in G - X: so C_X <= drop <= through, and rule 4's squeeze follows.
    4. Otherwise the drop comes from one more max flow ``g``, with the
       arcs touching X at zero capacity.  When several groups share the
       pair, ``g`` is warm-started from the unit paths of ``f`` that
       avoid X, which carry at least ``max_flow - flow_through(f, X)``,
       so at most ``through - drop`` augmentations remain.  ``f`` is
       decomposed, its cycles dropped, at most once per pair: for the
       first group that reaches ``g`` with a positive bound (``through <
       max_flow``); a group before that, or a lone group, starts from
       zero.  A lone group's warm start saves about one augmenting BFS,
       less than the decomposition costs, so only a shared pair pays for
       one.  If the drop equals ``through``, the passage is squeezed to
       the same value.
    5. A single vertex takes passage = drop, which the paper proves for
       singletons, unless ``exact`` turns this shortcut off.

    Rules 6 and 7 run only when ``passage`` asks for the passage.  Both
    rest on one bound: for any maximum flow F, ``passage <= UB(F) =
    max_flow - (max flow of G - X under capacities min(F, c))``, because F
    minus that flow of G - X is itself a flow; the paths of the two form a
    maximum sequence in which only the paths of the difference can meet
    X.  Each rule settles passage = drop when its UB(F) equals the drop.

    6. The extension rule: h is a max flow under ``c - g``.  If ``|h|``
       reaches the drop, F = g + h is a maximum flow and g a flow of
       G - X under it, so UB(F) = drop.  Any maximum flow ``g`` of G - X
       makes this a proof, the warm-started one included.
    7. The entry bound: F is ``f`` with its negative cycles cancelled
       under unit cost on the arcs entering X, a maximum flow entering X
       least; UB(F) comes from one more restricted max flow.  Each path
       of F meeting X enters it, so UB(F) <= entries <= throughput.  (The
       throughput's costs leave ``f`` as it is if it is least through X.)
    8. Otherwise the passage search runs if ``passage`` asks for the
       passage; if not, the passage is None.

    Every rule is a proof; ``exact`` only turns off rule 5, so that
    singletons reach rules 6 to 8 too.  ``groups`` is :func:`encode_groups`
    of validated groups (:func:`vertex_group`); its G - X capacities are
    shared by every pair of a call, so nothing here writes into them.
    ``tree``, the tree of the search from ``s`` to itself at zero flow,
    saves ``f`` its first search.  The public functions map tokens to ids.
    """
    flow = [0] * len(net.arcs)
    total, reached = _augment(net, net.capacities, flow, s, t, tree)
    if total == 0:
        return total, flow, [(0, 0)] * len(groups)
    settled: list[tuple[int, int | None]] = []
    units = None  # f's unit paths, once a group's warm start has flow
    shared = len(groups) > 1  # one decomposition serves several groups
    for members, caps in groups:
        if s in members or t in members:
            drop = found = total
        else:
            through, cut = _through_and_cut(net, flow, reached, members)
            if cut == through:
                drop = found = through
            else:
                if units is None and shared and through < total:
                    units, _ = _decompose_ids(net, flow, s, t, total)
                # warm start: the unit paths of f with no arc at zero in
                # caps avoid X, so together they are a flow under caps
                kept_flow, kept = [0] * len(caps), 0
                for path in units or ():
                    if all(map(caps.__getitem__, path)):
                        for a in path:
                            kept_flow[a] += 1
                        kept += 1
                kept += _augment(net, caps, kept_flow, s, t)[0]
                drop = total - kept
                if drop == through or (not exact and len(members) == 1):
                    found = drop
                elif not passage:
                    found = None
                elif _passage_at_drop(
                    net, s, t, members, flow, caps, kept_flow, kept, drop
                ):
                    found = drop
                else:
                    found, _ = _min_passage(net, s, t, members, node_budget, total, drop)
        settled.append((drop, found))
    return total, flow, settled


def encode_groups(
    net: CompiledNetwork, groups: Iterable[frozenset]
) -> list[tuple[frozenset[int], tuple[int, ...]]]:
    """Each group as :func:`settle_pair` reads it on every pair: its member
    ids and the capacities of G - X, the arcs touching it at 0."""
    ids = [frozenset(map(net.index.__getitem__, group)) for group in groups]
    return [(members, _zeroed_caps(net, members)) for members in ids]


def _zeroed_caps(net: CompiledNetwork, members: Iterable[int]) -> tuple[int, ...]:
    """``net.capacities`` with the arcs touching ``members`` (ids) at 0."""
    caps = list(net.capacities)
    for x in members:
        for _, out_arc, in_arc in net.neighbors[x]:
            if out_arc >= 0:
                caps[out_arc] = 0
            if in_arc >= 0:
                caps[in_arc] = 0
    return tuple(caps)


def _through_and_cut(
    net: CompiledNetwork, flow: Sequence[int], reached: dict, members: frozenset[int]
) -> tuple[int, int]:
    """``(through, C_X)`` of :func:`settle_pair`'s rule 3, in one walk over
    the arcs at ``members``, none of them an endpoint: the flow out of the
    members, and the capacity of the arcs from ``reached`` to the rest that
    touch them, each counted once."""
    caps, through, cut = net.capacities, 0, 0
    for x in members:
        for w, out_arc, in_arc in net.neighbors[x]:
            if out_arc >= 0:
                through += flow[out_arc]
                if x in reached and w not in reached:
                    cut += caps[out_arc]
            if in_arc >= 0 and x not in reached and w in reached and w not in members:
                cut += caps[in_arc]  # an arc from a member counts at its tail
    return through, cut


def _passage_at_drop(
    net: CompiledNetwork,
    s: int,
    t: int,
    members: frozenset[int],
    flow: list[int],
    caps: Sequence[int],
    kept_flow: list[int],
    kept: int,
    drop: int,
) -> bool:
    """Rules 6 and 7 of :func:`settle_pair`: whether they find a maximum
    flow F with ``UB(F) == drop`` for the group X.

    ``flow`` is the pair's maximum flow, ``caps`` the capacities with the
    arcs touching X at zero, and ``kept_flow`` a maximum flow under them.
    """
    # rule 6: kept_flow plus a flow under the capacity it leaves
    spare = [c - g for c, g in zip(net.capacities, kept_flow)]
    if _augment(net, spare, [0] * len(spare), s, t)[0] == drop:
        return True
    # rule 7: a maximum flow entering X least
    costs = [int(b in members and a not in members) for a, b in net.arcs]
    cheapest = list(flow)
    _cancel_negative_cycles(net, cheapest, costs)
    bound = [min(f, c) for f, c in zip(cheapest, caps)]
    return _augment(net, bound, [0] * len(caps), s, t)[0] == kept


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
    shortcut, and the search runs where no rule applies.  The empty group
    takes 0 with no max flow run.
    """
    options = {"passage": True, "exact": exact, "node_budget": node_budget}
    return _settle_group(network, source, sink, members, **options)[1]


def forced_throughput(
    network: Network, source: VertexId, sink: VertexId, members: Iterable[VertexId]
) -> int:
    """Minimum total flow through the group over all maximum flows; 0, with
    no max flow run, for the empty group."""
    s, t = _check_endpoints(network, source, sink)
    group = vertex_group(network, members)
    if not group:
        return 0
    net = network.compiled
    total, flow, _ = settle_pair(net, s, t, [], passage=False)
    ids = frozenset(map(net.index.__getitem__, group))
    return _least_throughput(net, flow, s, t, ids, total)


def _least_throughput(
    net: CompiledNetwork,
    flow: Sequence[int],
    s: int,
    t: int,
    members: frozenset[int],
    value: int,
) -> int:
    """Forced throughput of the vertex ids ``members`` at the pair (s, t),
    from its maximum flow ``flow``, by arc id and left as it is, and its value.

    A flow's throughput is its value once per endpoint in the group plus
    its flow out of the other members: a cost, unit on their out-arcs,
    least once the negative cycles of ``flow`` are cancelled.  With no flow
    out of them the cost is 0, least already, and no cost vector is built.
    """
    interior = members - {s, t}
    ends = (len(members) - len(interior)) * value
    for x in interior:
        for _, a, _ in net.neighbors[x]:
            if a >= 0 and flow[a]:
                costs = [int(tail in interior) for tail, _ in net.arcs]
                flow = list(flow)
                _cancel_negative_cycles(net, flow, costs)
                return sum(map(mul, costs, flow)) + ends
    return ends


@dataclass(frozen=True)
class PairQuantities:
    """Everything this package can say about one (source, sink, group) triple.

    ``witness`` is a canonical sequence attaining the forced passage; it is
    present exactly when the passage search ran (see :func:`pair_report`).
    ``flow`` is the pair's canonical maximum flow, the one :func:`max_flow`
    returns.
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
    flow: Flow

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

    The drop and the flow come from :func:`settle_pair`, and the
    throughput from that flow (:func:`_least_throughput`).  The passage
    search runs, and its canonical witness is attached, whenever ``exact``
    is set or the group has two or more vertices; otherwise the passage is
    the drop.
    """
    s, t = _check_endpoints(network, source, sink)
    group = vertex_group(network, members)
    net = network.compiled
    encoded = encode_groups(net, [group])
    total, flow, [(drop, passage)] = settle_pair(net, s, t, encoded, passage=False)
    ids = encoded[0][0]
    witness = None
    if exact or len(group) > 1:
        passage, paths = _min_passage(net, s, t, ids, node_budget, total, drop)
        witness = _sequence(net, source, sink, paths)
    throughput = _least_throughput(net, flow, s, t, ids, total)
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
        max_flow_restricted=total - drop,
        vitality_drop=drop,
        forced_passage=passage,
        forced_throughput=throughput,
        witness=witness,
        flow=_as_flow(net, source, sink, flow),
    )
