"""Flows on capacitated digraphs.

A flow assigns a nonnegative integer to every arc, within capacity, with
conservation at every vertex other than the designated source and sink.
This module validates flows, measures their value and their throughput at
vertex groups, computes maximum flows, cancels the negative-cost residual
cycles of a maximum flow, and decomposes a flow into source-sink paths
plus cycles (and recomposes it exactly).

All search orders follow the canonical lexicographic vertex order, so
every result here is a pure, deterministic function of its inputs:

* ``max_flow`` saturates, one after another, the lexicographically least
  shortest augmenting paths (breadth-first over the residual moves,
  sorted neighbor expansion, forward moves preferred on ties);
* ``decompose`` peels the canonically least positive out-arc first,
  extracting all paths before hunting remaining cycles.  The walk itself
  runs once, on arc ids (``_decompose_ids``); ``settle_pair`` takes its
  paths as they are to warm-start its restricted max flows.  Arc-id paths
  become :class:`Path` values in one place, ``_sequence``, for
  decompositions and the passage search's witnesses and enumerations.

Max flows run on ``Network.compiled``, built once per network (vertices
as ids, arcs as id pairs, each vertex with one sorted list of the
neighbors it shares an arc with, in either direction): tokens come back
only in ``_sequence``, ``_as_flow`` and ``decompose``.  They run through
one augment loop (``_augment``) over the trees of a breadth-first search
(``_bfs_augmenting``).  Each tree maps the vertices it reached to their
parent links, so its keys are what the source reaches: the source side
of the min cut once the sink is missing, from which ``settle_pair``
proves some drops.  At zero flow the links do not depend on the sink, so
one tree per source gives ``centrality`` what the source reaches and
every sink's first augmenting path.  A max flow restricted to part of the
network is the same loop under a capacity vector with the excluded arcs
at zero.  The forced throughput (in ``quantities``) is a cost of the
pair's own max flow.  The min cut that flow leaves, the keys of one more
search tree from the source, bounds it from below and settles most
throughputs; only where the flow costs more than the bound are its
negative-cost residual cycles cancelled (``_cancel_negative_cycles``),
which leaves it least.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, NamedTuple, Sequence

from .errors import InvalidInputError, InvariantViolationError
from .network import Arc, CompiledNetwork, Network, VertexId, _Value, as_group
from .paths import BACKWARD, FORWARD, ArcDisjointSequence, Cycle, Path


class Flow(_Value):
    """Sparse arc assignment with designated endpoints.

    Zero entries are normalized away on construction, so two flows are
    equal exactly when their assignments agree arc by arc.  Compatibility
    and conservation are checked against a network by
    :func:`validate_flow`, not here.
    """

    _fields = ("source", "sink", "values")

    def __init__(self, source: VertexId, sink: VertexId, values: dict[Arc, int]):
        if source == sink:
            raise InvalidInputError(f"source and sink must differ, both are {source!r}")
        cleaned: dict[Arc, int] = {}
        for arc, val in values.items():
            if not (isinstance(arc, tuple) and len(arc) == 2):
                raise InvalidInputError(f"flow arc {arc!r} is not a (tail, head) pair")
            tail, head = arc
            if tail == head:
                raise InvalidInputError(f"flow on self-loop arc {arc!r}")
            if isinstance(val, bool) or not isinstance(val, int):
                raise InvalidInputError(f"flow {val!r} on arc {arc!r} is not an integer")
            if val < 0:
                raise InvalidInputError(f"negative flow {val} on arc {arc!r}")
            if val > 0:
                cleaned[(tail, head)] = val
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "sink", sink)
        object.__setattr__(self, "values", cleaned)


def flow_value(flow: Flow) -> int:
    """Net outflow at the source."""
    out = sum(v for (t, _h), v in flow.values.items() if t == flow.source)
    back = sum(v for (_t, h), v in flow.values.items() if h == flow.source)
    return out - back


def flow_through(flow: Flow, members: Iterable[VertexId]) -> int:
    """Total flow passing through the group.

    Counts the out-sum at each interior group member and the flow value at
    the source or sink if they belong to the group, not a string
    (:func:`as_group`); validation against a network is :func:`vertex_group`.
    """
    group = as_group(members)
    total = 0
    value = None
    for x in group:
        if x in (flow.source, flow.sink):
            if value is None:
                value = flow_value(flow)
            total += value
        else:
            total += sum(v for (t, _h), v in flow.values.items() if t == x)
    return total


def _check_endpoints(network: Network, source: VertexId, sink: VertexId):
    """Raise unless ``source`` and ``sink`` are distinct vertices of
    ``network``; return their ids, which a public function maps here once."""
    index = network.compiled.index
    for endpoint in (source, sink):
        if endpoint not in index:
            raise InvalidInputError(f"unknown vertex {endpoint!r}")
    if source == sink:
        raise InvalidInputError(f"source and sink must differ, both are {source!r}")
    return index[source], index[sink]


def validate_flow(network: Network, flow: Flow) -> str | None:
    """Check compatibility on every arc and conservation at interior vertices.

    Returns None when the flow is valid, otherwise a message naming the
    first arc over capacity in canonical order, else the first vertex whose
    inflow and outflow, summed in one pass over the arcs, differ.  Unknown
    vertices raise InvalidInputError, naming the first in order of ``str``.
    """
    _check_endpoints(network, flow.source, flow.sink)
    index = network.compiled.index
    unknown = {v for arc in flow.values for v in arc if v not in index}
    if unknown:
        vertex = min(unknown, key=str)
        raise InvalidInputError(f"unknown vertex {vertex!r} in flow support")
    over = [arc for arc, val in flow.values.items() if val > network.capacity(arc)]
    if over:
        arc = min(over)
        cap = network.capacity(arc)
        return f"flow {flow.values[arc]} exceeds capacity {cap} on arc {arc!r}"
    into, out = [0] * len(index), [0] * len(index)
    for (tail, head), val in flow.values.items():
        out[index[tail]] += val
        into[index[head]] += val
    for x, i in index.items():
        if into[i] != out[i] and x not in (flow.source, flow.sink):
            return f"conservation fails at vertex {x!r}: in {into[i]}, out {out[i]}"
    return None


def _bfs_augmenting(
    net: CompiledNetwork,
    caps: Sequence[int],
    flow: Sequence[int],
    source: int,
    sink: int,
) -> dict[int, tuple[int, int, int] | None]:
    """Breadth-first search tree of the residual moves from ``source``: each
    vertex reached maps to its parent link ``(vertex, arc id, dir)``.

    Works on the compiled network: ``caps`` and ``flow`` are indexed by arc
    id (``caps`` may be any pointwise reduction of the network's
    capacities, zeros included).  Each vertex's neighbors are expanded in
    canonical order, taking the forward arc when it has room and the
    backward arc otherwise.  It stops at ``sink``, whose links lead back
    along the lexicographically least shortest augmenting path; a tree
    without it holds every vertex reached.  The source maps to None, and a
    link is fixed when its vertex is first reached, whatever the sink.
    """
    neighbors = net.neighbors
    parent: dict[int, tuple[int, int, int] | None] = {source: None}
    queue = [source]
    for v in queue:
        for w, out_arc, in_arc in neighbors[v]:
            if w in parent:
                continue
            if out_arc >= 0 and flow[out_arc] < caps[out_arc]:
                parent[w] = (v, out_arc, FORWARD)
            elif in_arc >= 0 and flow[in_arc]:
                parent[w] = (v, in_arc, BACKWARD)
            else:
                continue
            if w == sink:
                return parent
            queue.append(w)
    return parent


def _augment(
    net: CompiledNetwork,
    caps: Sequence[int],
    flow: list[int],
    source: int,
    sink: int,
    tree: dict[int, tuple[int, int, int] | None] | None = None,
) -> tuple[int, dict[int, tuple[int, int, int] | None]]:
    """Saturate the augmenting paths :func:`_bfs_augmenting` finds until
    its tree misses the sink.

    The one augment loop in the package.  ``flow`` (indexed by arc id) is
    updated in place; the return value is the amount added and the last
    tree, whose keys are the source side of a minimum cut.  An arc at zero
    in ``caps`` carries no flow, so a flow from zero under ``caps`` is a
    flow of the network restricted to the other arcs.  A ``tree`` of the
    search from ``source`` to itself, under ``caps`` at a zero ``flow``,
    stands in for the first search: it holds the same links.
    """
    added = 0
    if tree is None:
        tree = _bfs_augmenting(net, caps, flow, source, sink)
    while sink in tree:
        moves, w = [], sink
        while w != source:
            w, arc, d = tree[w]
            moves.append((arc, d))
        bottleneck = min(
            [caps[arc] - flow[arc] if d == FORWARD else flow[arc] for arc, d in moves]
        )
        for arc, d in moves:
            flow[arc] += d * bottleneck
        added += bottleneck
        tree = _bfs_augmenting(net, caps, flow, source, sink)
    return added, tree


def _negative_cycle(
    net: CompiledNetwork, flow: Sequence[int], costs: Sequence[int]
) -> list[tuple[int, int]] | None:
    """A negative-cost residual cycle of ``flow`` under the capacities of
    ``net``, as (arc id, dir) moves, or None when there is none.

    Bellman-Ford from a virtual source at cost 0 to every vertex, over the
    residual moves of :func:`_bfs_augmenting` at cost ``costs[a]`` forward
    and ``-costs[a]`` backward, in canonical sweeps with strict
    improvement.  A cycle of parent links costs less than 0; while there
    is none, each label is at least the cost of a simple path, so the
    sweeps either settle or close one.
    """
    neighbors, caps = net.neighbors, net.capacities
    n = len(neighbors)
    dist = [0] * n
    pred = [-1] * n  # the parent link into each vertex: its tail and move
    move: list[tuple[int, int]] = [(-1, 0)] * n
    while True:
        changed = False
        for v in range(n):
            dv = dist[v]
            for w, out_arc, in_arc in neighbors[v]:
                if out_arc >= 0 and flow[out_arc] < caps[out_arc]:
                    nd = dv + costs[out_arc]
                    if nd < dist[w]:
                        dist[w], pred[w], move[w] = nd, v, (out_arc, FORWARD)
                        changed = True
                if in_arc >= 0 and flow[in_arc]:
                    nd = dv - costs[in_arc]
                    if nd < dist[w]:
                        dist[w], pred[w], move[w] = nd, v, (in_arc, BACKWARD)
                        changed = True
        if not changed:
            return None
        walked = [-1] * n  # the first walk along parent links to reach each vertex
        for start in range(n):
            v = start
            while v >= 0 and walked[v] < 0:
                walked[v] = start
                v = pred[v]
            if v >= 0 and walked[v] == start:
                moves, w = [move[v]], pred[v]
                while w != v:
                    moves.append(move[w])
                    w = pred[w]
                return moves


def _cancel_negative_cycles(
    net: CompiledNetwork, flow: list[int], costs: Sequence[int]
) -> None:
    """Cancel each negative-cost residual cycle of the maximum flow ``flow``
    by its bottleneck, in place, until none is left: then it is a min-cost
    maximum flow (Klein, 1967), still integral."""
    caps = net.capacities
    while (moves := _negative_cycle(net, flow, costs)) is not None:
        bottleneck = min(
            [caps[arc] - flow[arc] if d == FORWARD else flow[arc] for arc, d in moves]
        )
        for arc, d in moves:
            flow[arc] += d * bottleneck


def _as_flow(
    net: CompiledNetwork, source: VertexId, sink: VertexId, arc_flow: Sequence[int]
) -> Flow:
    """The :class:`Flow` of a flow indexed by arc id of ``net``."""
    v = net.vertices
    support = {(v[t], v[h]): val for (t, h), val in zip(net.arcs, arc_flow) if val}
    return Flow(source, sink, support)


def max_flow(network: Network, source: VertexId, sink: VertexId) -> tuple[int, Flow]:
    """Maximum flow value and a deterministic maximum flow.

    Shortest-augmenting-path iteration.  Each round saturates the current
    lexicographically least shortest path; since augmenting cannot create
    shorter residual paths nor lexicographically smaller ones of the same
    length, this matches repeating the unit augmentation step until that
    path saturates, but is independent of capacity magnitude.
    """
    s, t = _check_endpoints(network, source, sink)
    net = network.compiled
    flow = [0] * len(net.arcs)
    value, _ = _augment(net, net.capacities, flow, s, t)
    return value, _as_flow(net, source, sink, flow)


class Decomposition(NamedTuple):
    """A flow written as source->sink paths plus cycles, summing back exactly."""

    paths: ArcDisjointSequence
    cycles: tuple[Cycle, ...]


def _decompose_ids(
    net: CompiledNetwork, flow: Sequence[int], source: int, sink: int, value: int
) -> tuple[list[list[int]], list[list[int]]]:
    """Split a flow indexed by arc id into ``value`` unit source->sink paths
    plus cycles, each as the list of its arc ids in walk order.

    The one decomposition walk in the package.  Each walk follows the
    least positive out-arc (the least head, in canonical order), peeling a
    cycle whenever a vertex repeats; after the paths, leftover circulation
    is peeled starting from the least vertex still sending flow.
    """
    neighbors = net.neighbors
    left = list(flow)
    paths: list[list[int]] = []
    cycles: list[list[int]] = []

    def step(walk: list[int], arcs: list[int]) -> bool:
        # extend the walk by the least positive out-arc of its last vertex;
        # True when that closes a cycle, which is peeled off the walk
        for w, a, _ in neighbors[walk[-1]]:
            if a >= 0 and left[a]:
                break
        else:
            token = net.vertices[walk[-1]]
            raise InvariantViolationError(f"decomposition walk stuck at vertex {token!r}")
        if w in walk:
            i = walk.index(w)
            cycle = arcs[i:] + [a]
            for b in cycle:
                left[b] -= 1
            del walk[i + 1 :], arcs[i:]
            cycles.append(cycle)
            return True
        walk.append(w)
        arcs.append(a)
        return False

    for _ in range(value):
        walk, arcs = [source], []
        while walk[-1] != sink:
            step(walk, arcs)
        for a in arcs:
            left[a] -= 1
        paths.append(arcs)
    if any(left):
        for start, moves in enumerate(neighbors):
            while any(a >= 0 and left[a] for _, a, _ in moves):
                walk, arcs = [start], []
                while not step(walk, arcs):
                    pass
    return paths, cycles


def decompose(network: Network, flow: Flow) -> Decomposition:
    """Split a valid flow into exactly value-many paths plus cycles.

    The walk of :func:`_decompose_ids`, with arc ids mapped back to
    :class:`Path` and :class:`Cycle` (rotated to its least vertex).
    Raises InvalidInputError when the flow does not validate.
    """
    violation = validate_flow(network, flow)
    if violation is not None:
        raise InvalidInputError(violation)
    value = flow_value(flow)
    if value < 0:
        # compatibility and conservation also admit flows running net
        # backwards; those decompose into sink->source paths, not ours
        raise InvalidInputError(
            f"flow has negative value {value}; cannot decompose into "
            f"{flow.source!r}->{flow.sink!r} paths"
        )
    net = network.compiled
    v, arcs, get = net.vertices, net.arcs, flow.values.get
    s, t = net.index[flow.source], net.index[flow.sink]
    arc_flow = [get((v[tail], v[head]), 0) for tail, head in arcs]
    paths, cycles = _decompose_ids(net, arc_flow, s, t, value)
    return Decomposition(
        _sequence(net, flow.source, flow.sink, paths),
        tuple(
            Cycle(tuple(v[arcs[a][0]] for a in (*c, c[0]))).rotated_to_least()
            for c in cycles
        ),
    )


def _sequence(
    net: CompiledNetwork, source: VertexId, sink: VertexId, paths: Iterable[Sequence]
) -> ArcDisjointSequence:
    """The sequence of the ``source``->``sink`` paths given as arc ids of
    ``net``: the one place arc-id paths become :class:`Path` values."""
    v, arcs = net.vertices, net.arcs
    return ArcDisjointSequence(
        tuple(Path((source, *[v[arcs[a][1]] for a in p])) for p in paths), source, sink
    )


def recompose(decomposition: Decomposition) -> Flow:
    """Exact sum of the path and cycle arc functions, as a flow value."""
    counts: Counter = Counter()
    for p in decomposition.paths:
        counts.update(p.arcs)
    for c in decomposition.cycles:
        counts.update(c.arcs)
    return Flow(
        decomposition.paths.source, decomposition.paths.sink, dict(counts)
    )


def flow_to_text(flow: Flow) -> str:
    """Serialize: a ``flow source sink value`` header, then sorted arc lines."""
    lines = [f"flow {flow.source} {flow.sink} {flow_value(flow)}"]
    for tail, head in sorted(flow.values):
        lines.append(f"{tail} {head} {flow.values[(tail, head)]}")
    return "\n".join(lines) + "\n"
