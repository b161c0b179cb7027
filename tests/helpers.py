"""Builders and paper definitions shared between test modules (not
hypothesis strategies).

The definitions -- the ordered pairs, the flow through a group and the
passage count of a sequence, restriction, boundary arcs, set capacity,
generalized paths and the augmenting path, the signed arc function and
what is built from it, the oracle throughput and the enumerated passage
-- are written as the paper states them, with no shortcut, so that tests
can check the library against them; ``cut_capacity_touching`` is the cut
rule's C_X on vertex tokens, over the vertices ``residual_reach`` finds.
``reference_decompose`` is the canonical decomposition walk on vertex
tokens, the reference for the library's walk on arc ids.
``reference_min_cost_max_flow`` is the successive shortest path solver,
the reference for the library's negative-cycle canceller, which
``cheapest_max_flow`` runs on the canonical max flow.
"""

import inspect
import random
from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations

from fullflow import flows, quantities
from fullflow.errors import InvalidInputError, InvariantViolationError
from fullflow.flows import (
    Decomposition,
    Flow,
    _augment,
    _bfs_augmenting,
    flow_value,
    max_flow,
    validate_flow,
)
from fullflow.network import Arc, Network, VertexId, as_group, vertex_group
from fullflow.oracle import brute_force_flows
from fullflow.paths import (
    BACKWARD,
    FORWARD,
    ArcDisjointSequence,
    Cycle,
    Path,
    is_arc_disjoint,
)
from fullflow.quantities import (
    DEFAULT_NODE_BUDGET,
    _path_candidates,
    encode_groups,
    enumerate_max_sequences,
)


def ordered_pairs(network):
    """All ordered pairs of distinct vertices, in canonical order."""
    return [(y, z) for y in network.vertices for z in network.vertices if y != z]


def flow_through(flow, members):
    """Total flow passing through the group: the out-sum at each interior
    member, and the flow value at the source or sink if they belong to it.
    ``members`` may not be a string (``as_group``)."""
    total = 0
    for x in as_group(members):
        if x in (flow.source, flow.sink):
            total += flow_value(flow)
        else:
            total += sum(v for (t, _h), v in flow.values.items() if t == x)
    return total


def passage_count(seq, members):
    """Number of components of the sequence meeting the group; invariant
    under reordering.  ``members`` may not be a string (``as_group``)."""
    group = as_group(members)
    return sum(1 for p in seq.paths if any(v in group for v in p.vertices))


def restrict(network, members):
    """Zero out every arc with an endpoint in the group; keep the rest."""
    group = vertex_group(network, members)
    kept = {
        arc: cap
        for arc, cap in network.capacities.items()
        if arc[0] not in group and arc[1] not in group
    }
    return Network(network.vertices, kept)


def residual_reach(network, source, values):
    """The vertices that the residual network of the arc assignment
    ``values`` reaches from ``source``; with no flow, those that a path of
    positive-capacity arcs reaches."""
    reached = {source}
    queue = [source]
    for v in queue:
        for (tail, head), cap in network.capacities.items():
            on = values.get((tail, head), 0)
            if tail == v and on < cap:
                w = head
            elif head == v and on > 0:
                w = tail
            else:
                continue
            if w not in reached:
                reached.add(w)
                queue.append(w)
    return reached


def cut_capacity_touching(network, flow, members):
    """C_X of the cut rule, from the paper's definitions: the capacity of
    the arcs that touch the group and lead from the vertices the residual
    network of ``flow`` reaches from its source to the rest."""
    group = vertex_group(network, members)
    reached = residual_reach(network, flow.source, flow.values)
    return sum(
        cap
        for (tail, head), cap in network.capacities.items()
        if tail in reached and head not in reached and group & {tail, head}
    )


def throughput_cut_bound(network, flow, members):
    """The min cut's lower bound on a throughput, from the paper's
    definitions: each member on the source side of the residual network of
    ``flow`` sends out its arcs leaving that side, and each other member
    passes on its arcs entering from it, so an arc between two members
    counts at both ends."""
    reached = residual_reach(network, flow.source, flow.values)
    return sum(
        cap
        for (tail, head), cap in network.capacities.items()
        for x in vertex_group(network, members)
        if (x == tail and x in reached and head not in reached)
        or (x == head and x not in reached and tail in reached)
    )


def boundary_arcs(network, members):
    """``(outgoing, incoming)``: every ordered pair from the group to its
    complement and back, whatever its capacity."""
    group = vertex_group(network, members)
    rest = [v for v in network.vertices if v not in group]
    outgoing = frozenset((x, u) for x in group for u in rest)
    incoming = frozenset((u, x) for x in group for u in rest)
    return outgoing, incoming


def capacity_of_set(network, members):
    """Total capacity of the arcs leaving the group."""
    outgoing, _ = boundary_arcs(network, members)
    return sum(network.capacity(arc) for arc in outgoing)


def seeded_network(n, p=0.3):
    """The n-vertex network ``v00``.. in which each ordered pair gets an
    arc with probability ``p`` and a capacity in 1..3, from
    ``random.Random(n)``."""
    rng = random.Random(n)
    names = [f"v{i:02d}" for i in range(n)]
    caps = {
        (t, h): rng.randint(1, 3)
        for t in names
        for h in names
        if t != h and rng.random() < p
    }
    return Network(tuple(names), caps)


def network_to_text(network):
    """The network in the text format ``parse_network`` reads."""
    lines = ["vertices " + " ".join(network.vertices)]
    for tail, head in sorted(network.capacities):
        lines.append(f"{tail} {head} {network.capacity((tail, head))}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GeneralizedPath:
    """Vertex-distinct walk whose steps may run with or against the arcs.

    ``directions[i]`` is FORWARD when step i uses arc
    ``(vertices[i], vertices[i+1])`` and BACKWARD when it uses
    ``(vertices[i+1], vertices[i])``.
    """

    vertices: tuple[VertexId, ...]
    directions: tuple[int, ...]

    def __post_init__(self):
        if len(self.vertices) < 2:
            raise InvalidInputError("a generalized path needs at least 2 vertices")
        if len(set(self.vertices)) != len(self.vertices):
            raise InvalidInputError(
                f"repeated vertex in generalized path {'-'.join(self.vertices)}"
            )
        if len(self.directions) != len(self.vertices) - 1:
            raise InvalidInputError("need one direction marker per consecutive pair")
        if any(d not in (FORWARD, BACKWARD) for d in self.directions):
            raise InvalidInputError("direction markers must be FORWARD or BACKWARD")

    @property
    def source(self) -> VertexId:
        return self.vertices[0]

    @property
    def sink(self) -> VertexId:
        return self.vertices[-1]

    @property
    def signed_arcs(self) -> tuple[tuple[Arc, int], ...]:
        out = []
        v = self.vertices
        for i, direction in enumerate(self.directions):
            arc = (v[i], v[i + 1]) if direction == FORWARD else (v[i + 1], v[i])
            out.append((arc, direction))
        return tuple(out)

    def __str__(self) -> str:
        parts = [self.vertices[0]]
        for i, direction in enumerate(self.directions):
            parts.append(">" if direction == FORWARD else "<")
            parts.append(self.vertices[i + 1])
        return "".join(parts)


def _moves_to_gpath(net, moves, source):
    arcs = token_arcs(net)
    vertices = [source]
    directions = []
    for arc, direction in moves:
        tail, head = arcs[arc]
        vertices.append(head if direction == FORWARD else tail)
        directions.append(direction)
    return GeneralizedPath(tuple(vertices), tuple(directions))


def find_augmenting_path(network, flow):
    """Breadth-first residual search for an augmenting generalized path.

    Returns None exactly when the flow is maximum.  The result is the
    unique lexicographically least shortest augmenting path under the
    canonical vertex order: the path ``max_flow`` saturates next.  Raises
    InvalidInputError when the flow does not validate.
    """
    violation = validate_flow(network, flow)
    if violation is not None:
        raise InvalidInputError(violation)
    net = network.compiled
    source, sink = net.index[flow.source], net.index[flow.sink]
    values = [flow.values.get(arc, 0) for arc in token_arcs(net)]
    tree = _bfs_augmenting(net, net.capacities, values, source, sink)
    if sink not in tree:  # no path left
        return None
    moves = []
    while sink != source:  # the parent links back from the sink
        sink, arc, direction = tree[sink]
        moves.append((arc, direction))
    return _moves_to_gpath(net, moves[::-1], flow.source)


def token_arcs(net):
    """The arcs of the compiled network ``net`` as token pairs, by arc id."""
    v = net.vertices
    return [(v[tail], v[head]) for tail, head in net.arcs]


def pair_ids(network, source, sink):
    """``(compiled network, source id, sink id)``: the pair as
    ``settle_pair`` and the passage search take it."""
    net = network.compiled
    return net, net.index[source], net.index[sink]


def encoded(network, groups):
    """The token groups as ``settle_pair`` takes them: their
    ``encode_groups`` on the compiled network."""
    return encode_groups(network.compiled, groups)


def member_ids(network, group):
    """A token group as the solvers below ``settle_pair`` take it, as a
    frozenset of vertex ids; None stays None."""
    if group is None:
        return None
    return frozenset(map(network.compiled.index.__getitem__, group))


def mutated(function, old, new):
    """``function`` rebuilt from its source with the one ``old`` replaced,
    for negative controls: a check that passes on the package must fail on
    the mutant."""
    source = inspect.getsource(function)
    count = source.count(old)
    assert count == 1, (
        f"{function.__qualname__} holds {old!r} {count} times, expected once"
    )
    namespace = dict(vars(inspect.getmodule(function)))
    exec(source.replace(old, new), namespace)
    return namespace[function.__name__]


def record_augment_calls(monkeypatch):
    """Wrap the augment loop where the package calls it; the returned list
    gets one entry per call: True for a canonical max flow (from zero flow
    under the network's own capacities), False for a restricted one."""
    calls = []

    def recorded(net, caps, flow, source, sink, *rest):
        calls.append(caps is net.capacities and not any(flow))
        return _augment(net, caps, flow, source, sink, *rest)

    monkeypatch.setattr(flows, "_augment", recorded)
    monkeypatch.setattr(quantities, "_augment", recorded)
    return calls


def cheapest_max_flow(network, source, sink, arc_cost):
    """(value, cost, flow) of the canonical max flow with its negative-cost
    cycles cancelled: the package's canceller under general costs, both
    steps looked up on ``flows`` when called, so that a patch of either
    takes effect."""
    net = network.compiled
    costs = [arc_cost.get(arc, 0) for arc in token_arcs(net)]
    flow = [0] * len(net.arcs)
    s, t = net.index[source], net.index[sink]
    value, _ = flows._augment(net, net.capacities, flow, s, t)
    flows._cancel_negative_cycles(net, flow, costs)
    cost = sum(c * f for c, f in zip(costs, flow))
    return value, cost, flows._as_flow(net, source, sink, flow)


def cancel_one_cycle(net, flow, costs):
    """A canceller broken for negative controls: it cancels the first
    negative-cost cycle it finds, if any, and stops there."""
    caps = net.capacities
    moves = flows._negative_cycle(net, flow, costs) or []
    bottleneck = min(
        [caps[arc] - flow[arc] if d == FORWARD else flow[arc] for arc, d in moves],
        default=0,
    )
    for arc, d in moves:
        flow[arc] += d * bottleneck


def chi(walk):
    """Signed arc function of a path, cycle or generalized path: +1 on
    forward arcs, -1 on backward arcs, 0 (absent) elsewhere."""
    if isinstance(walk, GeneralizedPath):
        return dict(walk.signed_arcs)
    return {arc: 1 for arc in walk.arcs}


def augment(flow, gpath):
    """``flow + chi(gpath)``: one more unit along an augmenting path.

    ValueError when the path does not run source->sink; the Flow itself
    rejects an arc driven negative.
    """
    if (gpath.source, gpath.sink) != (flow.source, flow.sink):
        raise ValueError(
            f"path runs {gpath.source!r}->{gpath.sink!r}, "
            f"flow is {flow.source!r}->{flow.sink!r}"
        )
    values = Counter(flow.values)
    values.update(chi(gpath))
    return Flow(flow.source, flow.sink, dict(values))


def induced_flow(network, seq):
    """The sum of the components' signed arc functions; ValueError when an
    arc is used more often than its capacity."""
    counts = Counter()
    for path in seq:
        counts.update(chi(path))
    for arc in sorted(counts):
        if counts[arc] > network.capacity(arc):
            raise ValueError(
                f"arc {arc!r} used {counts[arc]} times, "
                f"capacity {network.capacity(arc)}"
            )
    return Flow(seq.source, seq.sink, dict(counts))


def oracle_max_flows(network, source, sink):
    """(value, flows) of the pair's maximum flows as the brute-force oracle
    enumerates them, each arc-id assignment made a :class:`Flow`."""
    value, assignments = brute_force_flows(network)[source, sink]
    net = network.compiled
    return value, [flows._as_flow(net, source, sink, a) for a in assignments]


def brute_force_min_throughput(network, source, sink, members):
    """Minimum group throughput over the exhaustively enumerated maximum flows."""
    group = vertex_group(network, members)
    _value, maximum_flows = oracle_max_flows(network, source, sink)
    return min(flow_through(f, group) for f in maximum_flows)


def reference_min_cost_max_flow(network, source, sink, arc_cost):
    """(value, cost, flow) of a cheapest maximum flow by successive shortest
    paths: from the null flow, saturate a cheapest residual source->sink
    path, found by Bellman-Ford over the residual moves (forward at the
    arc's cost, backward at minus it), until none is left."""
    net = network.compiled
    costs = [arc_cost.get(arc, 0) for arc in token_arcs(net)]
    caps = net.capacities
    flow = [0] * len(net.arcs)
    s, t = net.index[source], net.index[sink]
    n = len(net.neighbors)
    value = 0
    while True:
        dist = [None] * n
        parent = [None] * n
        dist[s] = 0
        for _ in range(n):
            for v in range(n):
                if dist[v] is None:
                    continue
                for w, out_arc, in_arc in net.neighbors[v]:
                    moves = []
                    if out_arc >= 0 and flow[out_arc] < caps[out_arc]:
                        moves.append((out_arc, FORWARD, costs[out_arc]))
                    if in_arc >= 0 and flow[in_arc]:
                        moves.append((in_arc, BACKWARD, -costs[in_arc]))
                    for arc, direction, cost in moves:
                        if dist[w] is None or dist[v] + cost < dist[w]:
                            dist[w] = dist[v] + cost
                            parent[w] = (v, arc, direction)
        if dist[t] is None:
            break
        path = []
        w = t
        while w != s:
            w, arc, direction = parent[w]
            path.append((arc, direction))
        bottleneck = min(
            caps[arc] - flow[arc] if d == FORWARD else flow[arc] for arc, d in path
        )
        for arc, d in path:
            flow[arc] += d * bottleneck
        value += bottleneck
    cost = sum(c * f for c, f in zip(costs, flow))
    support = {arc: f for arc, f in zip(token_arcs(net), flow) if f}
    return value, cost, Flow(source, sink, support)


def candidate_paths(network, source, sink):
    """The passage search's candidate paths, in its order, as token paths."""
    net = network.compiled
    found = _path_candidates(
        net, net.index[source], net.index[sink], DEFAULT_NODE_BUDGET
    )
    heads = [head for _, head in token_arcs(net)]
    return [Path((source,) + tuple(heads[a] for a in arcs)) for arcs in found]


def maximum_sequences(network, source, sink):
    """Every maximum sequence by its definition: each multiset of
    max-flow-many candidate paths within the capacities, in
    ``itertools.combinations_with_replacement`` order."""
    value, _ = max_flow(network, source, sink)
    return [
        paths
        for paths in combinations_with_replacement(
            candidate_paths(network, source, sink), value
        )
        if is_arc_disjoint(network, paths)
    ]


def enumerated_passage(network, source, sink, members):
    """Forced passage by its definition: the minimum passage count over
    every maximum sequence, with no settle rule and no pruning."""
    group = vertex_group(network, members)
    return min(
        passage_count(s, group)
        for s in enumerate_max_sequences(network, source, sink)
    )


class ResidualView:
    """Read-only residual quantities derived from a network and a flow.

    ``room`` is the unused capacity of an arc, ``cancelable`` the flow that
    could be pushed back.  ``moves_from`` lists the residual steps leaving a
    vertex in canonical order (sorted by neighbor, forward preferred when
    both directions reach the same neighbor).
    """

    def __init__(self, network: Network, flow: Flow):
        self.network = network
        self.flow = flow
        self._into: dict[VertexId, list[VertexId]] = {}
        for (tail, head), val in flow.values.items():
            if val >= 1:
                self._into.setdefault(head, []).append(tail)
        for tails in self._into.values():
            tails.sort()
        self._out: dict[VertexId, list[VertexId]] = {}
        for tail, head in sorted(network.capacities):
            self._out.setdefault(tail, []).append(head)

    def room(self, arc: Arc) -> int:
        return self.network.capacity(arc) - self.flow.values.get(arc, 0)

    def cancelable(self, arc: Arc) -> int:
        return self.flow.values.get(arc, 0)

    def moves_from(self, vertex: VertexId) -> list[tuple[VertexId, Arc, int]]:
        options: dict[VertexId, tuple[Arc, int]] = {}
        for head in self._out.get(vertex, ()):
            if self.room((vertex, head)) >= 1:
                options[head] = ((vertex, head), FORWARD)
        for tail in self._into.get(vertex, ()):
            if tail not in options:
                options[tail] = ((tail, vertex), BACKWARD)
        return [(w, arc, d) for w, (arc, d) in sorted(options.items())]


def random_augmenting_path(net, flow, rng):
    """A uniformly scrambled residual search; None iff the flow is maximum."""
    parent = {flow.source: None}
    queue = [flow.source]
    view = ResidualView(net, flow)
    while queue:
        v = queue.pop(rng.randrange(len(queue)))
        moves = view.moves_from(v)
        rng.shuffle(moves)
        for w, arc, direction in moves:
            if w in parent:
                continue
            parent[w] = (v, arc, direction)
            if w == flow.sink:
                vertices, directions = [w], []
                while parent[vertices[-1]] is not None:
                    prev, arc, direction = parent[vertices[-1]]
                    vertices.append(prev)
                    directions.append(direction)
                return GeneralizedPath(
                    tuple(reversed(vertices)), tuple(reversed(directions))
                )
            queue.append(w)
    return None


def random_flow(net, y, z, rng):
    """A valid flow built from a random augmentation prefix."""
    value, _ = max_flow(net, y, z)
    stop_after = rng.randint(0, value)
    f = Flow(y, z, {})
    for _ in range(stop_after):
        gp = random_augmenting_path(net, f, rng)
        if gp is None:
            break
        f = augment(f, gp)
    return f


def reference_decompose(network, flow):
    """``decompose`` walked on vertex tokens: repeatedly follow the
    canonically least positive out-arc from the source, peeling a cycle
    whenever a vertex repeats, then peel leftover circulation starting
    from the least vertex still carrying flow.  The flow must be valid
    with a nonnegative value."""
    out = {}
    for (tail, head), val in flow.values.items():
        out.setdefault(tail, {})[head] = val

    def pick(v):
        if v not in out:
            raise InvariantViolationError(f"decomposition walk stuck at vertex {v!r}")
        return min(out[v])

    def subtract(tail, head):
        inner = out[tail]
        inner[head] -= 1
        if inner[head] == 0:
            del inner[head]
            if not inner:
                del out[tail]

    def peel_walk_cycle(walk, pos, repeat):
        i = pos[repeat]
        body = walk[i:]
        for j in range(i, len(walk) - 1):
            subtract(walk[j], walk[j + 1])
        subtract(walk[-1], repeat)
        del walk[i + 1 :]
        for v in list(pos):
            if pos[v] > i:
                del pos[v]
        return Cycle(tuple(body) + (repeat,)).rotated_to_least()

    paths = []
    cycles = []
    for _ in range(flow_value(flow)):
        walk = [flow.source]
        pos = {flow.source: 0}
        while walk[-1] != flow.sink:
            w = pick(walk[-1])
            if w in pos:
                cycles.append(peel_walk_cycle(walk, pos, w))
            else:
                pos[w] = len(walk)
                walk.append(w)
        for j in range(len(walk) - 1):
            subtract(walk[j], walk[j + 1])
        paths.append(Path(tuple(walk)))
    while out:
        start = min(out)
        walk = [start]
        pos = {start: 0}
        while True:
            w = pick(walk[-1])
            if w in pos:
                cycles.append(peel_walk_cycle(walk, pos, w))
                break
            pos[w] = len(walk)
            walk.append(w)
    return Decomposition(
        ArcDisjointSequence(tuple(paths), flow.source, flow.sink),
        tuple(cycles),
    )


def add_random_cycles(network, flow, rng, count):
    """``flow`` plus one unit around each of up to ``count`` simple cycles
    drawn at random from those with room left on every arc."""
    values = Counter(flow.values)
    vertices = network.vertices
    for _ in range(count):
        open_cycles = [
            cycle
            for k in range(2, min(len(vertices), 4) + 1)
            for cycle in permutations(vertices, k)
            if cycle[0] == min(cycle)
            and all(
                values[arc] < network.capacity(arc)
                for arc in zip(cycle, cycle[1:] + cycle[:1])
            )
        ]
        if not open_cycles:
            break
        cycle = rng.choice(open_cycles)
        values.update(zip(cycle, cycle[1:] + cycle[:1]))
    return Flow(flow.source, flow.sink, dict(values))
