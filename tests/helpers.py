"""Builders shared between test modules (not hypothesis strategies)."""

from fullflow.flows import Flow, augment, max_flow, null_flow
from fullflow.network import Arc, Network, VertexId
from fullflow.paths import BACKWARD, FORWARD, GeneralizedPath


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
        for tail, head in network.positive_arcs():
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
    f = null_flow(y, z)
    for _ in range(stop_after):
        gp = random_augmenting_path(net, f, rng)
        if gp is None:
            break
        f = augment(f, gp)
    return f
