"""Paths, cycles and arc-disjoint path sequences.

A path is a vertex-distinct forward walk; a cycle closes back on its first
vertex.  ``FORWARD`` and ``BACKWARD`` mark the direction of a residual
move along an arc.

A sequence of source-sink paths is *arc-disjoint* relative to a network
when no arc is used by more components than its capacity allows.  Sequences
are compared modulo reordering; the canonical representative sorts its
components lexicographically by vertex tokens.

Paths and cycles are defined over the vertex tokens alone; capacities only
come in at use sites (:func:`is_arc_disjoint`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvalidInputError
from .network import Arc, Network, VertexId, as_group

FORWARD = 1
BACKWARD = -1


@dataclass(frozen=True, order=True)
class Path:
    """Forward walk through distinct vertices (at least two)."""

    vertices: tuple[VertexId, ...]

    def __post_init__(self):
        if len(self.vertices) < 2:
            raise InvalidInputError("a path needs at least 2 vertices")
        if len(set(self.vertices)) != len(self.vertices):
            raise InvalidInputError(
                f"repeated vertex in path {'-'.join(self.vertices)}"
            )

    @property
    def source(self) -> VertexId:
        return self.vertices[0]

    @property
    def sink(self) -> VertexId:
        return self.vertices[-1]

    @property
    def arcs(self) -> tuple[Arc, ...]:
        v = self.vertices
        return tuple((v[i], v[i + 1]) for i in range(len(v) - 1))

    def __str__(self) -> str:
        return "-".join(self.vertices)


def path_of(*tokens: VertexId) -> Path:
    """Convenience constructor: ``path_of("y", "v", "x", "z")``."""
    return Path(tuple(tokens))


@dataclass(frozen=True)
class Cycle:
    """Forward closed walk: first vertex repeated at the end, rest distinct.

    Directed 2-cycles are allowed: ``(b, d, b)`` uses the two distinct arcs
    (b, d) and (d, b).
    """

    vertices: tuple[VertexId, ...]

    def __post_init__(self):
        if len(self.vertices) < 3:
            raise InvalidInputError("a cycle needs at least 2 distinct vertices")
        if self.vertices[0] != self.vertices[-1]:
            raise InvalidInputError("a cycle must end where it starts")
        body = self.vertices[:-1]
        if len(set(body)) != len(body):
            raise InvalidInputError(
                f"repeated vertex in cycle {'-'.join(self.vertices)}"
            )

    @property
    def arcs(self) -> tuple[Arc, ...]:
        v = self.vertices
        return tuple((v[i], v[i + 1]) for i in range(len(v) - 1))

    def rotated_to_least(self) -> "Cycle":
        """Equivalent cycle starting at its least vertex (canonical form)."""
        body = self.vertices[:-1]
        pivot = body.index(min(body))
        rotated = body[pivot:] + body[:pivot]
        return Cycle(rotated + (rotated[0],))

    def __str__(self) -> str:
        return "-".join(self.vertices)


def cycle_of(*tokens: VertexId) -> Cycle:
    return Cycle(tuple(tokens))


@dataclass(frozen=True)
class ArcDisjointSequence:
    """Ordered multiset of source->sink paths, compared modulo reordering.

    May be empty, in which case the endpoints still identify the pair it
    belongs to.  Capacity validation happens against a network in
    :func:`is_arc_disjoint`.
    """

    paths: tuple[Path, ...]
    source: VertexId
    sink: VertexId

    def __post_init__(self):
        if self.source == self.sink:
            raise InvalidInputError(
                f"source and sink must differ, both are {self.source!r}"
            )
        for p in self.paths:
            if p.source != self.source or p.sink != self.sink:
                raise InvalidInputError(
                    f"path {p} does not run {self.source!r}->{self.sink!r}"
                )

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.paths) if self.paths else "()"


def is_arc_disjoint(network: Network, paths: Sequence[Path]) -> bool:
    """True iff every arc's multiplicity across the sequence is within capacity.

    All paths must share one source and one sink (InvalidInputError
    otherwise); the empty sequence is arc-disjoint.
    """
    if paths:
        y, z = paths[0].source, paths[0].sink
        for p in paths:
            if p.source != y or p.sink != z:
                raise InvalidInputError(
                    f"path {p} does not run {y!r}->{z!r} like the first component"
                )
    counts: Counter = Counter()
    for p in paths:
        counts.update(p.arcs)
    return all(count <= network.capacity(arc) for arc, count in counts.items())


def passage_count(seq: ArcDisjointSequence, members: Iterable[VertexId]) -> int:
    """Number of components meeting the group; invariant under reordering."""
    group = as_group(members)
    if not group:
        return 0
    return sum(1 for p in seq.paths if any(v in group for v in p.vertices))
