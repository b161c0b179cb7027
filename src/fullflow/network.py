"""Capacitated complete digraphs over string-token vertices.

A network is a finite vertex set (at least two vertices) together with a
nonnegative integer capacity for every ordered pair of distinct vertices.
The digraph is implicitly complete: only positive capacities are stored,
and querying any other pair returns 0.  Vertex tokens are non-empty
strings over ``[A-Za-z0-9_]`` and are ordered lexicographically; that
order is the canonical order used by every enumeration and report in this
package, so identical inputs always produce identical outputs.

Vertex groups are plain ``frozenset`` values validated against a network
by :func:`vertex_group`.

Text format (UTF-8), parsed by :func:`parse_network`::

    # comment lines start with '#'
    vertices y v x u z
    y v 2
    v x 1

One ``vertices`` line first, then one ``tail head capacity`` line per
positive-capacity arc.  Parse errors report the offending line number.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import InvalidInputError

VertexId = str
Arc = tuple[VertexId, VertexId]

_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+\Z")
# int() also reads '+3', '1_0' and non-ASCII digits; the format does not
_CAPACITY_RE = re.compile(r"-?[0-9]+\Z")


def check_token(token: str) -> str:
    """Return ``token`` if it is a valid vertex token, else raise."""
    if not isinstance(token, str) or not _TOKEN_RE.match(token):
        raise InvalidInputError(f"bad vertex token {token!r}: expected [A-Za-z0-9_]+")
    return token


def _check_vertices(vertices: Iterable[VertexId]) -> tuple[VertexId, ...]:
    """The vertices in canonical order; raise on a bad token, a repeated
    vertex or fewer than two vertices."""
    tokens = tuple(check_token(v) for v in vertices)
    if len(set(tokens)) != len(tokens):
        dupe = next(v for v in tokens if tokens.count(v) > 1)
        raise InvalidInputError(f"vertex {dupe!r} declared more than once")
    if len(tokens) < 2:
        raise InvalidInputError(
            f"a network needs at least 2 vertices, got {len(tokens)}"
        )
    return tuple(sorted(tokens))


def _check_arc(arc: Arc, cap, known) -> None:
    """Raise unless ``arc`` is a pair joining two distinct vertices of
    ``known`` and ``cap`` is a nonnegative ``int`` (not a bool)."""
    if not (isinstance(arc, tuple) and len(arc) == 2):
        raise InvalidInputError(f"arc {arc!r} is not a (tail, head) pair")
    tail, head = arc
    if tail not in known:
        raise InvalidInputError(f"unknown vertex {tail!r} in arc {arc!r}")
    if head not in known:
        raise InvalidInputError(f"unknown vertex {head!r} in arc {arc!r}")
    if tail == head:
        raise InvalidInputError(f"self-loop on vertex {tail!r}")
    if isinstance(cap, bool) or not isinstance(cap, int):
        raise InvalidInputError(f"capacity {cap!r} on arc {arc!r} is not an integer")
    if cap < 0:
        raise InvalidInputError(f"negative capacity {cap} on arc {arc!r}")


@dataclass(frozen=True)
class CompiledNetwork:
    """Integer-indexed form of a network, built once per network: the one
    form the solvers run on.  Vertex ``i`` is ``vertices[i]``, in canonical
    order, and ``index`` maps each vertex to ``i``: the only two maps
    between tokens and ids, read at the public API's boundary.  Arc ``a``
    is ``arcs[a]``, the ``a``-th positive arc in canonical order as a
    ``(tail id, head id)`` pair, with capacity ``capacities[a]``.
    ``neighbors[i]`` lists every vertex joined to vertex ``i`` by an arc in
    either direction, in canonical order, as ``(j, out_arc, in_arc)``: the
    ids of the arcs ``i->j`` and ``j->i``, or -1 where there is no such
    arc: the residual moves a flow can ever offer at ``i``.  It is the one
    per-vertex arc index, read by every solver.
    """

    vertices: tuple[VertexId, ...]
    index: dict[VertexId, int]
    arcs: tuple[tuple[int, int], ...]
    capacities: tuple[int, ...]
    neighbors: tuple[tuple[tuple[int, int, int], ...], ...]


@dataclass(frozen=True)
class Network:
    """Immutable capacitated complete digraph.

    ``vertices`` is kept sorted; ``capacities`` is a read-only mapping from
    arcs to their positive capacities (zero entries are normalized away on
    construction), so the compiled form built from them once stays valid.
    """

    vertices: tuple[VertexId, ...]
    capacities: Mapping[Arc, int]

    def __post_init__(self):
        object.__setattr__(self, "vertices", _check_vertices(self.vertices))
        known = set(self.vertices)
        cleaned: dict[Arc, int] = {}
        for arc, cap in self.capacities.items():
            _check_arc(arc, cap, known)
            if cap > 0:
                cleaned[tuple(arc)] = cap
        object.__setattr__(self, "capacities", MappingProxyType(cleaned))

    def capacity(self, arc: Arc) -> int:
        """Capacity of ``arc``; 0 for any pair without a stored entry."""
        return self.capacities.get(arc, 0)

    @cached_property
    def compiled(self) -> CompiledNetwork:
        """The integer-indexed form the flow solvers run on."""
        index = {v: i for i, v in enumerate(self.vertices)}
        caps = {(index[t], index[h]): c for (t, h), c in self.capacities.items()}
        arcs = tuple(sorted(caps))  # ids follow the canonical order
        arc_ids = {arc: a for a, arc in enumerate(arcs)}
        joined: list[set[int]] = [set() for _ in self.vertices]
        for tail, head in arcs:
            joined[tail].add(head)
            joined[head].add(tail)
        return CompiledNetwork(
            vertices=self.vertices,
            index=index,
            arcs=arcs,
            capacities=tuple(map(caps.__getitem__, arcs)),
            neighbors=tuple(
                tuple(
                    (j, arc_ids.get((i, j), -1), arc_ids.get((j, i), -1))
                    for j in sorted(around)
                )
                for i, around in enumerate(joined)
            ),
        )


def as_group(members: Iterable[VertexId]) -> frozenset:
    """``members`` as a frozenset; raise InvalidInputError if it is a
    string, which would otherwise be read as a group of its characters."""
    if isinstance(members, str):
        raise InvalidInputError(f"group {members!r} is a string, not a set of vertices")
    return frozenset(members)


def vertex_group(network: Network, members: Iterable[VertexId]) -> frozenset:
    """Validate ``members`` against ``network`` and return them as a frozenset.

    Raises InvalidInputError naming the first offending token (in order of
    ``str``), or naming ``members`` if it is a string (:func:`as_group`).
    The result may be empty and may contain any network vertex.
    """
    group = as_group(members)
    known = network.compiled.index
    for token in sorted(group, key=str):
        if token not in known:
            raise InvalidInputError(f"unknown vertex {token!r}")
    return group


def build_network(
    vertices: Iterable[VertexId],
    entries: Iterable[tuple[VertexId, VertexId, int]],
) -> Network:
    """Build a network from declared vertices and (tail, head, capacity) entries.

    Zero-capacity entries are accepted and dropped.  Raises
    InvalidInputError naming the offending entry, token or arc for an
    entry that is not a tuple or list of three, a bad or repeated vertex,
    fewer than two vertices, an unknown vertex, a self-loop, a repeated
    arc, or a capacity that is negative or not an ``int``.  A repeated arc
    is reported after the first entries of all arcs have been checked.
    """
    caps: dict[Arc, int] = {}
    repeat = None
    for entry in entries:
        if not (isinstance(entry, (tuple, list)) and len(entry) == 3):
            raise InvalidInputError(
                f"entry {entry!r} is not a (tail, head, capacity) triple"
            )
        tail, head, cap = entry
        arc = (tail, head)
        if arc not in caps:
            caps[arc] = cap
        elif repeat is None:
            repeat = arc
    network = Network(tuple(vertices), caps)
    if repeat is not None:
        raise InvalidInputError(f"duplicate arc {repeat!r}")
    return network


def parse_network(text: str, *, max_capacity: int | None = None) -> Network:
    """Parse the text format described in the module docstring.

    ``max_capacity``, when given, rejects any larger capacity (used by the
    CLI to keep downstream arithmetic comfortably in machine range).
    All failures raise InvalidInputError naming the 1-based line number.
    """
    vertices: tuple[VertexId, ...] | None = None
    caps: dict[Arc, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        try:
            if vertices is None:
                if fields[0] != "vertices":
                    raise ValueError("expected a 'vertices' line first")
                vertices = _check_vertices(fields[1:])
                continue
            if len(fields) != 3:
                raise ValueError("expected 'tail head capacity'")
            tail, head, cap_text = fields
            try:
                if not _CAPACITY_RE.match(cap_text):
                    raise ValueError
                cap = int(cap_text)
            except ValueError:
                raise ValueError(f"bad capacity {cap_text!r}") from None
            _check_arc((tail, head), cap, vertices)
            if max_capacity is not None and cap > max_capacity:
                raise ValueError(
                    f"capacity {cap} exceeds the configured cap {max_capacity}"
                )
            if (tail, head) in caps:
                raise ValueError(f"duplicate arc ({tail!r}, {head!r})")
        except ValueError as exc:
            raise InvalidInputError(f"line {line_no}: {exc}") from None
        # zero entries are kept here for duplicate detection; Network drops them
        caps[(tail, head)] = cap
    if vertices is None:
        raise InvalidInputError("line 1: empty input: no 'vertices' line")
    return Network(vertices, caps)


def load_network(path, *, max_capacity: int | None = None) -> Network:
    """Read and parse a network file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_network(handle.read(), max_capacity=max_capacity)


def ordered_pairs(network: Network) -> list[tuple[VertexId, VertexId]]:
    """All ordered pairs of distinct vertices, in canonical order."""
    return [
        (y, z) for y in network.vertices for z in network.vertices if y != z
    ]
