"""Shared hypothesis strategies: small random networks and related draws."""

import random

from hypothesis import strategies as st

from fullflow.figures import figure_network
from fullflow.network import Network

TOKENS = ("a", "b", "c", "d", "e", "f")


@st.composite
def networks(draw, min_vertices=2, max_vertices=5, max_capacity=3):
    n = draw(st.integers(min_vertices, max_vertices))
    vertices = TOKENS[:n]
    caps = {}
    for tail in vertices:
        for head in vertices:
            if tail != head:
                cap = draw(
                    st.one_of(st.just(0), st.integers(0, max_capacity)),
                    label=f"capacity {tail}->{head}",
                )
                if cap:
                    caps[(tail, head)] = cap
    return Network(vertices, caps)


@st.composite
def networks_with_endpoints(draw, **kwargs):
    net = draw(networks(**kwargs))
    y = draw(st.sampled_from(net.vertices))
    z = draw(st.sampled_from([v for v in net.vertices if v != y]))
    return net, y, z


@st.composite
def networks_with_endpoints_and_group(draw, **kwargs):
    net, y, z = draw(networks_with_endpoints(**kwargs))
    members = draw(st.sets(st.sampled_from(net.vertices)))
    return net, y, z, frozenset(members)


@st.composite
def reduced_capacities(draw, net):
    """A capacity function pointwise at most the given network's."""
    caps = {}
    for arc, cap in sorted(net.capacities.items()):
        reduced = draw(st.integers(0, cap), label=f"reduced {arc}")
        if reduced:
            caps[arc] = reduced
    return Network(net.vertices, caps)


@st.composite
def fig5_with_extra_arcs(draw, p=0.08):
    """fig5 plus random arcs of capacity 1..2, each absent arc added with
    probability ``p``.  fig5's pair (y, z) has a group with drop < passage,
    and the extra arcs keep many such gaps while moving them around."""
    fig5 = figure_network("fig5")
    rng = random.Random(draw(st.integers(0, 2**32 - 1), label="seed"))
    caps = dict(fig5.capacities)
    for tail in fig5.vertices:
        for head in fig5.vertices:
            if tail != head and (tail, head) not in caps and rng.random() < p:
                caps[(tail, head)] = rng.randint(1, 2)
    return Network(fig5.vertices, caps)
