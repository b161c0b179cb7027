"""A passage reference beyond the oracle's reach.

The terms that no settle rule settles among the two-vertex groups of
``seeded_network(12)`` and ``seeded_network(16)`` are pinned with their max
flow, drop and passage.  The passages come from an integer program that
shares no code with the passage search: with X the group, maximize |g| over
integer flows g of G - X and h of G with g + h <= c and |g| + |h| equal to
the max flow.  The paths of g avoid X, so the passage is the max flow minus
that maximum.  The search checks them where it answers at the default
budget, and scipy's ``milp`` (HiGHS) re-derives all of them where scipy is
installed.
"""

import itertools
import random

import pytest

from fullflow import quantities
from fullflow.flows import max_flow
from fullflow.quantities import forced_passage, settle_pair

from helpers import encoded, pair_ids, seeded_network

# (n, source, sink, group): (max flow, drop, passage)
PINNED = {
    (12, "v01", "v04", ("v00", "v05")): (9, 4, 5),
    (12, "v01", "v04", ("v00", "v11")): (9, 3, 4),
    (12, "v01", "v04", ("v05", "v10")): (9, 4, 5),
    (12, "v01", "v05", ("v03", "v11")): (6, 3, 4),
    (12, "v01", "v05", ("v04", "v11")): (6, 5, 6),
    (12, "v03", "v02", ("v05", "v07")): (7, 3, 4),
    (12, "v05", "v10", ("v02", "v07")): (9, 2, 3),
    (12, "v05", "v10", ("v07", "v08")): (9, 2, 3),
    (12, "v07", "v02", ("v00", "v08")): (6, 2, 3),
    (12, "v09", "v02", ("v00", "v08")): (7, 3, 4),
    (12, "v09", "v10", ("v00", "v01")): (7, 2, 3),
    (12, "v09", "v10", ("v00", "v06")): (7, 2, 3),
    (12, "v10", "v05", ("v00", "v06")): (4, 1, 2),
    (16, "v00", "v08", ("v02", "v09")): (7, 2, 3),
    (16, "v05", "v08", ("v02", "v09")): (7, 2, 3),
    (16, "v06", "v12", ("v01", "v04")): (7, 2, 3),
    (16, "v07", "v08", ("v02", "v09")): (7, 2, 3),
    (16, "v08", "v07", ("v00", "v10")): (13, 3, 4),
    (16, "v08", "v07", ("v10", "v13")): (13, 4, 4),
    (16, "v13", "v08", ("v02", "v09")): (7, 2, 3),
}

# the n=12 terms on which the search answers at the default budget; on
# the two of pair (v05, v10) it runs out of budget after seconds, and on
# the n=16 terms it does not answer at all
SEARCHED = [term for term in PINNED if term[0] == 12 and term[1:3] != ("v05", "v10")]


def test_pinned_terms_are_those_no_rule_settles(monkeypatch):
    # every term that reaches the search, by settle_pair with the search
    # replaced by a recorder, with the max flow and drop it is given
    reached = {}

    def record(net, s, t, members, node_budget, total, drop):
        v = net.vertices
        group = tuple(sorted(v[i] for i in members))
        reached[len(v), v[s], v[t], group] = total, drop
        return drop, []

    monkeypatch.setattr(quantities, "_min_passage", record)
    for n in (12, 16):
        net = seeded_network(n)
        groups = encoded(net, map(frozenset, itertools.combinations(net.vertices, 2)))
        for y, z in itertools.permutations(net.vertices, 2):
            settle_pair(*pair_ids(net, y, z), groups, passage=True)
    assert reached == {term: pinned[:2] for term, pinned in PINNED.items()}


def _check_passages(terms, passage_of):
    for n, source, sink, group in terms:
        passage = passage_of(seeded_network(n), source, sink, group)
        assert passage == PINNED[n, source, sink, group][2], (n, source, sink, group)


def _milp_passage(network, source, sink, group):
    # the integer program of the module docstring: variables g, then h, one
    # per arc; g is 0 on the arcs touching the group
    np = pytest.importorskip("numpy")
    optimize = pytest.importorskip("scipy.optimize")
    net = network.compiled
    arcs, caps = net.arcs, net.capacities
    m = len(arcs)
    s, t = net.index[source], net.index[sink]
    members = {net.index[x] for x in group}
    rows, bounds = [], []
    for v in range(len(net.vertices)):
        if v not in (s, t):
            row = [(head == v) - (tail == v) for tail, head in arcs]
            rows += [row + [0] * m, [0] * m + row]
            bounds += [(0, 0), (0, 0)]
    for a, cap in enumerate(caps):
        rows.append([int(b in (a, m + a)) for b in range(2 * m)])
        bounds.append((0, cap))
    value = [(tail == s) - (head == s) for tail, head in arcs]
    total = max_flow(network, source, sink)[0]
    rows.append(value + value)
    bounds.append((total, total))
    lower, upper = zip(*bounds)
    result = optimize.milp(
        c=-np.array(value + [0] * m),
        constraints=optimize.LinearConstraint(np.array(rows), lower, upper),
        integrality=np.ones(2 * m),
        bounds=optimize.Bounds(
            0, [0 if {tail, head} & members else c for (tail, head), c in zip(arcs, caps)]
            + list(caps)
        ),
    )
    assert result.status == 0, result.message
    return total - round(-result.fun)


def test_search_matches_pinned_passages():
    _check_passages(SEARCHED, forced_passage)


def test_integer_program_matches_pinned_passages():
    pytest.importorskip("scipy")
    _check_passages(PINNED, _milp_passage)


def test_integer_program_matches_settle_pair_on_random_groups():
    # 12 random groups of 2-3 vertices without an endpoint, at random pairs,
    # on each seeded network of n = 9-16, with rules 6 to 8 on.  Terms whose
    # passage exceeds the drop are rare (13 of 8,712 two-vertex terms at
    # n = 12), so this checks the settle rules where the oracle cannot
    pytest.importorskip("scipy")
    rng = random.Random("integer-program")
    for n in range(9, 17):
        net = seeded_network(n)
        for _ in range(12):
            y, z = rng.sample(net.vertices, 2)
            inner = [v for v in net.vertices if v not in (y, z)]
            group = frozenset(rng.sample(inner, rng.randint(2, 3)))
            [(_, passage)] = settle_pair(
                *pair_ids(net, y, z), encoded(net, [group]), passage=True
            )[3]
            assert passage == _milp_passage(net, y, z, group), (n, y, z, group)


@pytest.mark.parametrize("passage_of", [forced_passage, _milp_passage])
def test_passage_one_too_low_is_caught(monkeypatch, passage_of):
    # negative control: a pinned passage one below the truth fails against
    # either reference
    term = (12, "v10", "v05", ("v00", "v06"))
    total, drop, passage = PINNED[term]
    monkeypatch.setitem(PINNED, term, (total, drop, passage - 1))
    with pytest.raises(AssertionError):
        _check_passages([term], passage_of)
