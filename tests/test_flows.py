import random

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from fullflow import flows, quantities
from fullflow.errors import InvalidInputError, InvariantViolationError
from fullflow.figures import FIGURE_NAMES, fig2_stored_flow, figure_network
from fullflow.flows import (
    Decomposition,
    Flow,
    _bfs_augmenting,
    _decompose_ids,
    decompose,
    flow_through,
    flow_to_text,
    flow_value,
    max_flow,
    recompose,
    validate_flow,
)
from fullflow.network import build_network, ordered_pairs
from fullflow.paths import BACKWARD, FORWARD, ArcDisjointSequence, path_of
from fullflow.quantities import _zeroed_caps, settle_pair
from helpers import (
    GeneralizedPath,
    ResidualView,
    add_random_cycles,
    augment,
    cancel_one_cycle,
    cheapest_max_flow,
    encoded,
    find_augmenting_path,
    mutated,
    oracle_max_flows,
    pair_ids,
    random_flow,
    reference_decompose,
    reference_min_cost_max_flow,
    residual_reach,
    restrict,
    seeded_network,
    token_arcs,
)
from strategies import networks, networks_with_endpoints, reduced_capacities


def test_fig2_stored_flow_is_valid(fig2):
    f = fig2_stored_flow()
    assert validate_flow(fig2, f) is None
    assert flow_value(f) == 2


def test_null_flow_is_valid(fig1):
    assert validate_flow(fig1, Flow("y", "z", {})) is None
    assert flow_value(Flow("y", "z", {})) == 0


def test_validate_reports_capacity_violation(fig1):
    f = Flow("y", "z", {("y", "v"): 3})
    assert validate_flow(fig1, f) == "flow 3 exceeds capacity 2 on arc ('y', 'v')"


def test_validate_reports_conservation_violation(fig1):
    f = Flow("y", "z", {("y", "v"): 1})
    assert validate_flow(fig1, f) == "conservation fails at vertex 'v': in 1, out 0"


@pytest.mark.parametrize(
    "values, message",
    [
        # unbalanced at u, v and x; u comes first in canonical order
        (
            {("v", "x"): 1, ("y", "u"): 1, ("u", "x"): 2},
            "conservation fails at vertex 'u': in 1, out 2",
        ),
        # over capacity on (y, v) and (u, x), and unbalanced too: the
        # capacity check comes first, and (u, x) first among the arcs
        (
            {("z", "u"): 1, ("y", "v"): 3, ("u", "x"): 3},
            "flow 3 exceeds capacity 2 on arc ('u', 'x')",
        ),
        ({("v", "x"): 1, ("z", "u"): 1}, "flow 1 exceeds capacity 0 on arc ('z', 'u')"),
    ],
)
def test_validate_reports_the_first_violation_in_canonical_order(fig1, values, message):
    assert validate_flow(fig1, Flow("y", "z", values)) == message


def test_flow_rejects_negative_and_same_endpoints():
    with pytest.raises(InvalidInputError):
        Flow("y", "y", {})
    with pytest.raises(Exception):
        Flow("y", "z", {("a", "b"): -1})


@pytest.mark.parametrize("val", [0.5, True, "1", 1.0])
def test_flow_rejects_non_integer_values(val):
    # a half unit would pass validate_flow on fig1 and fail in decompose,
    # True would be written out as "True", and a string fails to compare
    with pytest.raises(InvalidInputError) as caught:
        Flow("y", "z", {("y", "u"): val, ("u", "z"): val})
    assert str(caught.value) == f"flow {val!r} on arc ('y', 'u') is not an integer"


def test_flow_normalizes_zero_entries():
    assert Flow("y", "z", {("a", "b"): 0}).values == {}
    assert Flow("y", "z", {("a", "b"): 1}) == Flow(
        "y", "z", {("a", "b"): 1, ("c", "d"): 0}
    )


def test_flow_through_fig2(fig2):
    f = fig2_stored_flow()
    assert flow_through(f, {"v"}) == 2
    assert flow_through(f, {"y"}) == flow_value(f)
    assert flow_through(f, set()) == 0


def test_flow_through_fig6_unique_max(fig6):
    _, f = max_flow(fig6, "y", "z")
    assert flow_through(f, {"x1", "x2"}) == 2


def test_find_augmenting_path_null_flow_fig1(fig1):
    gp = find_augmenting_path(fig1, Flow("y", "z", {}))
    assert gp is not None
    assert gp.vertices == ("y", "u", "z")
    assert BACKWARD not in gp.directions


def test_find_augmenting_path_none_when_maximum(fig2):
    assert find_augmenting_path(fig2, fig2_stored_flow()) is None


def _check_zero_flow_trees(net, members=()):
    # the search from each vertex to itself at zero flow, under the
    # capacities of G - X: the keys of its tree are what a plain walk over
    # the positive-capacity arcs of restrict(net, X) reaches, and each
    # parent link is such an arc into its key
    compiled = net.compiled
    token = {i: x for x, i in compiled.index.items()}
    caps = _zeroed_caps(compiled, [compiled.index[x] for x in members])
    cut = restrict(net, members)
    for s, y in enumerate(net.vertices):
        tree = _bfs_augmenting(compiled, caps, [0] * len(caps), s, s)
        assert {token[v] for v in tree} == residual_reach(cut, y, {})
        assert tree.pop(s) is None
        for w, (v, arc, direction) in tree.items():
            assert direction == FORWARD and caps[arc] > 0
            assert compiled.arcs[arc] == (v, w)


def test_zero_flow_trees_on_fixed_networks():
    for net in [*map(figure_network, FIGURE_NAMES), *map(seeded_network, (9, 16, 24))]:
        _check_zero_flow_trees(net)
        _check_zero_flow_trees(net, net.vertices[1::3])


@settings(max_examples=40, deadline=None)
@given(networks(max_vertices=6), st.data())
def test_zero_flow_trees(net, data):
    members = data.draw(st.sets(st.sampled_from(net.vertices), max_size=3), label="X")
    _check_zero_flow_trees(net, members)


def test_find_augmenting_path_prefers_forward_move():
    # s->a has room and a->s carries flow: both reach a, forward wins
    net = build_network(["s", "a", "t"], [("s", "a", 2), ("a", "s", 1), ("a", "t", 1)])
    gp = find_augmenting_path(net, Flow("s", "t", {("s", "a"): 1, ("a", "s"): 1}))
    assert gp.vertices == ("s", "a", "t")
    assert gp.directions == (FORWARD, FORWARD)


def test_find_augmenting_path_empty_network():
    net = build_network(["a", "b"], [])
    assert find_augmenting_path(net, Flow("a", "b", {})) is None


def test_augment_unit_path(fig6):
    gp = GeneralizedPath(("y", "x1", "u", "x2", "z"), (FORWARD,) * 4)
    f = augment(Flow("y", "z", {}), gp)
    assert f.values == {
        ("y", "x1"): 1, ("x1", "u"): 1, ("u", "x2"): 1, ("x2", "z"): 1,
    }
    assert flow_value(f) == 1


def test_augment_increases_value_by_one(fig1):
    f = Flow("y", "z", {})
    for expected in (1, 2, 3):
        gp = find_augmenting_path(fig1, f)
        f = augment(f, gp)
        assert flow_value(f) == expected
        assert validate_flow(fig1, f) is None
    assert find_augmenting_path(fig1, f) is None


def test_augment_backward_arc_decreases_flow():
    f = Flow("y", "z", {("y", "a"): 1, ("a", "b"): 1, ("b", "z"): 1})
    gp = GeneralizedPath(("y", "b", "a", "z"), (FORWARD, BACKWARD, FORWARD))
    augmented = augment(f, gp)
    assert augmented.values.get(("a", "b"), 0) == 0
    assert flow_value(augmented) == 2


def test_augment_rejects_bad_paths():
    f = Flow("y", "z", {})
    with pytest.raises(ValueError, match="'y'->'a'"):
        augment(f, GeneralizedPath(("y", "a"), (FORWARD,)))  # wrong sink
    with pytest.raises(InvalidInputError, match="negative flow"):
        augment(f, GeneralizedPath(("y", "a", "z"), (BACKWARD, FORWARD)))


def test_max_flow_values(fig1, fig5, fig6):
    assert max_flow(fig1, "y", "z")[0] == 3
    assert max_flow(fig5, "y", "z")[0] == 3
    assert max_flow(fig6, "y", "z")[0] == 1


def test_max_flow_same_endpoints(fig1):
    with pytest.raises(InvalidInputError):
        max_flow(fig1, "y", "y")


def test_max_flow_deterministic(fig1):
    assert max_flow(fig1, "y", "z") == max_flow(fig1, "y", "z")


def test_huge_capacities_stay_exact():
    # arbitrary-precision ints flow through untouched; runtime does not
    # scale with capacity magnitude
    net = build_network(
        ["m", "s", "t"],
        [("s", "m", 10**15), ("m", "t", 10**15 + 7), ("s", "t", 3)],
    )
    value, flow = max_flow(net, "s", "t")
    assert value == 10**15 + 3
    assert flow.values[("s", "m")] == 10**15


def test_residual_view(fig1):
    f = Flow("y", "z", {("y", "v"): 1, ("v", "x"): 1, ("x", "z"): 1})
    view = ResidualView(fig1, f)
    assert view.room(("y", "v")) == 1
    assert view.cancelable(("y", "v")) == 1
    assert view.room(("v", "x")) == 0
    moves = view.moves_from("v")
    assert ("u", ("v", "u"), FORWARD) in moves
    assert ("y", ("y", "v"), BACKWARD) in moves
    assert all(m[0] != "x" for m in moves)  # (v, x) saturated


def test_min_cost_zero_costs_is_max_flow(fig1):
    value, cost, f = cheapest_max_flow(fig1, "y", "z", {})
    assert value == 3
    assert cost == 0
    assert validate_flow(fig1, f) is None


def test_min_cost_fig6_unavoidable(fig6):
    costs = {("x1", "u"): 1, ("x2", "z"): 1}
    value, cost, _ = cheapest_max_flow(fig6, "y", "z", costs)
    assert (value, cost) == (1, 2)


def test_min_cost_fig2_avoids_the_cycle(fig2):
    costs = {("v", "x"): 1}
    value, cost, f = cheapest_max_flow(fig2, "y", "z", costs)
    assert (value, cost) == (2, 1)
    assert f.values.get(("v", "x"), 0) == 1


def test_decompose_fig2(fig2):
    f = fig2_stored_flow()
    dec = decompose(fig2, f)
    assert recompose(dec) == f
    assert len(dec.paths) == 2
    total_cycle_arcs = sum(len(c.arcs) for c in dec.cycles)
    assert len(dec.paths.paths[0].arcs) + len(dec.paths.paths[1].arcs) \
        + total_cycle_arcs == sum(f.values.values())


def test_decompose_null_flow(fig1):
    dec = decompose(fig1, Flow("y", "z", {}))
    assert dec.paths.paths == ()
    assert dec.cycles == ()


def test_decompose_unit_path(fig6):
    _, f = max_flow(fig6, "y", "z")
    dec = decompose(fig6, f)
    assert [str(p) for p in dec.paths] == ["y-x1-u-x2-z"]
    assert dec.cycles == ()


def test_decompose_rejects_invalid_flow(fig1):
    with pytest.raises(InvalidInputError):
        decompose(fig1, Flow("y", "z", {("y", "v"): 3}))


def test_decompose_rejects_negative_value():
    # conservation holds everywhere, but the net movement runs z->y
    net = build_network(["y", "z"], [("z", "y", 1)])
    backwards = Flow("y", "z", {("z", "y"): 1})
    assert validate_flow(net, backwards) is None
    assert flow_value(backwards) == -1
    with pytest.raises(InvalidInputError, match="negative value"):
        decompose(net, backwards)


def test_stuck_decomposition_walk_names_its_vertex(fig1):
    # one unit on y->v alone breaks conservation at v: the walk from y
    # takes that arc and finds no positive out-arc at v (vertex id 1)
    net = fig1.compiled
    y, v, z = (net.index[x] for x in "yvz")
    flow = [0] * len(net.arcs)
    flow[net.arcs.index((y, v))] = 1
    with pytest.raises(InvariantViolationError) as info:
        _decompose_ids(net, flow, y, z, 1)
    assert str(info.value) == "decomposition walk stuck at vertex 'v'"


def test_recompose_known_decompositions(fig2):
    f = fig2_stored_flow()
    from fullflow.paths import cycle_of

    with_cycle = Decomposition(
        ArcDisjointSequence(
            (path_of("y", "v", "x", "z"), path_of("y", "u", "z")), "y", "z"
        ),
        (cycle_of("v", "x", "u", "v"),),
    )
    assert recompose(with_cycle) == f
    cycle_free = Decomposition(
        ArcDisjointSequence(
            (path_of("y", "v", "x", "u", "z"), path_of("y", "u", "v", "x", "z")),
            "y", "z",
        ),
        (),
    )
    assert recompose(cycle_free) == f
    empty = Decomposition(ArcDisjointSequence((), "y", "z"), ())
    assert recompose(empty) == Flow("y", "z", {})


def test_flow_serialization_round_trip(fig2):
    assert flow_to_text(fig2_stored_flow()) == (
        "flow y z 2\n"
        "u v 1\nu z 1\nv x 2\nx u 1\nx z 1\ny u 1\ny v 1\n"
    )


@settings(max_examples=60)
@given(networks_with_endpoints())
def test_max_flow_equals_unit_augmentation_iteration(net_yz):
    # the solver's saturating rounds collapse the one-unit step exactly
    net, y, z = net_yz
    f = Flow(y, z, {})
    rounds = 0
    while True:
        gp = find_augmenting_path(net, f)
        if gp is None:
            break
        f = augment(f, gp)
        rounds += 1
        assert rounds <= sum(net.capacities.values()) + 1
    value, solver_flow = max_flow(net, y, z)
    assert f == solver_flow
    assert flow_value(f) == value == rounds


def _all_residual_walks(net, flow):
    """Every vertex-distinct residual walk source->sink, exhaustively."""
    view = ResidualView(net, flow)
    walks = []

    def rec(v, vertices, directions):
        if v == flow.sink:
            walks.append((tuple(vertices), tuple(directions)))
            return
        for w, _arc, direction in view.moves_from(v):
            if w not in vertices:
                rec(w, vertices + (w,), directions + (direction,))

    rec(flow.source, (flow.source,), ())
    return walks


@settings(max_examples=40)
@given(networks_with_endpoints(max_vertices=4), st.integers(0, 2**32 - 1))
def test_augmenting_path_is_lex_least_shortest(net_yz, seed):
    net, y, z = net_yz
    f = random_flow(net, y, z, random.Random(seed))
    gp = find_augmenting_path(net, f)
    walks = _all_residual_walks(net, f)
    if gp is None:
        assert walks == []
        return
    shortest = min(len(v) for v, _d in walks)
    assert len(gp.vertices) == shortest
    assert gp.vertices == min(v for v, _d in walks if len(v) == shortest)


@settings(max_examples=60)
@given(networks_with_endpoints(), st.integers(0, 2**32 - 1))
def test_decompose_recompose_round_trip(net_yz, seed):
    net, y, z = net_yz
    rng = random.Random(seed)
    f = add_random_cycles(net, random_flow(net, y, z, rng), rng, rng.randint(0, 3))
    assert validate_flow(net, f) is None
    dec = decompose(net, f)
    # the walk on arc ids is the token-level walk, paths and cycles in order
    assert dec == reference_decompose(net, f)
    assert recompose(dec) == f
    assert len(dec.paths) == flow_value(f)
    from fullflow.paths import is_arc_disjoint

    assert is_arc_disjoint(net, dec.paths.paths)


def test_decompose_matches_token_walk():
    # decompose walks on arc ids; the token-level walk must give the same
    # paths and cycles, in the same order, on seeded flows, most of them
    # with cycles, and on the canonical max flows of a 12-vertex network
    rng = random.Random("decompose")
    with_cycles = 0
    for _ in range(60):
        tokens = [f"v{i}" for i in range(rng.randint(3, 7))]
        entries = [
            (t, h, rng.randint(1, 3))
            for t in tokens
            for h in tokens
            if t != h and rng.random() < 0.5
        ]
        net = build_network(tokens, entries)
        y, z = rng.sample(tokens, 2)
        f = add_random_cycles(net, random_flow(net, y, z, rng), rng, rng.randint(1, 3))
        dec = decompose(net, f)
        assert dec == reference_decompose(net, f)
        with_cycles += bool(dec.cycles)
    assert with_cycles >= 30
    net = seeded_network(12)
    for y, z in ordered_pairs(net):
        _, f = max_flow(net, y, z)
        assert decompose(net, f) == reference_decompose(net, f)


@settings(max_examples=40)
@given(networks_with_endpoints(max_capacity=3), st.data())
def test_max_flow_antitone_and_flows_carry_over(net_yz, data):
    net, y, z = net_yz
    reduced = data.draw(reduced_capacities(net))
    full_value, _ = max_flow(net, y, z)
    reduced_value, reduced_flow = max_flow(reduced, y, z)
    assert reduced_value <= full_value
    # a flow of the smaller network is a flow of the larger one
    assert validate_flow(net, reduced_flow) is None


@settings(max_examples=40)
@given(networks_with_endpoints(max_vertices=4, max_capacity=2))
def test_max_flow_matches_assignment_oracle(net_yz):
    net, y, z = net_yz
    oracle_value, oracle_flows = oracle_max_flows(net, y, z)
    solver_value, solver_flow = max_flow(net, y, z)
    assert solver_value == oracle_value
    assert validate_flow(net, solver_flow) is None
    assert any(f == solver_flow for f in oracle_flows)


@settings(max_examples=40)
@given(networks_with_endpoints(), st.data())
def test_min_cost_value_matches_and_cost_bounded(net_yz, data):
    net, y, z = net_yz
    costs = {}
    for arc in sorted(net.capacities):
        costs[arc] = data.draw(st.integers(0, 3), label=f"cost {arc}")
    value, cost, f = cheapest_max_flow(net, y, z, costs)
    plain_value, plain_flow = max_flow(net, y, z)
    assert value == plain_value
    assert validate_flow(net, f) is None
    plain_cost = sum(costs.get(a, 0) * v for a, v in plain_flow.values.items())
    assert cost <= plain_cost


@settings(max_examples=40)
@given(networks_with_endpoints(max_vertices=4, max_capacity=2), st.data())
def test_min_cost_is_optimal_against_assignment_oracle(net_yz, data):
    net, y, z = net_yz
    costs = {}
    for arc in sorted(net.capacities):
        costs[arc] = data.draw(st.integers(0, 3), label=f"cost {arc}")
    value, cost, f = cheapest_max_flow(net, y, z, costs)
    oracle_value, oracle_flows = oracle_max_flows(net, y, z)
    assert value == oracle_value
    assert validate_flow(net, f) is None
    assert f in oracle_flows
    assert cost == sum(costs[a] * v for a, v in f.values.items())
    assert cost == min(
        sum(costs[a] * v for a, v in g.values.items()) for g in oracle_flows
    )


def test_min_cost_takes_cancellation_over_forward_move():
    # from c the search may move to a forward along (c, a) at cost 3 or,
    # once (a, c) carries flow, backward along it at cost 0; taking the
    # forward move whenever it has room ends at cost 10, not 7
    net = build_network(
        ["a", "b", "c", "d"],
        [("a", "b", 1), ("a", "c", 1), ("a", "d", 2), ("b", "c", 2),
         ("c", "a", 1), ("c", "b", 2), ("d", "a", 1), ("d", "b", 2),
         ("d", "c", 2)],
    )
    costs = {("a", "b"): 1, ("a", "d"): 3, ("c", "a"): 3, ("d", "b"): 1,
             ("d", "c"): 2}
    value, cost, f = cheapest_max_flow(net, "d", "b", costs)
    assert (value, cost) == (5, 7)
    assert validate_flow(net, f) is None


def _min_cost_cases(n):
    # seeded pairs of the n-vertex network, each with costs 0..3 on every
    # arc, a group of 1 to 4 vertices that may hold an endpoint, and that
    # group's throughput costs: 1 on the arcs leaving its other members
    net = seeded_network(n)
    rng = random.Random(f"min-cost:{n}")
    for _ in range(12):
        y, z = rng.sample(net.vertices, 2)
        costs = {arc: rng.randint(0, 3) for arc in sorted(net.capacities)}
        group = frozenset(rng.sample(net.vertices, rng.randint(1, 4)))
        through = {arc: 1 for arc in net.capacities if arc[0] in group - {y, z}}
        yield net, y, z, costs, group, through


def _check_min_cost_max_flow(n):
    # against the successive shortest path reference, under both costs:
    # equal value and cost, and a valid flow of that cost
    for net, y, z, costs, _, through in _min_cost_cases(n):
        for arc_cost in (costs, through):
            value, cost, f = cheapest_max_flow(net, y, z, arc_cost)
            assert (value, cost) == reference_min_cost_max_flow(
                net, y, z, arc_cost
            )[:2]
            assert validate_flow(net, f) is None
            assert flow_value(f) == value
            assert cost == sum(arc_cost.get(a, 0) * v for a, v in f.values.items())


def _check_least_throughput(n):
    # from the canonical max flow, which it leaves as it is, against the
    # reference's cheapest flow under the group's throughput costs
    for net, y, z, _, group, through in _min_cost_cases(n):
        value, cost, _ = reference_min_cost_max_flow(net, y, z, through)
        compiled = net.compiled
        total, canonical = max_flow(net, y, z)
        arcs = token_arcs(compiled)
        arc_flow = [canonical.values.get(arc, 0) for arc in arcs]
        ends = compiled.index[y], compiled.index[z]
        [least] = quantities._least_throughput(
            compiled, arc_flow, *ends, encoded(net, [group]), total
        )
        assert least == len(group & {y, z}) * value + cost
        assert arc_flow == [canonical.values.get(arc, 0) for arc in arcs]


@pytest.mark.parametrize("n", [9, 16, 24])
def test_min_cost_matches_reference(n):
    _check_min_cost_max_flow(n)
    _check_least_throughput(n)


def test_min_cost_matches_networkx():
    nx = pytest.importorskip("networkx")
    for n in (9, 16, 24):
        for net, y, z, costs, _, through in _min_cost_cases(n):
            for arc_cost in (costs, through):
                graph = nx.DiGraph()
                graph.add_nodes_from(net.vertices)
                for arc, cap in net.capacities.items():
                    graph.add_edge(*arc, capacity=cap, weight=arc_cost.get(arc, 0))
                expected = nx.max_flow_min_cost(graph, y, z)
                value, cost, _ = cheapest_max_flow(net, y, z, arc_cost)
                assert value == sum(expected[y].values()) - sum(
                    expected[v].get(y, 0) for v in net.vertices
                )
                assert cost == nx.cost_of_flow(graph, expected)


def test_cancelling_one_cycle_is_caught(monkeypatch):
    # negative control: a canceller that stops after its first
    # cancellation leaves flows that cost more than the reference's
    monkeypatch.setattr(flows, "_cancel_negative_cycles", cancel_one_cycle)
    monkeypatch.setattr(quantities, "_cancel_negative_cycles", cancel_one_cycle)
    for check in (_check_min_cost_max_flow, _check_least_throughput):
        with pytest.raises(AssertionError):
            for n in (9, 16, 24):
                check(n)


@pytest.mark.parametrize(
    "old, new",
    [
        # a sink-side member's in-arcs from any vertex, not only from the
        # source side, of which a maximum flow need not fill all
        ("elif not inside and in_arc >= 0 and w in reached:",
         "elif not inside and in_arc >= 0:"),
        # a flow one unit above the bound taken as least
        ("if cost > bound:", "if cost > bound + 1:"),
    ],
)
def test_loose_min_cut_bound_is_caught(monkeypatch, old, new):
    # negative control: a bound above the least throughput settles flows
    # that cost more than the reference's
    mutant = mutated(quantities._least_throughput, old, new)
    monkeypatch.setattr(quantities, "_least_throughput", mutant)
    with pytest.raises(AssertionError):
        for n in (9, 16, 24):
            _check_least_throughput(n)


@settings(max_examples=30)
@given(networks_with_endpoints(max_vertices=4, max_capacity=2), st.data())
def test_capacity_decrease_equivalence(net_yz, data):
    # equal max-flow values <=> every maximum flow of the reduced network
    # is a maximum flow of the full one, on oracle-enumerable instances
    net, y, z = net_yz
    reduced = data.draw(reduced_capacities(net))
    full_value, _ = max_flow(net, y, z)
    reduced_value, _ = max_flow(reduced, y, z)
    _, reduced_max_flows = oracle_max_flows(reduced, y, z)
    all_carry_over = all(
        validate_flow(net, f) is None and flow_value(f) == full_value
        for f in reduced_max_flows
    )
    assert (reduced_value == full_value) == all_carry_over


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_banned_value_matches_restricted_network(n):
    # settle_pair's drop against max flow on the restricted network
    rng = random.Random(f"banned:{n}")
    tokens = [f"v{i:02d}" for i in range(n)]
    for _ in range(3):
        entries = [
            (t, h, rng.randint(1, 4))
            for t in tokens
            for h in tokens
            if t != h and rng.random() < 0.3
        ]
        net = build_network(tokens, entries)
        for _ in range(20):
            y, z = rng.sample(tokens, 2)
            group = rng.sample(tokens, rng.randint(0, 4))
            total, _, [(drop, _)] = settle_pair(
                *pair_ids(net, y, z), encoded(net, [frozenset(group)]), passage=False
            )
            assert total - drop == max_flow(restrict(net, group), y, z)[0]
