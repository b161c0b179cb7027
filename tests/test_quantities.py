import hashlib
import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from fullflow import centrality, flows, quantities
from fullflow.errors import BudgetExceededError, InvalidInputError
from fullflow.figures import FIGURE_NAMES, figure_network
from fullflow.flows import (
    _as_flow,
    _augment,
    _bfs_augmenting,
    decompose,
    flow_value,
    max_flow,
    validate_flow,
)
from fullflow.network import Network, build_network
from fullflow.paths import ArcDisjointSequence
from fullflow.quantities import (
    DEFAULT_NODE_BUDGET,
    _max_sequences,
    enumerate_max_sequences,
    forced_passage,
    forced_throughput,
    pair_report,
    settle_pair,
    vitality_drop,
)

from helpers import (
    brute_force_min_throughput,
    candidate_paths,
    capacity_of_set,
    cheapest_max_flow,
    cut_capacity_touching,
    encoded,
    enumerated_passage,
    flow_through,
    induced_flow,
    maximum_sequences,
    member_ids,
    mutated,
    oracle_max_flows,
    ordered_pairs,
    pair_ids,
    passage_count,
    record_augment_calls,
    residual_reach,
    restrict,
    seeded_network,
    throughput_cut_bound,
    token_arcs,
)
from strategies import (
    fig5_with_extra_arcs,
    networks,
    networks_with_endpoints,
    networks_with_endpoints_and_group,
)


def test_vitality_drop_fig3_vs_fig4(fig3, fig4):
    assert vitality_drop(fig3, "y", "z", {"x"}) == 0
    assert vitality_drop(fig4, "y", "z", {"x"}) == 1


def test_vitality_drop_fig5(fig5):
    assert vitality_drop(fig5, "y", "z", {"x1", "x2"}) == 1


def test_vitality_drop_empty_group(fig1):
    assert vitality_drop(fig1, "y", "z", set()) == 0


def test_vitality_drop_errors(fig1):
    with pytest.raises(InvalidInputError):
        vitality_drop(fig1, "y", "y", {"x"})
    with pytest.raises(InvalidInputError):
        vitality_drop(fig1, "y", "z", {"nope"})


def test_enumerate_fig1_classes(fig1):
    classes = [str(s) for s in enumerate_max_sequences(fig1, "y", "z")]
    assert classes == [
        "y-u-x-z,y-v-u-z,y-v-x-z",
        "y-u-z,y-v-u-x-z,y-v-x-z",
    ]


def test_enumerate_fig6_single_class(fig6):
    classes = list(enumerate_max_sequences(fig6, "y", "z"))
    assert [str(s) for s in classes] == ["y-x1-u-x2-z"]


def test_enumerate_fig5_contains_known_class(fig5):
    classes = {tuple(str(p) for p in s) for s in enumerate_max_sequences(fig5, "y", "z")}
    assert ("y-u1-x1-z", "y-u2-x2-v1-z", "y-v2-z") in classes


def test_enumerate_no_path_yields_empty_sequence():
    net = build_network(["a", "b"], [])
    classes = list(enumerate_max_sequences(net, "a", "b"))
    assert classes == [ArcDisjointSequence((), "a", "b")]


def test_enumerate_lengths_and_disjointness(fig1):
    from fullflow.paths import is_arc_disjoint

    value, _ = max_flow(fig1, "y", "z")
    for s in enumerate_max_sequences(fig1, "y", "z"):
        assert len(s) == value
        assert is_arc_disjoint(fig1, s.paths)
        assert tuple(sorted(s.paths)) == s.paths  # canonical form


def test_enumerate_budget_exceeded(fig1):
    # the counts fix which nodes the search visits, and in what order
    # budget 3: fig1 has 5 candidate paths, so the search never starts
    for budget, partial, nodes in [(3, 0, 0), (5, 1, 6)]:
        with pytest.raises(BudgetExceededError) as info:
            list(enumerate_max_sequences(fig1, "y", "z", node_budget=budget))
        assert info.value.reason == (
            "sequence enumeration budget exhausted at pair (y, z)"
        )
        assert (info.value.partial, info.value.nodes) == (partial, nodes)


@settings(max_examples=40, deadline=None)
@given(networks_with_endpoints_and_group(max_vertices=4, max_capacity=2))
def test_enumeration_order_matches_definition(net_yzg):
    # the search yields the maximum sequences in candidate order, and the
    # witness is the first of them that attains the passage
    net, y, z, group = net_yzg
    expected = maximum_sequences(net, y, z)
    assert [s.paths for s in enumerate_max_sequences(net, y, z)] == expected
    counts = [passage_count(ArcDisjointSequence(p, y, z), group) for p in expected]
    first = expected[counts.index(min(counts))]
    assert pair_report(net, y, z, group, exact=True).witness.paths == first


def _check_sequence_masks(net, y, z, groups):
    # every mask the search yields is the vertex set of the path beside it,
    # read off both ends of the path's arcs, and its hits count the paths
    # meeting the group; without a group it yields every sequence
    compiled = net.compiled
    arcs = token_arcs(compiled)
    value = max_flow(net, y, z)[0]
    sequences = 0
    for group in (None, *groups):
        for hits, paths, masks in _max_sequences(
            *pair_ids(net, y, z), value, DEFAULT_NODE_BUDGET, member_ids(net, group)
        ):
            vertices = [{v for a in path for v in arcs[a]} for path in paths]
            assert masks == [sum(1 << compiled.index[v] for v in vs) for vs in vertices]
            assert hits == sum(1 for vs in vertices if group and vs & group)
            sequences += group is None
    assert sequences == len(maximum_sequences(net, y, z))


@pytest.mark.parametrize("name", FIGURE_NAMES)
def test_sequence_masks_on_figures(name):
    net = figure_network(name)
    for y, z in ordered_pairs(net):
        _check_sequence_masks(net, y, z, [frozenset({x}) for x in net.vertices])


@settings(max_examples=40, deadline=None)
@given(networks_with_endpoints_and_group(max_vertices=4, max_capacity=2))
def test_sequence_masks_on_random_networks(net_yzg):
    net, y, z, group = net_yzg
    _check_sequence_masks(net, y, z, [group])


def test_forced_passage_fig1(fig1):
    assert forced_passage(fig1, "y", "z", {"x"}, exact=True) == 2
    assert forced_passage(fig1, "y", "z", {"x", "v"}, exact=True) == 2


def test_mixed_group_names_the_unknown_vertex(fig1):
    # an int and a token cannot be sorted together, so the group is
    # checked in order of str
    with pytest.raises(InvalidInputError) as caught:
        forced_passage(fig1, "y", "z", {1, "x"})
    assert str(caught.value) == "unknown vertex 1"


def test_forced_passage_fig5_strict_gap(fig5):
    group = {"x1", "x2"}
    assert forced_passage(fig5, "y", "z", group, exact=True) == 2
    assert vitality_drop(fig5, "y", "z", group) == 1
    # the minimization proves 2 optimal at its thirteenth node
    assert forced_passage(fig5, "y", "z", group, exact=True, node_budget=13) == 2
    with pytest.raises(BudgetExceededError) as info:
        forced_passage(fig5, "y", "z", group, exact=True, node_budget=12)
    assert info.value.reason == (
        "passage minimization budget exhausted at pair (y, z) group x1,x2"
    )
    assert (info.value.partial, info.value.nodes) == (1, 13)


def _search_accounting(search, net):
    """One line per search on ``net``: for every ordered pair with flow,
    the enumeration, then the minimization over each 2-vertex group, run to
    completion.  A line holds the least budget N at which the search
    completes and the partial count P of its budget error at N - 1, which
    must report N nodes."""
    lines = []
    groups = [None, *map(frozenset, itertools.combinations(net.vertices, 2))]
    for y, z in ordered_pairs(net):
        value = max_flow(net, y, z)[0]
        for group in groups if value else ():
            budget, ids = 0, member_ids(net, group)
            while True:
                try:
                    for _ in search(*pair_ids(net, y, z), value, budget, ids):
                        pass
                except BudgetExceededError as error:
                    partial, nodes = error.partial, error.nodes
                    budget += 1
                else:
                    break
            assert nodes == budget, (y, z, group)
            label = ",".join(sorted(group)) if group else "-"
            lines.append(f"{y} {z} {label} {budget} {partial}")
    return lines


def _accounting_pin(lines):
    """(searches, total N, total P, digest of the lines)."""
    fields = [line.split() for line in lines]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    return (
        len(lines),
        sum(int(f[3]) for f in fields),
        sum(int(f[4]) for f in fields),
        digest,
    )


# computed before the search kept its state in one list
SEARCH_ACCOUNTING = {
    "fig1": (110, 593, 70, "bdc57b2ae8787893"),
    "fig2": (143, 484, 79, "e1788975a573cc83"),
    "fig3": (88, 242, 24, "37fdf473b30f91ad"),
    "fig4": (88, 198, 11, "8830b0b9c6f5d9a6"),
    "fig5": (551, 1650, 145, "35c7d12f5e296cb5"),
    "fig6": (110, 220, 0, "f990561ab4e55611"),
}


@pytest.mark.parametrize("name", FIGURE_NAMES)
def test_search_node_accounting_pinned(name):
    # the budget counts every node the search enters, in a fixed order:
    # on fig1, (v, z) with {u, y} completes at 5 nodes and stops at 4
    # after one yield
    net = figure_network(name)
    lines = _search_accounting(_max_sequences, net)
    if name == "fig1":
        assert "v z u,y 5 1" in lines
    assert _accounting_pin(lines) == SEARCH_ACCOUNTING[name]


def test_opened_cut_nodes_are_caught(fig1):
    # negative control: a search that opens the nodes it cuts yields the
    # same sequences but enters more nodes, 6 for fig1 (v, z) with {u, y}
    mutant = mutated(
        _max_sequences,
        "if hits >= best:\n            i = n",
        "if hits >= best:\n            pass",
    )
    lines = _search_accounting(mutant, fig1)
    assert "v z u,y 6 1" in lines
    assert _accounting_pin(lines) != SEARCH_ACCOUNTING["fig1"]


def test_forced_passage_fig6(fig6):
    assert forced_passage(fig6, "y", "z", {"x1", "x2"}, exact=True) == 1


def test_forced_passage_auto_mode(fig5):
    # by default: shortcut for singletons, search for larger groups
    assert forced_passage(fig5, "y", "z", {"x1", "x2"}) == 2
    assert forced_passage(fig5, "y", "z", {"x1"}) == forced_passage(
        fig5, "y", "z", {"x1"}, exact=True
    )


def test_forced_throughput_figures(fig1, fig6):
    assert forced_throughput(fig6, "y", "z", {"x1", "x2"}) == 2
    assert forced_throughput(fig6, "y", "z", {"y"}) == 1
    assert forced_throughput(fig1, "y", "z", {"x"}) == 2


def test_forced_throughput_matches_oracle_fig1(fig1):
    value, flows = oracle_max_flows(fig1, "y", "z")
    assert value == 3
    oracle = min(flow_through(f, {"x"}) for f in flows)
    assert oracle == forced_throughput(fig1, "y", "z", {"x"}) == 2


@settings(max_examples=40)
@given(networks_with_endpoints_and_group(max_vertices=4, max_capacity=2))
def test_forced_throughput_matches_oracle(net_yzg):
    net, y, z, group = net_yzg
    assert forced_throughput(net, y, z, group) == brute_force_min_throughput(
        net, y, z, group
    )


def test_pair_report_fig5(fig5):
    rep = pair_report(fig5, "y", "z", {"x1", "x2"})
    assert rep.max_flow_total == 3
    assert rep.max_flow_restricted == 2
    assert rep.vitality_drop == 1
    assert rep.forced_passage == 2
    assert rep.forced_throughput >= 2
    assert rep.witness is not None
    assert passage_count(rep.witness, {"x1", "x2"}) == 2


def test_pair_report_fig1_singleton(fig1):
    rep = pair_report(fig1, "y", "z", {"x"})
    assert (rep.max_flow_total, rep.max_flow_restricted) == (3, 1)
    assert rep.vitality_drop == rep.forced_passage == rep.forced_throughput == 2
    assert rep.witness is None  # shortcut mode
    exact = pair_report(fig1, "y", "z", {"x"}, exact=True)
    assert exact.forced_passage == 2
    assert exact.witness is not None


def test_pair_report_empty_group(fig1):
    rep = pair_report(fig1, "y", "z", set())
    assert rep.vitality_drop == rep.forced_passage == rep.forced_throughput == 0


def test_pair_report_record(fig1):
    rep = pair_report(fig1, "y", "z", {"x"})
    assert rep.record() == "y z x 3 1 2 2 2 -"
    assert rep.record(sep="\t").split("\t")[2] == "x"


@pytest.mark.parametrize("name", FIGURE_NAMES)
def test_pair_report_flow_is_the_max_flow(name):
    # whichever rule settles the group, the flow handed on is max_flow's
    net = figure_network(name)
    for y, z in (("y", "z"), ("z", "y")):
        _, flow = max_flow(net, y, z)
        for members in [(), *([x] for x in net.vertices), net.vertices]:
            assert pair_report(net, y, z, members).flow == flow


def test_pair_report_runs_one_canonical_flow(monkeypatch, fig1, fig6):
    # the throughput comes from the flow settle_pair returns: a pair call
    # runs the canonical max flow and the drop's restricted one, no more
    calls = record_augment_calls(monkeypatch)
    assert pair_report(fig1, "y", "z", {"x"}).forced_throughput == 2
    assert calls == [True, False]
    calls.clear()
    assert pair_report(fig6, "y", "z", {"x1", "x2"}).forced_throughput == 2
    assert calls == [True, False]


@pytest.mark.parametrize("n", [9, 16])
def test_scaled_capacities_scale_throughput_and_drop(n, monkeypatch):
    # capacities near the CLI's --max-capacity of 10^9: every capacity
    # times 10^8 scales the throughput and the drop exactly, and the
    # cancelling finds as many negative cycles, as each residual capacity
    # scales with them.  Work is counted, not timed
    scale = 10**8
    net = seeded_network(n)
    scaled = Network(net.vertices, {a: c * scale for a, c in net.capacities.items()})
    real, calls = flows._negative_cycle, []

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(flows, "_negative_cycle", counted)
    rng = random.Random(f"scaled:{n}")
    cancelled = 0
    for _ in range(60):
        y, z = rng.sample(net.vertices, 2)
        group = rng.sample(net.vertices, rng.randint(1, 3))
        counts = []
        for network, factor in ((net, scale), (scaled, 1)):
            calls.clear()
            through = forced_throughput(network, y, z, group)
            drop = vitality_drop(network, y, z, group)
            counts.append((through * factor, drop * factor, len(calls)))
        assert counts[0] == counts[1], (y, z, group)
        cancelled += counts[0][2] > 1
    assert cancelled > 0


@settings(max_examples=60)
@given(networks_with_endpoints())
def test_singleton_identity_all_three(net_yz):
    # for every single vertex: exact passage == vitality drop == throughput
    net, y, z = net_yz
    for x in net.vertices:
        exact = enumerated_passage(net, y, z, {x})
        drop = vitality_drop(net, y, z, {x})
        through = forced_throughput(net, y, z, {x})
        assert exact == drop == through


def test_settle_pair_known_gaps(fig5, fig6):
    # fig5 separates drop from passage, so only the search settles it;
    # fig6 separates passage from throughput
    gap = frozenset({"x1", "x2"})
    for exact in (False, True):
        total, _, _, settled = settle_pair(
            *pair_ids(fig5, "y", "z"), encoded(fig5, [gap]), passage=True, exact=exact
        )
        assert (total, settled) == (3, [(1, 2)])
        total, _, _, settled = settle_pair(
            *pair_ids(fig6, "y", "z"), encoded(fig6, [gap]), passage=True, exact=exact
        )
        assert (total, settled) == (1, [(1, 1)])
    total, _, _, settled = settle_pair(
        *pair_ids(fig5, "y", "z"), encoded(fig5, [gap]), passage=False
    )
    assert (total, settled) == (3, [(1, None)])
    assert forced_throughput(fig6, "y", "z", gap) == 2


def _forbid(monkeypatch, name):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{name} ran")

    monkeypatch.setattr(quantities, name, forbidden)


def test_settle_pair_flow_bounds(monkeypatch, fig1, fig5):
    # each term below has drop < flow_through(f, X), so no rule before the
    # flow bounds settles it
    _forbid(monkeypatch, "_min_passage")
    u2_x2 = frozenset({"u2", "x2"})
    n14 = seeded_network(14)
    n14_groups = encoded(n14, [frozenset({"v02", "v03"}), frozenset({"v01"})])
    with monkeypatch.context() as bounds:
        _forbid(bounds, "_cancel_negative_cycles")
        # the extension rule settles fig1 (y, x, {u, v}), through 4
        uv = frozenset({"u", "v"})
        _, _, _, settled = settle_pair(
            *pair_ids(fig1, "y", "x"), encoded(fig1, [uv]), passage=True
        )
        assert settled == [(3, 3)]
        # and fig5 (y, z, {u2, x2}), through 2, from the restricted flow
        # warm-started when a second group shares the pair
        _, _, _, settled = settle_pair(
            *pair_ids(fig5, "y", "z"),
            encoded(fig5, [u2_x2, frozenset({"y"})]),
            passage=True,
        )
        assert settled == [(1, 1), (3, 3)]
        # but not from the cold one of a lone group
        with pytest.raises(AssertionError, match="_cancel_negative_cycles ran"):
            settle_pair(*pair_ids(fig5, "y", "z"), encoded(fig5, [u2_x2]), passage=True)
        # nor (v05, v08, {v02, v03}), through 3, on the seeded n = 14
        # network, even warm-started
        with pytest.raises(AssertionError, match="_cancel_negative_cycles ran"):
            settle_pair(*pair_ids(n14, "v05", "v08"), n14_groups, passage=True)
    # which the entry bound settles
    _, _, _, settled = settle_pair(
        *pair_ids(fig5, "y", "z"), encoded(fig5, [u2_x2]), passage=True
    )
    assert settled == [(1, 1)]
    _, _, _, settled = settle_pair(
        *pair_ids(n14, "v05", "v08"), n14_groups, passage=True
    )
    assert settled == [(1, 1), (3, 3)]
    # fig5's gap term passes both bounds on to the search
    with pytest.raises(AssertionError, match="_min_passage ran"):
        gap = encoded(fig5, [frozenset({"x1", "x2"})])
        settle_pair(*pair_ids(fig5, "y", "z"), gap, passage=True)


def _record_restricted_flows(monkeypatch):
    # wrap the augment loop as settle_pair calls it; with passage=False
    # every call not under the network's own capacities is a restricted
    # max flow, recorded as (flow at entry, flow at exit, BFS calls)
    records = []
    bfs_calls = []

    def counted(*args):
        bfs_calls.append(1)
        return _bfs_augmenting(*args)

    def recorded(net, caps, flow, s, t, *rest):
        warm = list(flow)
        bfs_calls.clear()
        result = _augment(net, caps, flow, s, t, *rest)
        if caps is not net.capacities:
            records.append((warm, flow, len(bfs_calls)))
        return result

    monkeypatch.setattr(flows, "_bfs_augmenting", counted)
    monkeypatch.setattr(quantities, "_augment", recorded)
    return records


@pytest.mark.parametrize("n", [9, 16, 24, 40])
def test_warm_restricted_flow_matches_cold(n, monkeypatch):
    # settle_pair's restricted max flows, for several groups of one pair,
    # against cold max flows on the restricted networks: the same values
    # and valid flows of those networks.  A restricted flow runs for each
    # group with flow through it that the cut rule leaves.  From the first
    # such group with through < max_flow on, each starts from the unit
    # paths of the pair's flow that avoid its group; before it, from zero.
    # Either way at most through - drop augmentations follow
    records = _record_restricted_flows(monkeypatch)
    net = seeded_network(n)
    compiled = net.compiled
    rng = random.Random(f"warm:{n}")
    warm_starts = 0
    for _ in range(8):
        y, z = rng.sample(net.vertices, 2)
        total, f = max_flow(net, y, z)
        inner = [v for v in net.vertices if v not in (y, z)]
        groups = [frozenset(rng.sample(inner, size)) for size in (1, 1, 2, 3)]
        records.clear()
        _, _, _, settled = settle_pair(
            *pair_ids(net, y, z), encoded(net, groups), passage=False
        )
        reached = [
            (group, drop)
            for group, (drop, _) in zip(groups, settled)
            if total and flow_through(f, group) != cut_capacity_touching(net, f, group)
        ]
        assert len(records) == len(reached)
        decomposed = False
        for (group, drop), (warm, kept_flow, bfs_calls) in zip(reached, records):
            through = flow_through(f, group)
            restricted = restrict(net, group)
            assert total - drop == max_flow(restricted, y, z)[0]
            kept = _as_flow(compiled, y, z, kept_flow)
            assert validate_flow(restricted, kept) is None
            assert flow_value(kept) == total - drop
            assert bfs_calls <= through - drop + 1
            start = flow_value(_as_flow(compiled, y, z, warm))
            decomposed = decomposed or through < total
            if decomposed:
                assert start >= total - through
                warm_starts += start > 0
            else:
                assert start == 0
    assert warm_starts >= 8


def test_lone_group_starts_cold(monkeypatch, fig1):
    # one group has no other group to share the decomposition with
    records = _record_restricted_flows(monkeypatch)
    x = encoded(fig1, [frozenset({"x"})])
    _, _, _, [(drop, _)] = settle_pair(*pair_ids(fig1, "y", "z"), x, passage=False)
    [(warm, kept_flow, _)] = records
    assert not any(warm) and sum(kept_flow) > 0


def test_warm_restricted_flow_matches_networkx(monkeypatch):
    # networkx as a third reference for the drops, on groups of 1, 2 and
    # 3 vertices that share one pair, so that their restricted flows may
    # start warm; ten pairs leave eight warm starts after the cut rule
    nx = pytest.importorskip("networkx")
    records = _record_restricted_flows(monkeypatch)
    net = seeded_network(24)
    rng = random.Random("warm:networkx")
    for _ in range(10):
        y, z = rng.sample(net.vertices, 2)
        inner = [v for v in net.vertices if v not in (y, z)]
        groups = [frozenset(rng.sample(inner, size)) for size in (1, 2, 3)]
        total, _, _, settled = settle_pair(
            *pair_ids(net, y, z), encoded(net, groups), passage=False
        )
        for group, (drop, _) in zip(groups, settled):
            graph = nx.DiGraph()
            graph.add_nodes_from(net.vertices)
            for (tail, head), cap in restrict(net, group).capacities.items():
                graph.add_edge(tail, head, capacity=cap)
            assert total - drop == nx.maximum_flow_value(graph, y, z)
    assert sum(any(warm) for warm, _, _ in records) >= 8


def _networkx_max_flow_value(net, y, z):
    nx = pytest.importorskip("networkx")
    graph = nx.DiGraph()
    graph.add_nodes_from(net.vertices)
    for (tail, head), cap in net.capacities.items():
        graph.add_edge(tail, head, capacity=cap)
    return nx.maximum_flow_value(graph, y, z)


def _check_cut_rule(monkeypatch, n, value=lambda net, y, z: max_flow(net, y, z)[0]):
    # settle_pair on the seeded network, for random groups of 1-3 vertices
    # that share a pair, against the max-flow value of each restricted
    # network.  The cut rule settles the groups whose flow through equals
    # C_X (cut_capacity_touching, on tokens) with no restricted flow, at
    # passage = drop = through; the other groups with flow through them
    # each run one restricted flow
    records = _record_restricted_flows(monkeypatch)
    net = seeded_network(n)
    rng = random.Random(f"cut:{n}")
    terms, flows_run, flows_left = [], 0, 0
    for _ in range(8):
        y, z = rng.sample(net.vertices, 2)
        total, f = max_flow(net, y, z)
        inner = [v for v in net.vertices if v not in (y, z)]
        groups = [frozenset(rng.sample(inner, rng.randint(1, 3))) for _ in range(4)]
        records.clear()
        _, _, _, settled = settle_pair(
            *pair_ids(net, y, z), encoded(net, groups), passage=False
        )
        flows_run += len(records)
        for group, (drop, passage) in zip(groups, settled):
            through = flow_through(f, group)
            cut = total > 0 and through == cut_capacity_touching(net, f, group)
            flows_left += total > 0 and not cut
            expected = total - value(restrict(net, group), y, z)
            terms.append((drop, expected, passage, through, cut and through > 0))
    assert [t[0] for t in terms] == [t[1] for t in terms], "drop != restricted max flow"
    cut_terms = [term for term in terms if term[4]]
    assert all(drop == passage == through for drop, _, passage, through, _ in cut_terms)
    return len(cut_terms), flows_run, flows_left


@pytest.mark.parametrize("n", [9, 16, 24, 40])
def test_cut_rule_matches_restricted_flow(n, monkeypatch):
    settled, flows_run, flows_left = _check_cut_rule(monkeypatch, n)
    assert settled >= 4 and flows_run == flows_left


def test_cut_rule_matches_networkx(monkeypatch):
    settled, flows_run, flows_left = _check_cut_rule(
        monkeypatch, 24, _networkx_max_flow_value
    )
    assert settled >= 4 and flows_run == flows_left


def test_through_and_cut_matches_definitions():
    # the one walk over the members' arcs, on the min cut settle_pair hands
    # out, against flow_through, cut_capacity_touching and
    # throughput_cut_bound (on tokens), for every group of 1-3 vertices
    # without an endpoint, at two random pairs with a positive flow per
    # network and at the first pair whose cut has an arc between two other
    # vertices: the group of both has an arc from one member to another
    # across the cut, which C_X counts once and the throughput's bound
    # C_X + inner at both ends.  At n = 24 no pair has one
    crossing = 0
    for n in (9, 16, 24):
        net = seeded_network(n)
        compiled = net.compiled
        cuts = {}
        for y, z in ordered_pairs(net):
            total, flow, reached, _ = settle_pair(
                *pair_ids(net, y, z), [], passage=False
            )
            if total:
                cuts[y, z] = flow, reached
        inner_cut = [
            (y, z)
            for (y, z), (_, reached) in cuts.items()
            if any(
                compiled.index[tail] in reached
                and compiled.index[head] not in reached
                and not {tail, head} & {y, z}
                for tail, head in token_arcs(compiled)
            )
        ]
        pairs = random.Random(f"through-and-cut:{n}").sample(list(cuts), 2)
        for y, z in pairs + inner_cut[:1]:
            flow, reached = cuts[y, z]
            f = _as_flow(compiled, y, z, flow)
            inner = [v for v in net.vertices if v not in (y, z)]
            for size in (1, 2, 3):
                for group in itertools.combinations(inner, size):
                    members = {compiled.index[x] for x in group}
                    through, cut, across = quantities._through_and_cut(
                        compiled, flow, reached, members
                    )
                    assert through == flow_through(f, group)
                    assert cut == cut_capacity_touching(net, f, group)
                    assert cut + across == throughput_cut_bound(net, f, group)
                    crossed = any(
                        tail in group
                        and head in group
                        and compiled.index[tail] in reached
                        and compiled.index[head] not in reached
                        for tail, head in token_arcs(compiled)
                    )
                    assert across > 0 if crossed else across == 0
                    crossing += crossed
    assert crossing > 0


def test_cut_sum_over_every_cut_arc_is_caught(monkeypatch):
    # negative control: a C_X that also counts the cut arcs not touching X
    # is the whole cut, max_flow.  It settles other terms than the cut
    # rule, and a group with through == max_flow at drop = max_flow, which
    # its restricted flow refutes at n = 16
    real = quantities._through_and_cut

    def every_cut_arc(net, flow, reached, members):
        through, _, inner = real(net, flow, reached, members)
        return through, sum(
            cap
            for (tail, head), cap in zip(net.arcs, net.capacities)
            if tail in reached and head not in reached
        ), inner

    monkeypatch.setattr(quantities, "_through_and_cut", every_cut_arc)
    _, flows_run, flows_left = _check_cut_rule(monkeypatch, 9)
    assert flows_run != flows_left
    with pytest.raises(AssertionError, match="restricted max flow"):
        _check_cut_rule(monkeypatch, 16)


def _check_tree_start(net, search=_bfs_augmenting):
    # settle_pair with the zero-flow search tree of the source, from which
    # the canonical flow takes its first path, against settle_pair without
    # it and against max_flow, for the singletons and two random pairs; a
    # sink the tree does not reach has max flow 0
    compiled = net.compiled
    zeros = [0] * len(compiled.arcs)
    rng = random.Random(f"tree-start:{net.vertices}")
    groups = [frozenset({x}) for x in net.vertices]
    groups += [frozenset(rng.sample(net.vertices, 2)) for _ in range(2)]
    groups = encoded(net, groups)
    for s, y in enumerate(net.vertices):
        tree = search(compiled, compiled.capacities, zeros, s, s)
        for t, z in enumerate(net.vertices):
            if t == s:
                continue
            total, flow = max_flow(net, y, z)
            if t not in tree:
                assert total == 0
                continue
            result = settle_pair(*pair_ids(net, y, z), groups, passage=True, tree=tree)
            assert result == settle_pair(*pair_ids(net, y, z), groups, passage=True)
            assert _as_flow(compiled, y, z, result[1]) == flow


@pytest.mark.parametrize("name", FIGURE_NAMES)
def test_tree_start_on_figures(name):
    _check_tree_start(figure_network(name))


@pytest.mark.parametrize("n", [9, 16, 24])
def test_tree_start_on_seeded_networks(n):
    _check_tree_start(seeded_network(n))


@settings(max_examples=40, deadline=None)
@given(networks(max_vertices=6))
def test_tree_start_on_random_networks(net):
    _check_tree_start(net)


def test_tree_in_reversed_neighbor_order_is_caught(monkeypatch):
    # negative control: a tree whose search expands each vertex's neighbors
    # in reversed order reaches the same vertices with other parent links,
    # so some first path is not the canonical one.  The centrality outputs
    # alone do not catch it: a term's drop and passage do not depend on
    # which maximum flow settles them, as the second half shows
    backwards = mutated(
        flows._bfs_augmenting, "in neighbors[v]:", "in reversed(neighbors[v]):"
    )
    net = seeded_network(9)
    with pytest.raises(AssertionError):
        _check_tree_start(net, backwards)
    groups = [[x] for x in net.vertices] + [["v01", "v04"], ["v02", "v03", "v07"]]
    expected = centrality.centrality_report(net, groups, explain=True)
    monkeypatch.setattr(centrality, "_bfs_augmenting", backwards)
    assert centrality.centrality_report(net, groups, explain=True) == expected
    plain = centrality.centrality_report(net, groups)
    assert [r.record() for r in plain] == [r.record() for r in expected]


def test_cut_rule_on_fig1(monkeypatch, fig1):
    # (u, z, {x}): f fills u->x and u->z, so S = {u}, and the flow through
    # x, 2, is the capacity of u->x: no restricted flow and no BFS beyond
    # the canonical flow's.  (y, z, {x}) cuts at y, where no arc touches
    # x, and still runs one restricted flow
    calls = record_augment_calls(monkeypatch)
    bfs_calls = []

    def counted(*args):
        bfs_calls.append(1)
        return _bfs_augmenting(*args)

    monkeypatch.setattr(flows, "_bfs_augmenting", counted)
    max_flow(fig1, "u", "z")
    canonical = len(bfs_calls)
    calls.clear()
    bfs_calls.clear()
    x = encoded(fig1, [frozenset({"x"})])
    assert settle_pair(*pair_ids(fig1, "u", "z"), x, passage=True)[3] == [(2, 2)]
    assert calls == [True] and len(bfs_calls) == canonical
    calls.clear()
    assert settle_pair(*pair_ids(fig1, "y", "z"), x, passage=True)[3] == [(2, 2)]
    assert calls == [True, False]


def test_empty_group_runs_no_flow(monkeypatch, fig1):
    # the empty group takes 0 with no max flow, once the endpoints and the
    # group are checked
    calls = record_augment_calls(monkeypatch)
    assert vitality_drop(fig1, "y", "z", []) == 0
    assert forced_passage(fig1, "y", "z", [], exact=True) == 0
    assert forced_throughput(fig1, "y", "z", []) == 0
    assert calls == []
    for bad in (("y", "y", []), ("y", "q", []), ("y", "z", ["q"])):
        for quantity in (vitality_drop, forced_passage, forced_throughput):
            with pytest.raises(InvalidInputError):
                quantity(fig1, *bad)


def _check_settle_pair(net, y, z, max_group):
    # every settle rule, with the singleton shortcut on and off, against
    # the restricted max flow and the enumeration minimum, for every group
    # of at most max_group vertices
    groups = [
        frozenset(members)
        for size in range(max_group + 1)
        for members in itertools.combinations(net.vertices, size)
    ]
    total, flow = max_flow(net, y, z)
    cut = residual_reach(net, y, flow.values)
    sequences = list(enumerate_max_sequences(net, y, z))
    expected = [
        (
            total - max_flow(restrict(net, group), y, z)[0],
            min(passage_count(s, group) for s in sequences),
        )
        for group in groups
    ]
    for exact in (False, True):
        value, arc_flow, reached, settled = settle_pair(
            *pair_ids(net, y, z), encoded(net, groups), passage=True, exact=exact
        )
        assert value == total
        assert _as_flow(net.compiled, y, z, arc_flow) == flow
        assert {net.vertices[i] for i in reached} == cut
        assert settled == expected


@settings(max_examples=40, deadline=None)
@given(networks_with_endpoints(max_vertices=6, max_capacity=2))
def test_settle_pair_matches_definitions(net_yz):
    net, y, z = net_yz
    _check_settle_pair(net, y, z, 3)


@settings(max_examples=30, deadline=None)
@given(fig5_with_extra_arcs())
def test_settle_pair_on_gap_networks(net):
    # about a third of these networks have a group with drop < passage at
    # (y, z), where only the search may settle the passage
    _check_settle_pair(net, "y", "z", 2)


def test_loosened_extension_rule_is_caught(monkeypatch, fig5):
    # negative control: an extension rule that accepts one unit short of
    # the drop settles fig5's gap term {x1, x2} at 1, where its passage is 2
    def loosened(net, s, t, members, flow, caps, kept_flow, kept, drop):
        spare = [c - g for c, g in zip(net.capacities, kept_flow)]
        added, _ = _augment(net, spare, [0] * len(spare), s, t)
        return added >= drop - 1

    monkeypatch.setattr(quantities, "_passage_at_drop", loosened)
    gap = encoded(fig5, [frozenset({"x1", "x2"})])
    assert settle_pair(*pair_ids(fig5, "y", "z"), gap, passage=True)[3] == [(1, 1)]
    with pytest.raises(AssertionError):
        _check_settle_pair(fig5, "y", "z", 2)


@settings(max_examples=50)
@given(networks_with_endpoints_and_group())
def test_chain_inequality(net_yzg):
    net, y, z, group = net_yzg
    value, _ = max_flow(net, y, z)
    drop = vitality_drop(net, y, z, group)
    passage = enumerated_passage(net, y, z, group)
    through = forced_throughput(net, y, z, group)
    assert 0 <= drop <= passage <= min(through, value)


@settings(max_examples=50)
@given(networks_with_endpoints_and_group(), st.data())
def test_monotonicity_under_group_growth(net_yzg, data):
    net, y, z, group = net_yzg
    extra = data.draw(st.sets(st.sampled_from(net.vertices)), label="extra")
    larger = group | extra
    assert vitality_drop(net, y, z, group) <= vitality_drop(net, y, z, larger)
    assert enumerated_passage(net, y, z, group) <= enumerated_passage(
        net, y, z, larger
    )
    assert forced_throughput(net, y, z, group) <= forced_throughput(
        net, y, z, larger
    )


@settings(max_examples=60)
@given(networks_with_endpoints())
def test_degree_bound(net_yz):
    net, y, z = net_yz
    others = set(net.vertices) - {y, z}
    for x in others:
        out_cap = capacity_of_set(net, {x})
        in_cap = capacity_of_set(net, set(net.vertices) - {x})
        assert enumerated_passage(net, y, z, {x}) <= min(out_cap, in_cap)


@settings(max_examples=40)
@given(networks_with_endpoints(), st.data())
def test_flow_through_lower_bound(net_yz, data):
    # every maximum flow, however produced, moves at least the forced
    # passage through each vertex
    net, y, z = net_yz
    costs = {}
    for arc in sorted(net.capacities):
        costs[arc] = data.draw(st.integers(0, 2), label=f"cost {arc}")
    flows = [max_flow(net, y, z)[1], cheapest_max_flow(net, y, z, costs)[2]]
    for x in net.vertices:
        bound = enumerated_passage(net, y, z, {x})
        for f in flows:
            assert flow_through(f, {x}) >= bound


@settings(max_examples=60)
@given(networks_with_endpoints())
def test_boundary_cases(net_yz):
    net, y, z = net_yz
    value, _ = max_flow(net, y, z)
    for touching in ({y}, {z}, {y, z}):
        assert vitality_drop(net, y, z, touching) == value
        assert forced_passage(net, y, z, touching, exact=True) == value
    # passage of the full vertex set equals the max flow value; it is zero
    # exactly when there is no path at all
    assert forced_passage(net, y, z, set(net.vertices), exact=True) == value


@settings(max_examples=60)
@given(networks_with_endpoints())
def test_zero_max_flow_iff_no_path(net_yz):
    net, y, z = net_yz
    value, _ = max_flow(net, y, z)
    assert (value == 0) == (not candidate_paths(net, y, z))
    classes = list(enumerate_max_sequences(net, y, z))
    assert (value == 0) == (classes == [ArcDisjointSequence((), y, z)])


@settings(max_examples=15, deadline=None)
@given(networks_with_endpoints(max_vertices=4, max_capacity=2))
def test_enumeration_matches_decompositions(net_yz):
    # the decomposition of every maximum flow lands in the enumerated
    # classes, and every enumerated class is the decomposition of its own
    # induced flow
    net, y, z = net_yz
    classes = {s.paths for s in enumerate_max_sequences(net, y, z)}
    _, maximum_flows = oracle_max_flows(net, y, z)
    for f in maximum_flows:
        assert tuple(sorted(decompose(net, f).paths)) in classes
    for paths in classes:
        dec = decompose(net, induced_flow(net, ArcDisjointSequence(paths, y, z)))
        assert tuple(sorted(dec.paths)) in classes
