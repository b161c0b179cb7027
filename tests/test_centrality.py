import itertools
import random
from fractions import Fraction

from hypothesis import event, given, settings, target
from hypothesis import strategies as st

import pytest

from fullflow import centrality, quantities
from fullflow.centrality import (
    _group_sums,
    centrality_report,
    decimal_text,
    full_flow_betweenness,
    full_flow_vitality,
)
from fullflow.errors import InvalidInputError
from fullflow.figures import figure_network
from fullflow.flows import _bfs_augmenting, max_flow
from fullflow.network import CompiledNetwork, ordered_pairs
from fullflow.quantities import (
    _zeroed_caps,
    forced_throughput,
    pair_report,
    settle_pair,
)

from helpers import mutated, record_augment_calls, restrict, seeded_network
from strategies import fig5_with_extra_arcs, networks


def test_vitality_empty_group(fig1):
    assert full_flow_vitality(fig1, set()) == 0


def test_vitality_fig6_pair_group(fig6):
    assert full_flow_vitality(fig6, {"x1", "x2"}) == Fraction(10)


def test_vitality_fig6_whole_set(fig6):
    # every flow-positive pair contributes exactly 1
    positive = sum(
        1
        for y in fig6.vertices
        for z in fig6.vertices
        if y != z and max_flow(fig6, y, z)[0] > 0
    )
    assert positive == 10
    assert full_flow_vitality(fig6, set(fig6.vertices)) == Fraction(positive)


def test_betweenness_fig6_pair_group(fig6):
    assert full_flow_betweenness(fig6, {"x1", "x2"}, exact=True) == Fraction(10)


def test_betweenness_empty_group(fig5):
    assert full_flow_betweenness(fig5, set(), exact=True) == 0


def test_unknown_vertex(fig1):
    with pytest.raises(InvalidInputError):
        full_flow_vitality(fig1, {"nope"})


def test_singleton_equality_on_figures(fig1, fig2, fig5):
    for net in (fig1, fig2, fig5):
        for x in net.vertices:
            vit = full_flow_vitality(net, {x})
            bet = full_flow_betweenness(net, {x}, exact=True)
            assert vit == bet == full_flow_betweenness(net, {x})


def test_fig5_gap_term(fig5):
    # the y->z term separates the measures: drop 1/3 vs passage 2/3
    vit = full_flow_vitality(fig5, {"x1", "x2"})
    bet = full_flow_betweenness(fig5, {"x1", "x2"}, exact=True)
    assert bet - vit == Fraction(1, 3)
    assert vit < bet


def test_report_fig1_singletons(fig1):
    reports = centrality_report(fig1, [{"x"}, {"v"}, {"u"}])
    assert len(reports) == 3
    for rep in reports:
        assert rep.vitality == rep.betweenness
        assert rep.pair_terms is None


def test_report_explain_terms(fig6):
    (rep,) = centrality_report(fig6, [{"x1", "x2"}], explain=True)
    assert rep.vitality == rep.betweenness == Fraction(10)
    assert len(rep.pair_terms) == 10
    assert all(t.max_flow_total == 1 for t in rep.pair_terms)


def test_report_empty_list(fig1):
    assert centrality_report(fig1, []) == []


def test_empty_groups_run_no_flow(monkeypatch, fig1):
    # an empty group's terms are all 0, so only explain, which keeps them,
    # runs the max flows: one per pair that a path joins, as many as terms
    calls = record_augment_calls(monkeypatch)
    assert full_flow_vitality(fig1, []) == 0
    assert full_flow_betweenness(fig1, []) == 0
    reports = centrality_report(fig1, [[], set()])
    assert [r.record() for r in reports] == ["- 0 1 0 1 0.000000 0.000000"] * 2
    assert calls == []
    (rep,) = centrality_report(fig1, [[]], explain=True)
    assert rep.record() == "- 0 1 0 1 0.000000 0.000000"
    assert len(rep.pair_terms) == 10
    assert all(t.vitality_drop == t.forced_passage == 0 for t in rep.pair_terms)
    assert calls == [True] * 10


@pytest.mark.parametrize("name", ["fig5", "fig6", 12])
def test_duplicate_groups_match_their_lone_reports(name):
    # a call's groups are encoded by position, so a group given twice, or
    # next to the empty group, must read the same as when it runs alone
    net = seeded_network(name) if name == 12 else figure_network(name)
    v, w = ("v00", "v01") if name == 12 else ("x1", "x2")
    groups = [[v], [v], [], [v, w], net.vertices]
    for explain in (False, True):
        reports = centrality_report(net, groups, explain=explain)
        alone = [centrality_report(net, [g], explain=explain)[0] for g in groups]
        assert reports == alone, explain


def test_report_record_format(fig6):
    (rep,) = centrality_report(fig6, [{"x1", "x2"}])
    assert rep.record() == "x1,x2 10 1 10 1 10.000000 10.000000"


def test_decimal_text():
    assert decimal_text(Fraction(1, 3)) == "0.333333"
    assert decimal_text(Fraction(2, 3)) == "0.666667"
    assert decimal_text(Fraction(10)) == "10.000000"


@settings(max_examples=20, deadline=None)
@given(networks(max_vertices=4, max_capacity=2))
def test_singleton_equality_random(net):
    for x in net.vertices:
        assert full_flow_vitality(net, {x}) == full_flow_betweenness(
            net, {x}, exact=True
        )


@settings(max_examples=20, deadline=None)
@given(networks(max_vertices=4, max_capacity=2), st.data())
def test_measure_monotonicity_and_order(net, data):
    members = data.draw(st.sets(st.sampled_from(net.vertices)), label="group")
    extra = data.draw(st.sets(st.sampled_from(net.vertices)), label="extra")
    larger = members | extra
    vit_small = full_flow_vitality(net, members)
    vit_large = full_flow_vitality(net, larger)
    bet_small = full_flow_betweenness(net, members, exact=True)
    bet_large = full_flow_betweenness(net, larger, exact=True)
    assert vit_small <= vit_large
    assert bet_small <= bet_large
    assert vit_small <= bet_small
    assert vit_large <= bet_large


def test_determinism_across_runs(fig5):
    a = full_flow_betweenness(fig5, {"x1", "x2"}, exact=True)
    b = full_flow_betweenness(fig5, {"x1", "x2"}, exact=True)
    assert a == b and isinstance(a, Fraction)


def _assert_terms_match_pair_report(net, groups):
    # every rule that settles a term without the search must agree with
    # pair_report, which runs the search for every exact term
    reports = centrality_report(net, groups, exact=True, explain=True)
    for group, report in zip(groups, reports):
        terms = {(t.source, t.sink): t for t in report.pair_terms}
        for y, z in ordered_pairs(net):
            expected = pair_report(net, y, z, group, exact=True)
            if expected.max_flow_total == 0:
                assert (y, z) not in terms
                continue
            term = terms[(y, z)]
            assert (term.max_flow_total, term.vitality_drop, term.forced_passage) \
                == (expected.max_flow_total, expected.vitality_drop,
                    expected.forced_passage), (y, z, sorted(group))


@settings(max_examples=40, deadline=None)
@given(networks(max_vertices=6, max_capacity=2), st.data())
def test_report_terms_match_pair_report(net, data):
    vertices = net.vertices
    groups = [frozenset(), frozenset(vertices), frozenset(vertices[:1] + vertices[-1:])]
    for _ in range(3):
        groups.append(
            frozenset(data.draw(st.sets(st.sampled_from(vertices)), label="group"))
        )
    _assert_terms_match_pair_report(net, groups)


def test_report_terms_match_pair_report_on_figures(fig1, fig5, fig6):
    # fig5 and fig6 separate drop from passage, so the search really runs
    for net in (fig1, fig5, fig6):
        vertices = net.vertices
        groups = [frozenset(), frozenset(vertices)]
        groups.extend(
            frozenset({a, b}) for i, a in enumerate(vertices) for b in vertices[i:]
        )
        _assert_terms_match_pair_report(net, groups)


def _check_sums_match_terms(net, groups):
    # the report's sums, kept without terms, against the sums over the
    # terms of --explain and against the one-group measures; and each term's
    # max flow and drop against max flows of G and of G - X
    plain = centrality_report(net, groups)
    explained = centrality_report(net, groups, explain=True)
    totals = {(y, z): max_flow(net, y, z)[0] for y, z in ordered_pairs(net)}
    for report, terms in zip(plain, explained):
        assert report.pair_terms is None
        assert report.vitality == sum(
            (Fraction(t.vitality_drop, t.max_flow_total) for t in terms.pair_terms),
            Fraction(0),
        )
        assert report.betweenness == sum(
            (Fraction(t.forced_passage, t.max_flow_total) for t in terms.pair_terms),
            Fraction(0),
        )
        assert (terms.vitality, terms.betweenness) == (
            report.vitality,
            report.betweenness,
        )
        assert full_flow_vitality(net, report.group) == report.vitality
        assert full_flow_betweenness(net, report.group) == report.betweenness
        cut = restrict(net, report.group)
        assert [
            (t.source, t.sink, t.max_flow_total, t.vitality_drop) for t in terms.pair_terms
        ] == [
            (y, z, total, total - max_flow(cut, y, z)[0])
            for (y, z), total in totals.items()
            if total
        ]


@settings(max_examples=15, deadline=None)
@given(fig5_with_extra_arcs(), st.data())
def test_sums_match_explained_terms_on_gap_networks(net, data):
    # fig5's gap groups, where passage > drop on (y, z), and two drawn ones
    pairs = list(itertools.combinations(net.vertices, 2))
    drawn = [data.draw(st.sampled_from(pairs), label=f"group {i}") for i in range(2)]
    groups = [{"x1", "x2"}, {"u2", "x1"}, *map(set, drawn)]
    _check_sums_match_terms(net, groups)


@settings(max_examples=30, deadline=None)
@given(networks(max_vertices=6))
def test_sums_match_explained_terms_on_singletons(net):
    _check_sums_match_terms(net, [[v] for v in net.vertices])


FIGURES = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6")


def _separated_pairs(net, members):
    """The pairs (y, z) with neither endpoint in the group and no y->z path
    once the arcs touching it are zeroed, though G has one."""
    cut = restrict(net, members)
    return [
        (y, z)
        for y, z in ordered_pairs(net)
        if not {y, z} & members
        and max_flow(net, y, z)[0] > 0
        and max_flow(cut, y, z)[0] == 0
    ]


@settings(max_examples=40, deadline=None)
@given(networks(min_vertices=4, max_vertices=6), st.data())
def test_sums_match_explained_terms_on_lone_groups(net, data):
    # a lone group meets every y->z path of the pairs with an endpoint in it
    # and of those it separates; the plain sums take 1 there with no flow
    members = data.draw(
        st.sets(st.sampled_from(net.vertices), min_size=1, max_size=3), label="group"
    )
    separated = len(_separated_pairs(net, members))
    target(separated, label="separated pairs")
    event("group separates a pair" if separated else "group separates no pair")
    _check_sums_match_terms(net, [members])


def _check_lone_groups_on_figures():
    # every figure's lone groups of 1-3 vertices; fig4's {x} separates
    # (v, z), and no figure's z reaches another vertex
    for name in FIGURES:
        net = figure_network(name)
        for k in (1, 2, 3):
            for members in itertools.combinations(net.vertices, k):
                _check_sums_match_terms(net, [set(members)])


def test_sums_match_explained_terms_on_figure_lone_groups():
    assert _separated_pairs(figure_network("fig4"), {"x"}) == [("v", "z")]
    _check_lone_groups_on_figures()


@pytest.mark.parametrize("n", [16, 24])
def test_sums_match_explained_terms_on_seeded_networks(n):
    net = seeded_network(n)
    rng = random.Random(n)
    for _ in range(6):
        _check_sums_match_terms(net, [set(rng.sample(net.vertices, rng.randint(2, 3)))])


@settings(max_examples=40, deadline=None)
@given(networks(min_vertices=3, max_vertices=6))
def test_sums_match_explained_terms_on_groups_sharing_a_vertex(net):
    # source a is avoided by no group, b and c by one each, the rest by both
    _check_sums_match_terms(net, [{"a", "b"}, {"a", "c"}])


def _check_groups_sharing_a_vertex_on_figures():
    for name in FIGURES:
        net = figure_network(name)
        for a in net.vertices:
            rest = [v for v in net.vertices if v != a]
            for b, c in itertools.combinations(rest, 2):
                _check_sums_match_terms(net, [{a, b}, {a, c}])


def test_sums_match_explained_terms_on_figure_groups_sharing_a_vertex():
    _check_groups_sharing_a_vertex_on_figures()


def _record_settle_calls(monkeypatch):
    calls = []

    def recorded(net, s, t, groups, **options):
        calls.append((net.vertices[s], net.vertices[t]))
        return settle_pair(net, s, t, groups, **options)

    monkeypatch.setattr(centrality, "settle_pair", recorded)
    return calls


def test_lone_group_settles_only_pairs_with_a_path_around_it(monkeypatch):
    # the pairs outside X that G - X still joins are the only ones whose
    # max flow runs; the pairs with an endpoint in X, the ones X separates
    # and the ones G does not join run none
    calls = _record_settle_calls(monkeypatch)
    cases = [(figure_network(f"fig{i}"), {"x"}) for i in range(1, 5)]
    cases += [(figure_network("fig5"), {"x1", "x2"}), (figure_network("fig6"), {"x1"})]
    cases.append((seeded_network(16), {"v02", "v03"}))
    for net, members in cases:
        cut = restrict(net, members)
        expected = [
            (y, z)
            for y, z in ordered_pairs(net)
            if not {y, z} & members and max_flow(cut, y, z)[0] > 0
        ]
        calls.clear()
        centrality_report(net, [members])
        assert calls == expected, (net.vertices, members)


def test_singletons_settle_every_pair(monkeypatch):
    # with n > 2 singletons every source is avoided by two groups or more,
    # so no G - X search runs: one zero-flow search per source, and every
    # ordered pair that a path joins is settled
    calls = _record_settle_calls(monkeypatch)
    searches = []

    def recorded(net, caps, flow, s, t):
        searches.append((caps is net.capacities and not any(flow), s, t))
        return _bfs_augmenting(net, caps, flow, s, t)

    monkeypatch.setattr(centrality, "_bfs_augmenting", recorded)
    net = seeded_network(9)
    centrality_report(net, [[v] for v in net.vertices])
    assert calls == [(y, z) for y, z in ordered_pairs(net) if max_flow(net, y, z)[0] > 0]
    assert len(calls) == 64
    assert searches == [(True, s, s) for s in range(9)]


def _with_mutant(monkeypatch, old, new):
    monkeypatch.setattr(centrality, "_group_sums", mutated(_group_sums, old, new))


def test_reach_rule_reversed_is_caught(monkeypatch):
    # negative control: the term taken as 1 where y does reach z in G - X
    _with_mutant(monkeypatch, "            if t in bypass:", "            if t not in bypass:")
    with pytest.raises(AssertionError):
        _check_lone_groups_on_figures()


def test_reach_rule_without_the_reach_in_g_is_caught(monkeypatch):
    # negative control: a sink that G does not reach also takes 1
    _with_mutant(monkeypatch, "if t == s or t not in tree:", "if t == s:")
    with pytest.raises(AssertionError):
        _check_lone_groups_on_figures()


def test_reach_rule_for_two_avoiding_groups_is_caught(monkeypatch):
    # negative control: the rule run when two groups avoid y, with only the
    # first group's G - X searched
    _with_mutant(monkeypatch, "len(avoiding) <= 1", "len(avoiding) <= 2")
    with pytest.raises(AssertionError):
        _check_groups_sharing_a_vertex_on_figures()


def _check_one_encoding_per_call(monkeypatch):
    # each group's G - X capacities are built once per call, however many
    # pairs it settles: 114, 17, 1,040 and 88 builds when each pair builds
    # its own
    builds = []

    def counted(net, members):
        builds.append(members)
        return _zeroed_caps(net, members)

    monkeypatch.setattr(quantities, "_zeroed_caps", counted)
    for n in (9, 16):
        net = seeded_network(n)
        for groups, expected in (([[v] for v in net.vertices], n), ([["v01", "v02"]], 1)):
            builds.clear()
            centrality_report(net, groups)
            assert len(builds) == expected, (n, groups)


def test_groups_are_encoded_once_per_call(monkeypatch):
    _check_one_encoding_per_call(monkeypatch)


def test_groups_encoded_on_every_pair_are_caught(monkeypatch):
    # negative control: the groups encoded again for each pair settled
    _with_mutant(
        monkeypatch, "s, t, encoded, passage", "s, t, encode_groups(net, groups), passage"
    )
    with pytest.raises(AssertionError):
        _check_one_encoding_per_call(monkeypatch)


def _record_index_lookups(monkeypatch, net):
    """Swap the compiled network's token-to-id index for one that records
    each token it looks up; return the list of those tokens."""
    lookups = []

    class RecordingIndex(dict):
        def __getitem__(self, token):
            lookups.append(token)
            return super().__getitem__(token)

    compiled = net.compiled
    recording = CompiledNetwork(
        vertices=compiled.vertices,
        index=RecordingIndex(compiled.index),
        arcs=compiled.arcs,
        capacities=compiled.capacities,
        neighbors=compiled.neighbors,
    )
    monkeypatch.setitem(net.__dict__, "compiled", recording)
    return lookups


def test_solvers_read_no_vertex_index(monkeypatch):
    # below the public functions every vertex is an id: centrality over
    # every singleton looks up each member once, to encode the groups, and
    # pair_report and forced_throughput their source, their sink and their
    # members, once each
    net = seeded_network(9)
    assert net.compiled.vertices is net.vertices
    lookups = _record_index_lookups(monkeypatch, net)
    centrality_report(net, [[v] for v in net.vertices])
    assert lookups == list(net.vertices)
    fig5 = figure_network("fig5")
    lookups = _record_index_lookups(monkeypatch, fig5)
    pair_report(fig5, "y", "z", {"x1", "x2"})
    assert sorted(lookups) == ["x1", "x2", "y", "z"]
    lookups.clear()
    forced_throughput(fig5, "y", "z", {"x1", "x2"})
    assert sorted(lookups) == ["x1", "x2", "y", "z"]
