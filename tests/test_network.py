from hypothesis import given

import pytest

from fullflow.errors import InvalidInputError
from fullflow.flows import max_flow
from fullflow.network import Network, build_network, parse_network

from helpers import boundary_arcs, capacity_of_set, network_to_text, restrict
from strategies import networks


def test_build_fig1_capacities(fig1):
    assert fig1.capacity(("y", "v")) == 2
    assert fig1.capacity(("y", "u")) == 1
    assert fig1.capacity(("v", "x")) == 1
    assert fig1.capacity(("v", "u")) == 1
    assert fig1.capacity(("u", "x")) == 2
    assert fig1.capacity(("u", "z")) == 1
    assert fig1.capacity(("x", "z")) == 2
    assert len(fig1.capacities) == 7


def test_build_empty_capacities():
    net = build_network(["a", "b"], [])
    assert net.capacities == {}
    assert net.capacity(("a", "b")) == 0


def test_build_drops_zero_entries():
    net = build_network(["a", "b", "c"], [("a", "b", 0), ("b", "c", 2)])
    assert net.capacities == {("b", "c"): 2}


def test_build_errors_name_the_offender():
    with pytest.raises(InvalidInputError, match="'a'"):
        build_network(["a", "b"], [("a", "a", 1)])
    with pytest.raises(InvalidInputError, match="'q'"):
        build_network(["a", "b"], [("a", "q", 1)])
    with pytest.raises(InvalidInputError, match="'a'"):
        build_network(["a", "b"], [("a", "b", 1), ("a", "b", 2)])
    with pytest.raises(InvalidInputError):
        build_network(["a"], [])


@pytest.mark.parametrize("bad", [2.7, True, "3"])
def test_non_int_capacity_rejected(bad):
    with pytest.raises(ValueError, match=r"\('a', 'b'\)") as info:
        build_network(["a", "b"], [("a", "b", bad)])
    assert repr(bad) in str(info.value)
    with pytest.raises(ValueError, match=r"\('b', 'a'\)") as info:
        Network(("a", "b"), {("b", "a"): bad})
    assert repr(bad) in str(info.value)


def test_capacities_are_read_only():
    net = build_network(["a", "b"], [("a", "b", 1)])
    assert max_flow(net, "a", "b")[0] == 1
    with pytest.raises(TypeError):
        net.capacities[("a", "b")] = 5
    with pytest.raises(TypeError):
        net.capacities[("a", "a")] = 4
    assert net.capacity(("a", "b")) == max_flow(net, "a", "b")[0] == 1


def test_vertices_kept_sorted():
    net = build_network(["z", "a", "m"], [])
    assert net.vertices == ("a", "m", "z")


def test_restrict_fig1_x(fig1):
    restricted = restrict(fig1, {"x"})
    assert restricted.capacities == {
        ("y", "v"): 2,
        ("y", "u"): 1,
        ("v", "u"): 1,
        ("u", "z"): 1,
    }


def test_restrict_fig6_kills_everything(fig6):
    assert restrict(fig6, {"x1", "x2"}).capacities == {}


def test_restrict_empty_group_is_identity(fig1):
    assert restrict(fig1, set()) == fig1


def test_restrict_unknown_vertex(fig1):
    with pytest.raises(InvalidInputError, match="'q'"):
        restrict(fig1, {"q"})


def test_boundary_arcs_fig1(fig1):
    outgoing, incoming = boundary_arcs(fig1, {"x"})
    assert outgoing == {("x", "y"), ("x", "v"), ("x", "u"), ("x", "z")}
    assert incoming == {("y", "x"), ("v", "x"), ("u", "x"), ("z", "x")}


def test_boundary_arcs_whole_and_empty(fig1):
    assert boundary_arcs(fig1, set(fig1.vertices)) == (frozenset(), frozenset())
    assert boundary_arcs(fig1, set()) == (frozenset(), frozenset())


def test_capacity_of_set_fig1(fig1):
    assert capacity_of_set(fig1, {"x"}) == 2
    others = set(fig1.vertices) - {"x"}
    assert capacity_of_set(fig1, others) == 3
    assert capacity_of_set(fig1, set(fig1.vertices)) == 0


@given(networks())
def test_restrict_idempotent(net):
    for x in net.vertices:
        once = restrict(net, {x})
        assert restrict(once, {x}) == once


@given(networks())
def test_restrict_antitone(net):
    vs = net.vertices
    small = {vs[0]}
    large = {vs[0], vs[-1]}
    r_small = restrict(net, small)
    r_large = restrict(net, large)
    for arc, cap in net.capacities.items():
        assert r_small.capacity(arc) <= cap
        assert r_large.capacity(arc) <= r_small.capacity(arc)


@given(networks())
def test_singleton_capacity_is_positive_out_sum(net):
    for x in net.vertices:
        expected = sum(c for (t, _h), c in net.capacities.items() if t == x)
        assert capacity_of_set(net, {x}) == expected
        assert capacity_of_set(net, {x}) <= sum(net.capacities.values())


@given(networks())
def test_serialize_parse_round_trip(net):
    assert parse_network(network_to_text(net)) == net


def test_parse_reports_line_numbers():
    text = "vertices a b\na b one\n"
    with pytest.raises(InvalidInputError, match="line 2"):
        parse_network(text)
    with pytest.raises(InvalidInputError, match="line 1"):
        parse_network("a b 1\n")
    with pytest.raises(InvalidInputError, match="line 3"):
        parse_network("# fine\nvertices a b\na a 1\n")
    for text, message in [
        ("vertices a b\na q 1\n", "line 2: unknown vertex 'q' in arc ('a', 'q')"),
        ("vertices a b\nq b 1\n", "line 2: unknown vertex 'q' in arc ('q', 'b')"),
        ("vertices a b\na b\n", "line 2: expected 'tail head capacity'"),
        ("# only a comment\n", "line 1: empty input: no 'vertices' line"),
        ("vertices a b\n\na b -1\n", "line 3: negative capacity -1 on arc ('a', 'b')"),
        ("vertices a b-c\n", "line 1: bad vertex token 'b-c'"),
        ("vertices a b a\n", "line 1: vertex 'a' declared more than once"),
        ("# one\nvertices a\n", "line 2: a network needs at least 2 vertices, got 1"),
        ("vertices a b\na b 1_0\n", "line 2: bad capacity '1_0'"),
        ("vertices a b\na b +3\n", "line 2: bad capacity '+3'"),
        ("vertices a b\na b \uff13\n", "line 2: bad capacity '\uff13'"),
        ("vertices a b\na b \u0663\n", "line 2: bad capacity '\u0663'"),
    ]:
        with pytest.raises(InvalidInputError) as info:
            parse_network(text)
        assert str(info.value).startswith(message)


def test_parse_comments_and_blanks():
    net = parse_network("# header\n\nvertices b a\n# middle\na b 3\n")
    assert net.vertices == ("a", "b")
    assert net.capacities == {("a", "b"): 3}


def test_parse_duplicate_arc_even_with_zero():
    with pytest.raises(InvalidInputError, match="duplicate arc"):
        parse_network("vertices a b\na b 0\na b 2\n")


def test_parse_capacity_cap():
    text = "vertices a b\na b 100\n"
    assert parse_network(text, max_capacity=100).capacity(("a", "b")) == 100
    with pytest.raises(InvalidInputError, match="exceeds"):
        parse_network(text, max_capacity=99)
