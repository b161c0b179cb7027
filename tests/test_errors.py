import pytest

from fullflow.centrality import centrality_report
from fullflow.errors import FullFlowError, InvalidInputError
from fullflow.figures import FIGURE_NAMES, figure_network
from fullflow.flows import Flow, decompose, flow_through, max_flow, validate_flow
from fullflow.network import Network, build_network, vertex_group
from fullflow.paths import Path, is_arc_disjoint, passage_count, path_of
from fullflow.quantities import forced_passage, pair_report, vitality_drop

AB = build_network(["a", "b"], [("a", "b", 1)])


def _fig1_flow():
    return max_flow(figure_network("fig1"), "y", "z")[1]


# (call, message): every bad input raises InvalidInputError with this text
BAD_CALLS = {
    "repeated vertex": (
        lambda: build_network(["a", "a", "b"], []),
        "vertex 'a' declared more than once",
    ),
    "bad token": (
        lambda: build_network(["a", "b-c"], []),
        "bad vertex token 'b-c': expected [A-Za-z0-9_]+",
    ),
    "single vertex": (
        lambda: build_network(["a"], []),
        "a network needs at least 2 vertices, got 1",
    ),
    "unknown vertex in arc": (
        lambda: build_network(["a", "b"], [("a", "q", 1)]),
        "unknown vertex 'q' in arc ('a', 'q')",
    ),
    "unknown vertex in group": (
        lambda: vertex_group(AB, {"q"}),
        "unknown vertex 'q'",
    ),
    "self-loop": (
        lambda: build_network(["a", "b"], [("a", "a", 1)]),
        "self-loop on vertex 'a'",
    ),
    "duplicate arc": (
        lambda: build_network(["a", "b"], [("a", "b", 1), ("a", "b", 2)]),
        "duplicate arc ('a', 'b')",
    ),
    "negative capacity, build_network": (
        lambda: build_network(["a", "b"], [("a", "b", -1)]),
        "negative capacity -1 on arc ('a', 'b')",
    ),
    "negative capacity, Network": (
        lambda: Network(("a", "b"), {("a", "b"): -1}),
        "negative capacity -1 on arc ('a', 'b')",
    ),
    "non-int capacity, build_network": (
        lambda: build_network(["a", "b"], [("a", "b", 2.5)]),
        "capacity 2.5 on arc ('a', 'b') is not an integer",
    ),
    "non-int capacity, Network": (
        lambda: Network(("a", "b"), {("a", "b"): "1"}),
        "capacity '1' on arc ('a', 'b') is not an integer",
    ),
    "string arc, Network": (
        lambda: Network(("a", "b"), {"ab": 1}),
        "arc 'ab' is not a (tail, head) pair",
    ),
    "three-vertex arc, Network": (
        lambda: Network(("a", "b", "c"), {("a", "b", "c"): 1}),
        "arc ('a', 'b', 'c') is not a (tail, head) pair",
    ),
    "integer arc, Network": (
        lambda: Network(("a", "b"), {5: 1}),
        "arc 5 is not a (tail, head) pair",
    ),
    "two-field entry, build_network": (
        lambda: build_network(["a", "b"], [("a", "b")]),
        "entry ('a', 'b') is not a (tail, head, capacity) triple",
    ),
    "string entry, build_network": (
        lambda: build_network(["a", "b"], ["ab1"]),
        "entry 'ab1' is not a (tail, head, capacity) triple",
    ),
    "same endpoints, max_flow": (
        lambda: max_flow(AB, "a", "a"),
        "source and sink must differ, both are 'a'",
    ),
    "same endpoints, Flow": (
        lambda: Flow("a", "a", {}),
        "source and sink must differ, both are 'a'",
    ),
    "one-vertex path": (
        lambda: Path(("a",)),
        "a path needs at least 2 vertices",
    ),
    "mixed endpoints": (
        lambda: is_arc_disjoint(AB, [path_of("a", "b"), path_of("b", "a")]),
        "path b-a does not run 'a'->'b' like the first component",
    ),
    "invalid flow": (
        lambda: decompose(AB, Flow("a", "b", {("a", "b"): 2})),
        "flow 2 exceeds capacity 1 on arc ('a', 'b')",
    ),
    "string flow arc": (
        lambda: Flow("a", "b", {"ab": 1}),
        "flow arc 'ab' is not a (tail, head) pair",
    ),
    "one-vertex flow arc": (
        lambda: Flow("a", "b", {("a",): 1}),
        "flow arc ('a',) is not a (tail, head) pair",
    ),
    "mixed-type flow vertex": (
        lambda: validate_flow(AB, Flow("a", "b", {(1, "b"): 1, ("a", "b"): 1})),
        "unknown vertex 1 in flow support",
    ),
    "string group, vitality_drop": (
        lambda: vitality_drop(figure_network("fig1"), "y", "z", "uv"),
        "group 'uv' is a string, not a set of vertices",
    ),
    "string group, forced_passage": (
        lambda: forced_passage(figure_network("fig5"), "y", "z", "x1"),
        "group 'x1' is a string, not a set of vertices",
    ),
    "string group, pair_report": (
        lambda: pair_report(figure_network("fig1"), "y", "z", "x"),
        "group 'x' is a string, not a set of vertices",
    ),
    "string group, centrality_report": (
        lambda: centrality_report(figure_network("fig1"), [["x"], "uv"]),
        "group 'uv' is a string, not a set of vertices",
    ),
    "string group, flow_through": (
        lambda: flow_through(_fig1_flow(), "xv"),
        "group 'xv' is a string, not a set of vertices",
    ),
    "string group, passage_count": (
        lambda: passage_count(decompose(figure_network("fig1"), _fig1_flow()).paths, "xv"),
        "group 'xv' is a string, not a set of vertices",
    ),
    "unknown figure": (
        lambda: figure_network("fig9"),
        f"unknown figure 'fig9', expected one of {FIGURE_NAMES}",
    ),
}


@pytest.mark.parametrize("case", BAD_CALLS)
def test_every_input_error_is_invalid_input(case):
    call, message = BAD_CALLS[case]
    with pytest.raises(InvalidInputError) as info:
        call()
    assert isinstance(info.value, FullFlowError)
    assert isinstance(info.value, ValueError)
    assert str(info.value) == message
