"""The value types: equality, hashing, ordering, repr and immutability.

Each value is equal to another exactly when both have the same class and
the same fields after construction has normalized them (sorted vertices,
zero entries dropped).
"""

from fractions import Fraction
from itertools import product

import pytest

from fullflow.centrality import CentralityReport, PairTerm
from fullflow.flows import Flow
from fullflow.network import Network
from fullflow.oracle import InstanceSpec
from fullflow.paths import ArcDisjointSequence, Cycle, Path, path_of

HALF = Fraction(1, 2)

# (build, the class and fields it must have, a field to assign)
VALUES = [
    (lambda: Path(("y", "z")), ("Path", ("y", "z")), "vertices"),
    (lambda: path_of("y", "v", "z"), ("Path", ("y", "v", "z")), "vertices"),
    (lambda: Cycle(("a", "b", "a")), ("Cycle", ("a", "b", "a")), "vertices"),
    (lambda: Cycle(("b", "a", "b")), ("Cycle", ("b", "a", "b")), "vertices"),
    (lambda: ArcDisjointSequence((), "y", "z"), ("Seq", (), "y", "z"), "paths"),
    (
        lambda: ArcDisjointSequence((path_of("y", "z"),), "y", "z"),
        ("Seq", (("y", "z"),), "y", "z"),
        "sink",
    ),
    (lambda: Flow("y", "z", {("y", "z"): 1}), ("Flow", "y", "z", 1), "values"),
    (
        lambda: Flow("y", "z", {("y", "z"): 1, ("z", "y"): 0}),
        ("Flow", "y", "z", 1),
        "source",
    ),
    (lambda: Flow("y", "z", {("y", "z"): 2}), ("Flow", "y", "z", 2), "values"),
    (lambda: Network(("a", "b"), {("a", "b"): 1}), ("Network", "ab", 1), "vertices"),
    (
        lambda: Network(("b", "a"), {("a", "b"): 1, ("b", "a"): 0}),
        ("Network", "ab", 1),
        "capacities",
    ),
    (lambda: Network(("a", "b"), {("b", "a"): 1}), ("Network", "ba", 1), "vertices"),
    (lambda: InstanceSpec(3, 2, 0.5, 1), ("Spec", 3, 2, 0.5, 1), "seed"),
    (lambda: InstanceSpec(3, 2, 0.5, 2), ("Spec", 3, 2, 0.5, 2), "vertex_count"),
    (lambda: PairTerm("y", "z", 2, 1, 1), ("Term", "y", "z", 2, 1, 1), "forced_passage"),
    (lambda: PairTerm("y", "z", 2, 1, None), ("Term", "y", "z", 2, 1, None), "source"),
    (
        lambda: CentralityReport(frozenset("x"), HALF, HALF, None),
        ("Report", "x", HALF, HALF, None),
        "vitality",
    ),
    (
        lambda: CentralityReport(frozenset("x"), HALF, Fraction(1), None),
        ("Report", "x", HALF, 1, None),
        "group",
    ),
]
UNHASHABLE = (Flow, Network)


def test_values_equal_exactly_when_class_and_fields_match():
    for (build_a, key_a, _), (build_b, key_b, _) in product(VALUES, repeat=2):
        a, b = build_a(), build_b()
        assert (a == b) == (key_a == key_b), (a, b)
        assert (a != b) == (key_a != key_b), (a, b)


def test_equal_values_hash_equal():
    for build, _, _ in VALUES:
        a, b = build(), build()
        if isinstance(a, UNHASHABLE):
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b), a


def test_paths_order_by_their_vertices():
    paths = [path_of("y", "v", "z"), path_of("y", "z"), path_of("y", "u", "z")]
    assert [p.vertices for p in sorted(paths)] == sorted(p.vertices for p in paths)
    assert path_of("y", "u", "z") < path_of("y", "v", "z") <= path_of("y", "v", "z")
    assert path_of("y", "z") > path_of("y", "v", "z") >= path_of("y", "v", "z")


def test_flow_and_path_reprs():
    flow = Flow("y", "z", {("y", "v"): 1, ("v", "z"): 1, ("v", "x"): 0})
    assert repr(flow) == "Flow(source='y', sink='z', values={('y', 'v'): 1, ('v', 'z'): 1})"
    assert repr(path_of("y", "z")) == "Path(vertices=('y', 'z'))"


def test_fields_cannot_be_assigned():
    for build, _, field in VALUES:
        value = build()
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        assert getattr(value, field) is before
