import random

from hypothesis import given
from hypothesis import strategies as st

import pytest

from fullflow.errors import InvalidInputError
from fullflow.flows import flow_value, validate_flow
from fullflow.paths import (
    BACKWARD,
    FORWARD,
    ArcDisjointSequence,
    cycle_of,
    is_arc_disjoint,
    passage_count,
    path_of,
)

from helpers import GeneralizedPath, candidate_paths, chi, induced_flow
from strategies import networks_with_endpoints


def seq(*paths):
    components = tuple(path_of(*p) for p in paths)
    return ArcDisjointSequence(components, components[0].source, components[0].sink)


def test_path_validation():
    with pytest.raises(ValueError):
        path_of("a")
    with pytest.raises(ValueError):
        path_of("a", "b", "a")
    assert str(path_of("y", "v", "x", "z")) == "y-v-x-z"


def test_cycle_validation():
    with pytest.raises(ValueError):
        cycle_of("a", "a")  # too short
    with pytest.raises(ValueError):
        cycle_of("a", "b", "c", "b")  # does not close
    with pytest.raises(ValueError):
        cycle_of("a", "b", "c", "b", "a")  # repeated interior vertex
    assert cycle_of("a", "b", "a").arcs == (("a", "b"), ("b", "a"))
    assert cycle_of("v", "x", "u", "v").arcs == (
        ("v", "x"), ("x", "u"), ("u", "v"),
    )


def test_cycle_rotation():
    assert cycle_of("v", "x", "u", "v").rotated_to_least() == cycle_of(
        "u", "v", "x", "u"
    )


def test_chi_on_path():
    assert chi(path_of("y", "v", "x", "z")) == {
        ("y", "v"): 1, ("v", "x"): 1, ("x", "z"): 1,
    }


def test_chi_on_cycle():
    assert chi(cycle_of("v", "x", "u", "v")) == {
        ("v", "x"): 1, ("x", "u"): 1, ("u", "v"): 1,
    }


def test_chi_on_generalized_path():
    gp = GeneralizedPath(("y", "a", "b", "z"), (FORWARD, BACKWARD, FORWARD))
    assert chi(gp) == {("y", "a"): 1, ("b", "a"): -1, ("b", "z"): 1}
    assert str(gp) == "y>a<b>z"


def test_generalized_path_validation():
    with pytest.raises(ValueError):
        GeneralizedPath(("a", "b", "a"), (FORWARD, FORWARD))
    with pytest.raises(ValueError):
        GeneralizedPath(("a", "b"), ())
    with pytest.raises(ValueError):
        GeneralizedPath(("a", "b"), (2,))


def test_is_arc_disjoint_fig1(fig1):
    good = [path_of("y", "v", "u", "x", "z"), path_of("y", "v", "x", "z"),
            path_of("y", "u", "z")]
    assert is_arc_disjoint(fig1, good)
    assert not is_arc_disjoint(
        fig1, [path_of("y", "v", "x", "z"), path_of("y", "v", "x", "z")]
    )
    assert is_arc_disjoint(fig1, [])


def test_is_arc_disjoint_mixed_endpoints(fig1):
    with pytest.raises(InvalidInputError):
        is_arc_disjoint(fig1, [path_of("y", "u", "z"), path_of("v", "x", "z")])


def test_passage_count_fig1():
    gamma1 = seq(("y", "v", "u", "x", "z"), ("y", "v", "x", "z"), ("y", "u", "z"))
    assert passage_count(gamma1, {"x"}) == 2
    gamma2 = seq(("y", "v", "u", "z"), ("y", "v", "x", "z"), ("y", "u", "x", "z"))
    assert passage_count(gamma2, {"x", "v"}) == 3
    assert passage_count(gamma1, set()) == 0


def test_induced_flow_fig1(fig1):
    s = seq(("y", "v", "u", "x", "z"), ("y", "v", "x", "z"), ("y", "u", "z"))
    f = induced_flow(fig1, s)
    assert f.values == {
        ("y", "v"): 2, ("v", "u"): 1, ("u", "x"): 1, ("v", "x"): 1,
        ("y", "u"): 1, ("u", "z"): 1, ("x", "z"): 2,
    }
    assert flow_value(f) == 3


def test_induced_flow_empty_and_single(fig1):
    empty = ArcDisjointSequence((), "y", "z")
    assert induced_flow(fig1, empty).values == {}
    single = seq(("y", "u", "z"))
    f = induced_flow(fig1, single)
    assert f.values == {("y", "u"): 1, ("u", "z"): 1}
    assert flow_value(f) == 1


def test_induced_flow_rejects_capacity_violation(fig1):
    doubled = ArcDisjointSequence(
        (path_of("y", "v", "x", "z"), path_of("y", "v", "x", "z")), "y", "z"
    )
    with pytest.raises(ValueError, match="v"):
        induced_flow(fig1, doubled)


@given(st.lists(st.sampled_from("abcdefgh"), min_size=2, max_size=8, unique=True))
def test_chi_path_total_is_length_minus_one(tokens):
    p = path_of(*tokens)
    fn = chi(p)
    assert all(v == 1 for v in fn.values())
    assert sum(fn.values()) == len(tokens) - 1


def _random_arc_disjoint_sequence(net, y, z, rng):
    # greedy sample under capacity bookkeeping; may be any length >= 0
    caps = dict(net.capacities)
    picked = []
    candidates = candidate_paths(net, y, z)
    rng.shuffle(candidates)
    for p in candidates:
        if all(caps[a] >= 1 for a in p.arcs) and rng.random() < 0.7:
            for a in p.arcs:
                caps[a] -= 1
            picked.append(p)
    return ArcDisjointSequence(tuple(picked), y, z)


@given(networks_with_endpoints(), st.integers(0, 2**32 - 1))
def test_induced_flow_is_a_valid_flow(net_yz, seed):
    net, y, z = net_yz
    s = _random_arc_disjoint_sequence(net, y, z, random.Random(seed))
    assert is_arc_disjoint(net, s.paths)
    f = induced_flow(net, s)
    assert validate_flow(net, f) is None
    assert flow_value(f) == len(s)
    for x in net.vertices:
        through = passage_count(s, {x})
        if x in (y, z):
            assert through == len(s)
        out_sum = sum(v for (t, _h), v in f.values.items() if t == x)
        if x not in (y, z):
            assert out_sum == through


@given(networks_with_endpoints(), st.integers(0, 2**32 - 1))
def test_equivalent_sequences_same_flow_and_counts(net_yz, seed):
    net, y, z = net_yz
    rng = random.Random(seed)
    s = _random_arc_disjoint_sequence(net, y, z, rng)
    shuffled = list(s.paths)
    rng.shuffle(shuffled)
    t = ArcDisjointSequence(tuple(shuffled), y, z)
    assert induced_flow(net, s) == induced_flow(net, t)
    for x in net.vertices:
        assert passage_count(s, {x}) == passage_count(t, {x})


@given(networks_with_endpoints(), st.integers(0, 2**32 - 1))
def test_subsequences_stay_arc_disjoint(net_yz, seed):
    net, y, z = net_yz
    rng = random.Random(seed)
    s = _random_arc_disjoint_sequence(net, y, z, rng)
    kept = tuple(p for p in s.paths if rng.random() < 0.5)
    assert is_arc_disjoint(net, kept)
