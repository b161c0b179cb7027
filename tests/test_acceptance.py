"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is deterministic and finishes well under a minute.
"""

import random
from fractions import Fraction

import pytest

from fullflow.centrality import full_flow_betweenness, full_flow_vitality
from fullflow.figures import FIGURE_NAMES, fig2_stored_flow, figure_network
from fullflow.flows import (
    Decomposition,
    decompose,
    flow_value,
    max_flow,
    recompose,
    validate_flow,
)
from fullflow.network import ordered_pairs
from fullflow.oracle import InstanceSpec, cross_check, generate
from fullflow.paths import (
    ArcDisjointSequence,
    cycle_of,
    is_arc_disjoint,
    passage_count,
    path_of,
)
from fullflow.quantities import (
    enumerate_max_sequences,
    forced_passage,
    forced_throughput,
    vitality_drop,
)
from helpers import capacity_of_set, random_flow

BATCH_SIZE = 500
ASSIGNMENT_BUDGET = 50_000


@pytest.fixture(scope="module")
def batch_specs():
    # 500 seeded instances, sizes cycling 2..5, capacities <= 2
    return [
        InstanceSpec(
            vertex_count=2 + i % 4,
            max_capacity=2,
            arc_probability=0.4,
            seed=i,
        )
        for i in range(BATCH_SIZE)
    ]


@pytest.fixture(scope="module")
def batch_report(batch_specs):
    return cross_check(batch_specs, assignment_budget=ASSIGNMENT_BUDGET)


def test_criterion_01_fig1_values():
    fig1 = figure_network("fig1")
    value, _ = max_flow(fig1, "y", "z")
    assert value == 3
    classes = list(enumerate_max_sequences(fig1, "y", "z"))
    assert len(classes) == 2
    assert forced_passage(fig1, "y", "z", {"x"}, exact=True) == 2
    assert forced_passage(fig1, "y", "z", {"x", "v"}, exact=True) == 2
    print("criterion 1: PASS - fig1: max flow 3, 2 sequence classes, "
          "passage 2 for {x} and {x,v}")


def test_criterion_02_fig2_decompositions():
    fig2 = figure_network("fig2")
    stored = fig2_stored_flow()
    assert validate_flow(fig2, stored) is None
    assert flow_value(stored) == 2
    assert recompose(decompose(fig2, stored)) == stored
    with_cycle = Decomposition(
        ArcDisjointSequence(
            (path_of("y", "v", "x", "z"), path_of("y", "u", "z")), "y", "z"
        ),
        (cycle_of("v", "x", "u", "v"),),
    )
    cycle_free = Decomposition(
        ArcDisjointSequence(
            (path_of("y", "v", "x", "u", "z"), path_of("y", "u", "v", "x", "z")),
            "y", "z",
        ),
        (),
    )
    assert recompose(with_cycle) == stored
    assert recompose(cycle_free) == stored
    print("criterion 2: PASS - fig2: stored flow valid, value 2, round-trip "
          "and both known decompositions recompose exactly")


def test_criterion_03_fig3_fig4_drop():
    assert vitality_drop(figure_network("fig3"), "y", "z", {"x"}) == 0
    assert vitality_drop(figure_network("fig4"), "y", "z", {"x"}) == 1
    print("criterion 3: PASS - fig3 drop 0, fig4 drop 1 for {x}")


def test_criterion_04_fig5_strict_gap():
    fig5 = figure_network("fig5")
    group = {"x1", "x2"}
    value, _ = max_flow(fig5, "y", "z")
    drop = vitality_drop(fig5, "y", "z", group)
    passage = forced_passage(fig5, "y", "z", group, exact=True)
    assert value == 3
    assert drop == 1
    assert passage == 2
    assert passage > drop
    print("criterion 4: PASS - fig5: max flow 3, drop 1 < passage 2 for {x1,x2}")


def test_criterion_05_fig6_throughput_gap():
    fig6 = figure_network("fig6")
    group = {"x1", "x2"}
    passage = forced_passage(fig6, "y", "z", group, exact=True)
    throughput = forced_throughput(fig6, "y", "z", group)
    assert passage == 1
    assert throughput == 2
    print("criterion 5: PASS - fig6: passage 1 < throughput 2 for {x1,x2}")


def test_criterion_06_singleton_identity_batch(batch_report):
    # cross_check asserts, per pair and singleton, that the exact
    # (enumeration-minimum) passage equals the vitality drop and the
    # forced throughput
    assert batch_report.instances == BATCH_SIZE
    assert batch_report.enumeration_skips == 0
    assert batch_report.ok, batch_report.violations[:3]
    print(f"criterion 6: PASS - {BATCH_SIZE} networks, "
          f"{batch_report.pairs_checked} pairs, "
          f"{batch_report.assertions} assertions, zero violations")


def test_criterion_07_chain_monotonicity_degree_bound(batch_specs):
    violations = []
    pairs = 0
    for index, spec in enumerate(batch_specs):
        net = generate(spec)
        rng = random.Random(spec.seed + 999_331)
        vertices = list(net.vertices)
        small = frozenset(rng.sample(vertices, rng.randint(0, len(vertices))))
        rest = [v for v in vertices if v not in small]
        large = small | frozenset(rng.sample(rest, rng.randint(0, len(rest))))
        for y, z in ordered_pairs(net):
            pairs += 1
            classes = list(enumerate_max_sequences(net, y, z))
            value = len(classes[0])
            lam = {
                g: min(passage_count(s, g) for s in classes)
                for g in (small, large)
            }
            drop = {g: vitality_drop(net, y, z, g) for g in (small, large)}
            thr = {g: forced_throughput(net, y, z, g) for g in (small, large)}
            if not 0 <= drop[small] <= lam[small] <= min(thr[small], value):
                violations.append((index, y, z, "chain", small))
            if drop[small] > drop[large] or lam[small] > lam[large] \
                    or thr[small] > thr[large]:
                violations.append((index, y, z, "monotonicity", small, large))
            for x in vertices:
                if x in (y, z):
                    continue
                lam_x = min(passage_count(s, {x}) for s in classes)
                bound = min(
                    capacity_of_set(net, {x}),
                    capacity_of_set(net, set(vertices) - {x}),
                )
                if lam_x > bound:
                    violations.append((index, y, z, "degree-bound", x))
            if index % 50 == 0:
                # tie the public exact op to the enumeration minimum
                if forced_passage(net, y, z, small, exact=True) != lam[small]:
                    violations.append((index, y, z, "exact-op-mismatch", small))
    assert violations == []
    print(f"criterion 7: PASS - chain, monotonicity and degree bound over "
          f"{pairs} pairs, zero violations")


def test_criterion_08_decomposition_round_trip(batch_specs):
    checked = 0
    for spec in batch_specs:
        net = generate(spec)
        rng = random.Random(spec.seed + 777_017)
        y = rng.choice(net.vertices)
        z = rng.choice([v for v in net.vertices if v != y])
        f = random_flow(net, y, z, rng)
        assert validate_flow(net, f) is None
        dec = decompose(net, f)
        assert recompose(dec) == f
        assert len(dec.paths) == flow_value(f)
        assert is_arc_disjoint(net, dec.paths.paths)
        checked += 1
    assert checked == BATCH_SIZE
    print(f"criterion 8: PASS - {checked} random flows decompose and "
          f"recompose arc-exactly")


def test_criterion_09_solver_vs_oracle(batch_report):
    assert batch_report.ok, batch_report.violations[:3]
    in_budget = batch_report.pairs_checked - batch_report.oracle_skips
    assert in_budget > 4000  # the assignment oracle covered most pairs
    print(f"criterion 9: PASS - oracle agreement on {in_budget} in-budget "
          f"pairs ({batch_report.oracle_skips} skipped over "
          f"{ASSIGNMENT_BUDGET}-assignment budget)")


def test_criterion_10_centrality_exactness():
    for name in FIGURE_NAMES:
        net = figure_network(name)
        for x in net.vertices:
            vit = full_flow_vitality(net, {x})
            bet = full_flow_betweenness(net, {x}, exact=True)
            assert vit == bet, (name, x, vit, bet)
    fig6 = figure_network("fig6")
    assert full_flow_vitality(fig6, {"x1", "x2"}) == Fraction(10)
    assert full_flow_betweenness(fig6, {"x1", "x2"}, exact=True) == Fraction(10)
    print("criterion 10: PASS - singleton vitality equals betweenness on all "
          "figures; fig6 {x1,x2} totals 10 for both")
