import inspect
import itertools
import random
import re
from math import prod

import pytest

from fullflow import flows, oracle, quantities
from fullflow.errors import BudgetExceededError, InvalidSpecError
from fullflow.flows import _as_flow, flow_value, max_flow, validate_flow
from fullflow.network import ordered_pairs
from fullflow.oracle import InstanceSpec, brute_force_flows, cross_check, generate
from fullflow.quantities import _least_throughput, encode_groups

from helpers import (
    mutated,
    brute_force_min_throughput,
    cancel_one_cycle,
    oracle_max_flows,
    record_augment_calls,
    token_arcs,
)


def test_spec_validation():
    InstanceSpec(2, 0, 0.0, 0)
    InstanceSpec(6, 3, 1.0, 2**64 - 1)
    InstanceSpec(3, 2, 1, 0)
    with pytest.raises(InvalidSpecError):
        InstanceSpec(1, 2, 0.5, 0)
    with pytest.raises(InvalidSpecError):
        InstanceSpec(3, 4, 0.5, 0)
    with pytest.raises(InvalidSpecError):
        InstanceSpec(3, 2, 1.5, 0)
    with pytest.raises(InvalidSpecError):
        InstanceSpec(3, 2, 0.5, -1)


@pytest.mark.parametrize(
    "fields, message",
    [
        ((2.5, 2, 0.4, 1), "vertex_count 2.5 is not an integer"),
        ((3, 2.0, 0.4, 1.5), "max_capacity 2.0 is not an integer"),
        ((3, True, 0.4, 1), "max_capacity True is not an integer"),
        ((3, 2, "0.4", 1), "arc_probability '0.4' is not a number"),
        ((3, 2, False, 1), "arc_probability False is not a number"),
        ((3, 2, 0.4, 1.5), "seed 1.5 is not an integer"),
    ],
    ids=["float-count", "float-capacity", "bool-capacity", "str-probability",
         "bool-probability", "float-seed"],
)
def test_spec_rejects_non_numbers(fields, message):
    # a float count or seed would reach generate and fail on a slice index
    # or run silently, a bool would pass as 0 or 1, and a string fails to
    # compare; each is named by its field instead
    with pytest.raises(InvalidSpecError) as caught:
        InstanceSpec(*fields)
    assert str(caught.value) == message
    assert caught.value.field == message.split()[0]


def test_generate_degenerate_specs():
    empty = generate(InstanceSpec(2, 2, 0.0, 5))
    assert empty.capacities == {}
    full = generate(InstanceSpec(2, 1, 1.0, 5))
    assert full.capacities == {("a", "b"): 1, ("b", "a"): 1}


def test_generate_is_deterministic():
    spec = InstanceSpec(5, 3, 0.5, 12345)
    assert generate(spec) == generate(spec)
    other = InstanceSpec(5, 3, 0.5, 12346)
    assert generate(other) != generate(spec)


def test_brute_force_fig6(fig6):
    value, flows = oracle_max_flows(fig6, "y", "z")
    assert value == 1
    assert len(flows) == 1
    assert flows[0].values == {
        ("y", "x1"): 1, ("x1", "u"): 1, ("u", "x2"): 1, ("x2", "z"): 1,
    }


def test_brute_force_zero_capacity():
    from fullflow.network import build_network

    net = build_network(["a", "b"], [])
    value, flows = oracle_max_flows(net, "a", "b")
    assert value == 0
    assert [f.values for f in flows] == [{}]


def test_brute_force_keeps_arc_id_assignments():
    # an assignment is one value per arc id; every pair with no positive
    # flow shares the one list of circulations
    net = generate(InstanceSpec(4, 2, 0.4, 4))
    result = brute_force_flows(net)
    zero = [assignments for value, assignments in result.values() if value == 0]
    assert len(zero) == 4
    assert all(assignments is zero[0] for assignments in zero)
    for value, assignments in result.values():
        assert assignments
        assert all(len(a) == len(net.compiled.arcs) for a in assignments)


def test_brute_force_fig3(fig3):
    value, flows = oracle_max_flows(fig3, "y", "z")
    assert value == 2
    assert value == max_flow(fig3, "y", "z")[0]
    for f in flows:
        assert validate_flow(fig3, f) is None
        assert flow_value(f) == 2


def test_brute_force_budget(fig1):
    with pytest.raises(BudgetExceededError):
        brute_force_flows(fig1, assignment_budget=10)


def test_brute_force_min_throughput(fig6, fig1):
    assert brute_force_min_throughput(fig6, "y", "z", {"x1", "x2"}) == 2
    assert brute_force_min_throughput(fig6, "y", "z", set()) == 0
    assert brute_force_min_throughput(fig1, "y", "z", {"x"}) == 2


def test_cross_check_small_batch():
    batch = [
        InstanceSpec(vertex_count=2 + i % 4, max_capacity=2,
                     arc_probability=0.5, seed=100 + i)
        for i in range(12)
    ]
    report = cross_check(batch, assignment_budget=50_000)
    assert report.ok
    assert report.instances == 12
    assert report.pairs_checked > 0
    assert report.assertions > 0
    text = report.render()
    assert text.startswith("generator python-random-mersenne-twister\n")
    assert "violations 0" in text


def test_cross_check_reports_are_deterministic():
    batch = [InstanceSpec(4, 2, 0.5, 7)]
    first = cross_check(batch).render()
    second = cross_check(batch).render()
    assert first == second


def _unpruned_max_flows(net):
    # every ordered pair's maximum assignments among the raw product of arc
    # values, indexed by arc id, each checked by validate_flow
    arcs = token_arcs(net.compiled)
    ranges = [range(net.capacity(arc) + 1) for arc in arcs]
    assignments = list(itertools.product(*ranges))
    result = {}
    for y, z in ordered_pairs(net):
        flows = [(_as_flow(net.compiled, y, z, a), a) for a in assignments]
        valid = [(flow_value(f), a) for f, a in flows if validate_flow(net, f) is None]
        best = max(value for value, _ in valid)
        result[y, z] = best, [a for value, a in valid if value == best]
    return result


def _check_matches_unpruned_enumeration():
    rng = random.Random("unpruned")
    checked = 0
    while checked < 40:
        spec = InstanceSpec(rng.randint(2, 4), rng.randint(1, 2), 0.5,
                            rng.randrange(2**32))
        net = generate(spec)
        if prod(cap + 1 for cap in net.capacities.values()) > 3000:
            continue
        assert oracle.brute_force_flows(net) == _unpruned_max_flows(net)
        checked += 1


def test_brute_force_matches_unpruned_enumeration():
    # the pruned enumeration keeps exactly every pair's maximum flows of the
    # raw assignment product, in the product's order
    _check_matches_unpruned_enumeration()


def _cut_at_first_unbalanced_vertex():
    """brute_force_flows with the cut rule of a one-pair walk, which exempts
    no vertex once the walk serves every pair: a subtree is cut at the first
    settled vertex out of balance."""
    source = inspect.getsource(oracle.brute_force_flows)
    rule = source[source.index("            for v in settled:"):
                  source.index("            else:\n                rec(")]
    changed = source.replace(
        rule,
        "            for v in settled:\n"
        "                if balance[v]:\n"
        "                    break\n",
    )
    assert changed != source
    namespace = dict(vars(oracle))
    exec(changed, namespace)
    return namespace["brute_force_flows"]


def test_cutting_at_any_unbalanced_vertex_is_caught(monkeypatch):
    # negative control: that rule leaves only the circulations
    monkeypatch.setattr(oracle, "brute_force_flows", _cut_at_first_unbalanced_vertex())
    with pytest.raises(AssertionError):
        _check_matches_unpruned_enumeration()


PINNED_BATCH = [InstanceSpec(2 + i % 5, 2, 0.5, 300 + i) for i in range(10)]


def test_cross_check_render_pinned():
    # counts of a fixed batch that exercises both skip kinds; any check
    # dropped or added changes the assertion count
    report = cross_check(PINNED_BATCH, assignment_budget=5000, node_budget=200)
    assert report.render() == (
        "generator python-random-mersenne-twister\n"
        "instances 10\n"
        "pairs_checked 140\n"
        "assertions 2221\n"
        "oracle_skips 80\n"
        "enumeration_skips 6\n"
        "violations 0\n"
    )


def test_cross_check_solves_each_distinct_group_once(monkeypatch):
    # the pinned batch checks 1,260 groups over its 140 pairs; a sampled
    # group can repeat a singleton, the empty or the whole set, and only
    # the 1,138 distinct groups of each pair need a throughput
    calls = []

    def counted(*args):
        calls.extend(args[4])
        return _least_throughput(*args)

    monkeypatch.setattr(oracle, "_least_throughput", counted)
    report = cross_check(PINNED_BATCH, assignment_budget=5000, node_budget=200)
    assert report.ok
    assert len(calls) == 1138


def _check_cancellations(monkeypatch, least=None):
    # the min cut settles most throughputs of the pinned batch: of the
    # 1,138 distinct groups over its 140 pairs, 421 have flow out of their
    # interior, and 137 of those cancel cycles.  The min cut's search tree
    # is built at most once per pair.  ``least`` is built after the
    # counters are in place, as a mutant copies the module's names
    cancelled, trees = [], []

    def cancel(*args):
        cancelled.append(args)
        return flows._cancel_negative_cycles(*args)

    def tree(*args):
        trees.append(args)
        return flows._bfs_augmenting(*args)

    monkeypatch.setattr(quantities, "_cancel_negative_cycles", cancel)
    monkeypatch.setattr(quantities, "_bfs_augmenting", tree)
    least = quantities._least_throughput if least is None else least()

    def per_pair(*args):
        trees.clear()
        found = least(*args)
        assert len(trees) <= 1
        return found

    monkeypatch.setattr(oracle, "_least_throughput", per_pair)
    report = cross_check(PINNED_BATCH, assignment_budget=5000, node_budget=200)
    assert report.ok
    assert len(cancelled) == 137


def test_min_cut_settles_most_throughputs(monkeypatch):
    _check_cancellations(monkeypatch)


def test_min_cut_of_the_zero_flow_is_caught(monkeypatch):
    # negative control: all the source reaches at zero flow (the search
    # with the sink at the source) gives the bound 0, which is sound but
    # settles nothing, so all 421 groups with flow out of their interior
    # cancel, as without the bound
    def least():
        return mutated(
            quantities._least_throughput,
            "_bfs_augmenting(net, caps, flow, s, t)",
            "_bfs_augmenting(net, caps, [0] * len(flow), s, s)",
        )

    with pytest.raises(AssertionError):
        _check_cancellations(monkeypatch, least)


def test_skipped_cancelling_breaks_cross_check(monkeypatch):
    # negative control: throughputs read off the canonical flow, with no
    # cycle cancelled, disagree with the enumeration and the oracle.  On
    # this batch no throughput needs a second cancellation, so a canceller
    # that stops after one passes here; the next test catches that one
    monkeypatch.setattr(quantities, "_cancel_negative_cycles", lambda *args: None)
    report = cross_check(PINNED_BATCH, assignment_budget=5000, node_budget=200)
    assert len(report.violations) == 9
    assert all("throughput" in violation for violation in report.violations)


def test_cancelling_one_cycle_breaks_cross_check(monkeypatch):
    # negative control: the throughput of pair (b, d) through {c} needs two
    # cancellations.  As {c} is a singleton, the enumeration check sees
    # the wrong throughput also when the oracle is skipped
    batch = [InstanceSpec(6, 3, 0.5, 1)]
    assert cross_check(batch).ok
    monkeypatch.setattr(quantities, "_cancel_negative_cycles", cancel_one_cycle)
    for budget, violations in ((oracle.DEFAULT_ASSIGNMENT_BUDGET, 2), (0, 1)):
        report = cross_check(batch, assignment_budget=budget)
        assert len(report.violations) == violations
        assert all("pair (b,d)" in violation and "throughput" in violation
                   for violation in report.violations)


def test_cross_check_runs_one_oracle_per_instance(monkeypatch):
    # one walk over an instance's assignments serves all its pairs; the
    # walks that find the space over budget count too
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return brute_force_flows(*args, **kwargs)

    monkeypatch.setattr(oracle, "brute_force_flows", counted)
    report = cross_check(PINNED_BATCH, assignment_budget=5000, node_budget=200)
    assert report.ok
    assert len(calls) == len(PINNED_BATCH) == 10


def test_cross_check_encodes_the_groups_once_per_instance(monkeypatch):
    # one encoding of an instance's distinct groups serves all its pairs,
    # also the two that settle again once their search runs out of budget
    # (see the next tests); an encoding by quantities counts here too
    calls = []

    def counted(net, groups):
        calls.append(groups)
        return encode_groups(net, groups)

    monkeypatch.setattr(oracle, "encode_groups", counted)
    monkeypatch.setattr(quantities, "encode_groups", counted)
    monkeypatch.setattr(quantities, "_passage_at_drop", lambda *args: False)
    for budget in (200, 5):
        calls.clear()
        cross_check(PINNED_BATCH, assignment_budget=5000, node_budget=budget)
        assert len(calls) == len(PINNED_BATCH) == 10, budget


def test_cross_check_runs_one_canonical_flow_per_pair(monkeypatch):
    # settle_pair's flow serves the enumeration and the decomposition, also
    # on the 6 pairs whose enumeration runs out of budget
    calls = record_augment_calls(monkeypatch)
    report = cross_check(PINNED_BATCH, assignment_budget=5000, node_budget=200)
    assert report.ok
    assert report.enumeration_skips == 6
    assert sum(calls) == report.pairs_checked == 140


def test_cross_check_settles_again_when_the_search_runs_out(monkeypatch):
    # with the flow bounds of settle_pair off, the passage searches of two
    # pairs run out of budget; only those pairs settle once more, without
    # the search, and the report is the one the bounds give
    report = cross_check(PINNED_BATCH, assignment_budget=5000, node_budget=5)
    calls = record_augment_calls(monkeypatch)
    monkeypatch.setattr(quantities, "_passage_at_drop", lambda *args: False)
    again = cross_check(PINNED_BATCH, assignment_budget=5000, node_budget=5)
    assert again.render() == report.render()
    assert sum(calls) == again.pairs_checked + 2 == 142


def test_path_masks_without_the_source_are_caught(monkeypatch):
    # negative control: a path mask missing the source's bit misses every
    # group that holds the source, where the passage is the max flow.  The
    # enumeration and the passage search share the masks, so the mutant
    # replaces the search in both modules
    mutant = mutated(
        quantities._max_sequences,
        "sum(map(bits.__getitem__, cand), 1 << s)",
        "sum(map(bits.__getitem__, cand))",
    )
    monkeypatch.setattr(quantities, "_max_sequences", mutant)
    monkeypatch.setattr(oracle, "_max_sequences", mutant)
    report = cross_check(PINNED_BATCH, assignment_budget=5000, node_budget=200)
    assert len(report.violations) == 139
    assert all("enumeration" in violation for violation in report.violations)


def test_mutation_strings_must_occur_once():
    # a mutation that matches no line, or several, names the function and
    # the count instead of building a mutant
    for old, count in (("no such line", 0), ("value, arc_flow, settled", 2)):
        message = f"cross_check holds {old!r} {count} times, expected once"
        with pytest.raises(AssertionError, match=re.escape(message)):
            mutated(oracle.cross_check, old, "")


def test_oracle_throughput_counting_no_endpoint_is_caught():
    # negative control: an oracle flow of value 0 counts nothing at the
    # endpoints of a group that holds one, where the solver counts the value
    mutant = mutated(
        oracle.cross_check, "out[s] - sum(map(a.__getitem__, into_s))", "0"
    )
    report = mutant(PINNED_BATCH, assignment_budget=5000, node_budget=200)
    assert len(report.violations) == 166
    assert all("oracle throughput" in violation for violation in report.violations)
