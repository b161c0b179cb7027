"""Group centrality from flow quantities, accumulated as exact rationals.

Both measures sum one ratio per ordered vertex pair with positive maximum
flow value: full flow vitality uses the vitality drop of the group over
the pair's maximum flow value, full flow betweenness the forced passage
over the same denominator.  Sums are ``fractions.Fraction`` values, so
results are exact, order-independent and comparable with ``==``; pairs
whose maximum flow value is zero contribute nothing rather than 0/0.

Each pair ``(y, z)`` gets one canonical maximum flow ``f``, shared by every
group of the call.  The chain ``0 <= drop <= passage <= min(throughput,
max_flow)`` then settles each term of a group X by the first rule that
applies:

1. ``max_flow == 0``: the pair contributes nothing.
2. ``y`` or ``z`` is in X: every path meets X, so drop = passage =
   max_flow.
3. ``f`` sends nothing through X (``flow_through(f, X) == 0``): drop =
   passage = 0, since passage <= throughput <= ``flow_through(f, X)``.
4. Otherwise the drop comes from one more max flow that never enters X.
   If it equals ``flow_through(f, X)``, the passage is squeezed to the
   same value.  If not, a singleton takes the shortcut passage = drop
   (unless ``exact``), and anything else runs the passage search.

The rules are proofs, so they apply with or without ``exact``, which only
turns off the singleton shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import BudgetExceededError, InvariantViolationError
from .flows import max_flow, max_flow_value
from .network import Network, VertexId, ordered_pairs, vertex_group
from .quantities import DEFAULT_NODE_BUDGET, _min_passage, render_group


@dataclass(frozen=True)
class PairTerm:
    """One pair's contribution, kept for --explain output."""

    source: VertexId
    sink: VertexId
    max_flow_total: int
    vitality_drop: int
    forced_passage: int | None


@dataclass(frozen=True)
class CentralityReport:
    group: frozenset
    vitality: Fraction
    betweenness: Fraction | None
    pair_terms: tuple[PairTerm, ...] | None

    def record(self, sep: str = " ") -> str:
        """set vitality_num vitality_den betweenness_num betweenness_den
        vitality_dec betweenness_dec."""
        bet = self.betweenness
        fields = [
            render_group(self.group),
            str(self.vitality.numerator),
            str(self.vitality.denominator),
            str(bet.numerator) if bet is not None else "-",
            str(bet.denominator) if bet is not None else "-",
            decimal_text(self.vitality),
            decimal_text(bet) if bet is not None else "-",
        ]
        return sep.join(fields)


def decimal_text(value: Fraction, places: int = 6) -> str:
    """Exact fixed-point rendering, round-half-up, for nonnegative values."""
    scaled = value * 10**places
    whole, rem = divmod(scaled.numerator, scaled.denominator)
    if 2 * rem >= scaled.denominator:
        whole += 1
    digits = f"{whole:0{places + 1}d}"
    return f"{digits[:-places]}.{digits[-places:]}"


def _group_terms(
    network: Network,
    groups: Sequence[frozenset],
    *,
    passage: bool,
    shortcut: bool,
    node_budget: int,
) -> list[list[PairTerm]]:
    """Each group's flow-positive pair terms, in canonical pair order.

    Every term is settled by the first rule of the module docstring that
    applies, all from one canonical max flow per pair.  ``passage`` asks for the forced passage as well as the drop;
    ``shortcut`` allows passage = drop for singletons.  Budget errors of
    the passage search name the pair and the group.
    """
    terms: list[list[PairTerm]] = [[] for _ in groups]
    if not groups:
        return terms
    for y, z in ordered_pairs(network):
        total, flow = max_flow(network, y, z)
        if total == 0:
            continue
        outflow = dict.fromkeys(network.vertices, 0)
        for (tail, _head), val in flow.values.items():
            outflow[tail] += val
        for group, kept in zip(groups, terms):
            if y in group or z in group:
                drop = settled = total
            else:
                # flow_through(flow, group), as no endpoint is in the group
                through = sum(outflow[x] for x in group)
                if through == 0:
                    drop = settled = 0
                else:
                    drop = total - max_flow_value(network, y, z, group)
                    settled = None
                    if drop == through or (shortcut and len(group) <= 1):
                        settled = drop
            if passage and settled is None:
                try:
                    settled, _ = _min_passage(
                        network, y, z, group, node_budget, total, drop
                    )
                except BudgetExceededError as exc:
                    raise BudgetExceededError(
                        f"{exc.reason} at pair ({y}, {z}) "
                        f"group {render_group(group)}",
                        partial=exc.partial,
                        nodes=exc.nodes,
                    ) from exc
            kept.append(PairTerm(y, z, total, drop, settled if passage else None))
    return terms


def _ratio_sum(ratios: Iterable[tuple[int, int]]) -> Fraction:
    """Exact sum of ``num / den``: integer numerators are added per
    denominator first, then one Fraction is built per distinct denominator."""
    by_den: dict[int, int] = {}
    for num, den in ratios:
        by_den[den] = by_den.get(den, 0) + num
    return sum((Fraction(num, den) for den, num in by_den.items()), Fraction(0))


def full_flow_vitality(
    network: Network, members: Iterable[VertexId]
) -> Fraction:
    """Sum over flow-positive pairs of (vitality drop) / (max flow value)."""
    group = vertex_group(network, members)
    (terms,) = _group_terms(
        network, [group], passage=False, shortcut=True, node_budget=0
    )
    return _ratio_sum((t.vitality_drop, t.max_flow_total) for t in terms)


def full_flow_betweenness(
    network: Network,
    members: Iterable[VertexId],
    *,
    exact: bool = False,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Fraction:
    """Sum over flow-positive pairs of (forced passage) / (max flow value).

    ``exact`` as in :func:`centrality_report`.
    """
    group = vertex_group(network, members)
    (terms,) = _group_terms(
        network,
        [group],
        passage=True,
        shortcut=not exact,
        node_budget=node_budget,
    )
    return _ratio_sum((t.forced_passage, t.max_flow_total) for t in terms)


def centrality_report(
    network: Network,
    groups: Sequence[Iterable[VertexId]],
    *,
    exact: bool = False,
    explain: bool = False,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[CentralityReport]:
    """One report per group, in the given order.

    ``exact`` turns off the singleton shortcut, so every singleton term
    that no rule settles runs the passage search.
    """
    validated = [vertex_group(network, g) for g in groups]
    all_terms = _group_terms(
        network,
        validated,
        passage=True,
        shortcut=not exact,
        node_budget=node_budget,
    )
    reports = []
    for group, terms in zip(validated, all_terms):
        kept = tuple(terms)
        vitality = _ratio_sum((t.vitality_drop, t.max_flow_total) for t in kept)
        betweenness = _ratio_sum((t.forced_passage, t.max_flow_total) for t in kept)
        if vitality > betweenness:
            raise InvariantViolationError(
                f"vitality {vitality} exceeds betweenness {betweenness} "
                f"for group {render_group(group)}"
            )
        reports.append(
            CentralityReport(
                group=group,
                vitality=vitality,
                betweenness=betweenness,
                pair_terms=kept if explain else None,
            )
        )
    return reports
