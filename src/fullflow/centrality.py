"""Group centrality from flow quantities, accumulated as exact rationals.

Both measures sum one ratio per ordered vertex pair with positive maximum
flow value: full flow vitality uses the vitality drop of the group over
the pair's maximum flow value, full flow betweenness the forced passage
over the same denominator.  Sums are ``fractions.Fraction`` values, so
results are exact, order-independent and comparable with ``==``; pairs
whose maximum flow value is zero contribute nothing rather than 0/0.

Each pair ``(y, z)`` is settled once, for every group of the call, by
:func:`fullflow.quantities.settle_pair`, whose docstring states the rules
that settle a term without the passage search.  ``exact`` only turns off
the singleton shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InvariantViolationError
from .network import Network, VertexId, ordered_pairs, vertex_group
from .quantities import DEFAULT_NODE_BUDGET, render_group, settle_pair


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
    betweenness: Fraction
    pair_terms: tuple[PairTerm, ...] | None

    def record(self, sep: str = " ") -> str:
        """set vitality_num vitality_den betweenness_num betweenness_den
        vitality_dec betweenness_dec."""
        fields = [
            render_group(self.group),
            str(self.vitality.numerator),
            str(self.vitality.denominator),
            str(self.betweenness.numerator),
            str(self.betweenness.denominator),
            decimal_text(self.vitality),
            decimal_text(self.betweenness),
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
    exact: bool,
    node_budget: int,
) -> list[list[PairTerm]]:
    """Each group's flow-positive pair terms, in canonical pair order.

    ``passage``, ``exact`` and ``node_budget`` are passed to
    :func:`settle_pair`, once per pair.
    """
    terms: list[list[PairTerm]] = [[] for _ in groups]
    if not groups:
        return terms
    for y, z in ordered_pairs(network):
        total, _, settled = settle_pair(
            network, y, z, groups, passage=passage, exact=exact, node_budget=node_budget
        )
        if total == 0:
            continue
        for (drop, found), kept in zip(settled, terms):
            kept.append(PairTerm(y, z, total, drop, found))
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
        network, [group], passage=False, exact=False, node_budget=0
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
        network, [group], passage=True, exact=exact, node_budget=node_budget
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
        network, validated, passage=True, exact=exact, node_budget=node_budget
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
