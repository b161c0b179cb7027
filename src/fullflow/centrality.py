"""Group centrality from flow quantities, accumulated as exact rationals.

Both measures sum one ratio per ordered vertex pair with positive maximum
flow value: full flow vitality uses the vitality drop of the group over
the pair's maximum flow value, full flow betweenness the forced passage
over the same denominator.  Sums are ``fractions.Fraction`` values, so
results are exact, order-independent and comparable with ``==``; pairs
whose maximum flow value is zero contribute nothing rather than 0/0.

Each pair ``(y, z)`` is settled once, for every group of the call: by the
rule below, or by :func:`fullflow.quantities.settle_pair`, whose docstring
states the rules that settle a term without the passage search.  ``exact``
only turns off the singleton shortcut.  The pair loop adds each term's
integer drop and passage into per-group sums keyed by the max-flow value,
the term's denominator; a :class:`PairTerm` is built only for ``explain``.
One zero-flow search per source y finds what y reaches in G and, in its
tree, each reached sink's first augmenting path; other sinks have no term.
A group X that holds y or z, or leaves no y->z path once the arcs touching
it are zeroed, has drop = passage = max flow.  Without ``explain``, for a
source y that at most one group X avoids, one more search finds what y
reaches in G - X; a sink only G reaches takes 1 for every group, no flow run.
That search and every pair read each group as its member ids and G - X
capacities, one encoding per call (:func:`fullflow.quantities.encode_groups`).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, NamedTuple, Sequence

from .errors import InvariantViolationError
from .flows import _bfs_augmenting
from .network import Network, VertexId, vertex_group
from .quantities import DEFAULT_NODE_BUDGET, encode_groups, render_group, settle_pair

_DECIMAL_PLACES = 6  # the decimal columns of a CLI record


class PairTerm(NamedTuple):
    """One pair's contribution, kept for --explain output."""

    source: VertexId
    sink: VertexId
    max_flow_total: int
    vitality_drop: int
    forced_passage: int | None


class CentralityReport(NamedTuple):
    """A group's exact vitality and betweenness; pair terms with ``explain``."""

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


def decimal_text(value: Fraction) -> str:
    """Exact fixed-point rendering to ``_DECIMAL_PLACES`` places,
    round-half-up, for nonnegative values."""
    scaled = value * 10**_DECIMAL_PLACES
    whole, rem = divmod(scaled.numerator, scaled.denominator)
    if 2 * rem >= scaled.denominator:
        whole += 1
    digits = f"{whole:0{_DECIMAL_PLACES + 1}d}"
    return f"{digits[:-_DECIMAL_PLACES]}.{digits[-_DECIMAL_PLACES:]}"


def _group_sums(
    network: Network,
    groups: Sequence[frozenset],
    *,
    passage: bool,
    exact: bool,
    node_budget: int,
    explain: bool = False,
) -> tuple[list[dict[int, int]], list[dict[int, int]], list[list[PairTerm]]]:
    """Each group's drops and passages over the flow-positive pairs, summed
    per max-flow value, and with ``explain`` its pair terms in canonical
    pair order (otherwise no terms are kept).

    ``passage``, ``exact`` and ``node_budget`` are passed to
    :func:`settle_pair`, with the source's tree and the call's encoding of
    the groups, once per pair that the module docstring's rules leave,
    ``explain`` or not; without ``passage`` the passage sums stay empty.
    """
    drops: list[dict[int, int]] = [{} for _ in groups]
    passages: list[dict[int, int]] = [{} for _ in groups]
    terms: list[list[PairTerm]] = [[] for _ in groups]
    if not groups or not (explain or any(groups)):
        # an empty group's drop and passage are 0 on every pair
        return drops, passages, terms
    net = network.compiled
    zeros = [0] * len(net.arcs)
    encoded = encode_groups(net, groups)
    for s, y in enumerate(net.vertices):
        # a search whose sink is its source keeps all it reaches in its tree
        tree = _bfs_augmenting(net, net.capacities, zeros, s, s)
        # the G - X capacities of the groups that avoid y
        avoiding = [caps for members, caps in encoded if s not in members]
        bypass = tree  # the sinks to settle: what y reaches in G - X, if the rule runs
        if not explain and len(avoiding) <= 1:
            bypass = avoiding and _bfs_augmenting(net, avoiding[0], zeros, s, s)
        for t, z in enumerate(net.vertices):
            if t == s or t not in tree:
                continue
            if t in bypass:
                total, _, settled = settle_pair(
                    net, s, t, encoded, passage=passage, exact=exact,
                    node_budget=node_budget, tree=tree,
                )
            else:
                total, settled = 1, [(1, 1)] * len(groups)  # drop = passage = max flow
            for (drop, found), by_drop, by_passage in zip(settled, drops, passages):
                by_drop[total] = by_drop.get(total, 0) + drop
                if passage:
                    by_passage[total] = by_passage.get(total, 0) + found
            if explain:
                for (drop, found), kept in zip(settled, terms):
                    kept.append(PairTerm(y, z, total, drop, found))
    return drops, passages, terms


def _ratio_sum(by_den: dict[int, int]) -> Fraction:
    """Exact sum of ``num / den`` over ``by_den``, as one Fraction over
    the least common denominator."""
    common = lcm(*by_den)
    return Fraction(sum(num * (common // den) for den, num in by_den.items()), common)


def full_flow_vitality(
    network: Network, members: Iterable[VertexId]
) -> Fraction:
    """Sum over flow-positive pairs of (vitality drop) / (max flow value)."""
    group = vertex_group(network, members)
    (drops,), _, _ = _group_sums(
        network, [group], passage=False, exact=False, node_budget=0
    )
    return _ratio_sum(drops)


def full_flow_betweenness(
    network: Network,
    members: Iterable[VertexId],
    *,
    exact: bool = False,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Fraction:
    """Sum over flow-positive pairs of (forced passage) / (max flow value):
    the betweenness :func:`centrality_report` gives, ``exact`` as there."""
    report = centrality_report(network, [members], exact=exact, node_budget=node_budget)
    return report[0].betweenness


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
    drops, passages, terms = _group_sums(
        network,
        validated,
        passage=True,
        exact=exact,
        node_budget=node_budget,
        explain=explain,
    )
    reports = []
    for group, by_drop, by_passage, kept in zip(validated, drops, passages, terms):
        vitality = _ratio_sum(by_drop)
        betweenness = _ratio_sum(by_passage)
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
                pair_terms=tuple(kept) if explain else None,
            )
        )
    return reports
