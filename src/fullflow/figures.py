"""Embedded example networks and their documented check suite.

Six small fixtures (``fig1``..``fig6``) ship as package data.  Each comes
with hand-verifiable expectations: maximum flow values, sequence class
counts, pair quantities and a stored flow whose decompositions are known.
``figure_checks`` runs them all and reports per-check outcomes; the CLI
``examples`` subcommand renders that as a table.
"""

from __future__ import annotations

from typing import NamedTuple

from .centrality import full_flow_betweenness, full_flow_vitality
from .errors import InvalidInputError
from .flows import (
    Decomposition,
    Flow,
    decompose,
    flow_value,
    max_flow,
    recompose,
    validate_flow,
)
from .network import Network, parse_network
from .paths import ArcDisjointSequence, cycle_of, path_of
from .quantities import enumerate_max_sequences, forced_passage, forced_throughput, vitality_drop

FIGURE_NAMES = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6")


def _data_text(name: str) -> str:
    from importlib import resources  # slow to import; only the fixtures need it

    return resources.files("fullflow").joinpath(f"data/{name}").read_text("utf-8")


def figure_network(name: str) -> Network:
    """Load one of the embedded fixtures by name (``fig1``..``fig6``)."""
    if name not in FIGURE_NAMES:
        raise InvalidInputError(
            f"unknown figure {name!r}, expected one of {FIGURE_NAMES}"
        )
    return parse_network(_data_text(f"{name}.net"))


def figure_networks() -> dict[str, Network]:
    return {name: figure_network(name) for name in FIGURE_NAMES}


def fig2_stored_flow() -> Flow:
    """The value-2 flow that saturates every arc of fig2."""
    return Flow("y", "z", {
        ("u", "v"): 1, ("u", "z"): 1, ("v", "x"): 2, ("x", "u"): 1,
        ("x", "z"): 1, ("y", "u"): 1, ("y", "v"): 1,
    })


class FigureCheck(NamedTuple):
    """One documented fixture assertion: ``detail`` gives both values."""

    figure: str
    name: str
    passed: bool
    detail: str


def _expect(checks: list, figure: str, name: str, got, want):
    checks.append(
        FigureCheck(figure, name, got == want, f"expected {want!r}, got {got!r}")
    )


def figure_checks() -> list[FigureCheck]:
    """Run every documented fixture assertion; never raises on mismatch."""
    nets = figure_networks()
    checks: list[FigureCheck] = []

    fig1 = nets["fig1"]
    _expect(checks, "fig1", "max-flow-value", max_flow(fig1, "y", "z")[0], 3)
    classes = list(enumerate_max_sequences(fig1, "y", "z"))
    _expect(checks, "fig1", "max-sequence-classes", len(classes), 2)
    _expect(
        checks, "fig1", "forced-passage-x",
        forced_passage(fig1, "y", "z", {"x"}, exact=True), 2,
    )
    _expect(
        checks, "fig1", "forced-passage-x-v",
        forced_passage(fig1, "y", "z", {"x", "v"}, exact=True), 2,
    )

    fig2 = nets["fig2"]
    stored = fig2_stored_flow()
    _expect(checks, "fig2", "stored-flow-valid", validate_flow(fig2, stored), None)
    _expect(checks, "fig2", "stored-flow-value", flow_value(stored), 2)
    _expect(checks, "fig2", "stored-flow-maximum",
            flow_value(stored), max_flow(fig2, "y", "z")[0])
    _expect(
        checks, "fig2", "decomposition-round-trip",
        recompose(decompose(fig2, stored)), stored,
    )
    with_cycle = Decomposition(
        ArcDisjointSequence((path_of("y", "v", "x", "z"), path_of("y", "u", "z")), "y", "z"),
        (cycle_of("v", "x", "u", "v"),),
    )
    _expect(checks, "fig2", "known-cycle-decomposition", recompose(with_cycle), stored)
    cycle_free = Decomposition(
        ArcDisjointSequence(
            (path_of("y", "v", "x", "u", "z"), path_of("y", "u", "v", "x", "z")),
            "y", "z",
        ),
        (),
    )
    _expect(checks, "fig2", "known-cycle-free-decomposition",
            recompose(cycle_free), stored)

    _expect(checks, "fig3", "vitality-drop-x",
            vitality_drop(nets["fig3"], "y", "z", {"x"}), 0)
    _expect(checks, "fig4", "vitality-drop-x",
            vitality_drop(nets["fig4"], "y", "z", {"x"}), 1)

    fig5 = nets["fig5"]
    _expect(checks, "fig5", "max-flow-value", max_flow(fig5, "y", "z")[0], 3)
    _expect(checks, "fig5", "vitality-drop-x1-x2",
            vitality_drop(fig5, "y", "z", {"x1", "x2"}), 1)
    _expect(
        checks, "fig5", "forced-passage-x1-x2",
        forced_passage(fig5, "y", "z", {"x1", "x2"}, exact=True), 2,
    )

    fig6 = nets["fig6"]
    _expect(
        checks, "fig6", "forced-passage-x1-x2",
        forced_passage(fig6, "y", "z", {"x1", "x2"}, exact=True), 1,
    )
    _expect(checks, "fig6", "forced-throughput-x1-x2",
            forced_throughput(fig6, "y", "z", {"x1", "x2"}), 2)
    _expect(checks, "fig6", "vitality-x1-x2",
            full_flow_vitality(fig6, {"x1", "x2"}), 10)
    _expect(checks, "fig6", "betweenness-x1-x2",
            full_flow_betweenness(fig6, {"x1", "x2"}, exact=True), 10)

    return checks
