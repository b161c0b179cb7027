"""Flow-based pair quantities and group centrality on capacitated digraphs.

The package exports the names of the README quick start and the main
entry points; everything else is public in its module (``fullflow.flows``,
``fullflow.network``, ``fullflow.quantities``, ...).
"""

from .centrality import centrality_report, full_flow_betweenness, full_flow_vitality
from .errors import BudgetExceededError, FullFlowError, InvariantViolationError
from .flows import decompose, max_flow
from .network import build_network, parse_network
from .oracle import InstanceSpec, cross_check
from .quantities import pair_report

__all__ = [
    "BudgetExceededError",
    "FullFlowError",
    "InstanceSpec",
    "InvariantViolationError",
    "build_network",
    "centrality_report",
    "cross_check",
    "decompose",
    "full_flow_betweenness",
    "full_flow_vitality",
    "max_flow",
    "parse_network",
    "pair_report",
]
