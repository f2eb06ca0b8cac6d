"""Event-driven message-passing protocol substrate."""

from .dynamics import (
    ChangeScript,
    TopologyChange,
    fail_edge,
    fail_link,
    set_edge,
)
from .messages import HOSTILE, RELIABLE, Announcement, LinkConfig
from .node import CacheEntry, ProtocolNode
from .simulator import SimulationResult, Simulator
from .trace import Activation, MessageStats, TableChange, Trace

__all__ = [
    "Activation",
    "Announcement",
    "CacheEntry",
    "ChangeScript",
    "HOSTILE",
    "LinkConfig",
    "MessageStats",
    "ProtocolNode",
    "RELIABLE",
    "SimulationResult",
    "Simulator",
    "TableChange",
    "TopologyChange",
    "Trace",
    "fail_edge",
    "fail_link",
    "set_edge",
]
