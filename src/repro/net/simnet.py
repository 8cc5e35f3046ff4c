"""Deterministic in-process network simulator.

The implementation lives in :mod:`repro.net._simnet_impl`; this module is its
public import path.  Import :class:`Network`/:class:`Host`/:class:`Message`
from here.
"""

from repro.net._simnet_impl import (
    Address,
    Host,
    LinkFault,
    Message,
    Network,
    PortListener,
    TrafficStats,
)

__all__ = [
    "Address",
    "Message",
    "PortListener",
    "LinkFault",
    "TrafficStats",
    "Host",
    "Network",
]
