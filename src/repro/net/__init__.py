"""Asyncio network substrate: the fabric, the link draws, gossip.

The paper's footnote 2 observes that in deployed blockchain networks,
messages entering the peer-to-peer layer are disseminated to everyone
even if the sender goes offline, and survive transient asynchrony.
This package makes that substrate concrete:

* :mod:`repro.net.transport` — the fabric: the run's link draws, a
  pure function of the seed, the link and the message; what the flood
  asks of a fabric (where a message entered, announced to the other
  processes); and a point-to-point slot wheel with subscribers, which
  has no caller in ``src/`` and waits to be deleted.
* :mod:`repro.net.gossip` — a random regular overlay and the flood over
  it, computed: every shard settles when each pid first holds a
  message, in instant order, files its own nodes' arrivals and
  announces what enters at them; dedup is by content, once per node.
* :mod:`repro.net.socket_transport` — the announcements over real
  TCP/UNIX-domain sockets, for multi-process deployments.
* :mod:`repro.net.proxy_transport` — the adversarial proxy that gives
  each link its fate under a scheduled attack script's
  partition/surge/drop effects, with per-phase audit counters.
"""

from repro.net.gossip import GossipNetwork, GossipNode, regular_topology
from repro.net.proxy_transport import ProxyTransport
from repro.net.socket_transport import (
    SocketTransport,
    encode_frame,
    read_frame,
    supports_unix_sockets,
)
from repro.net.transport import LinkLatencyModel, SimTransport, Transport

__all__ = [
    "GossipNetwork",
    "GossipNode",
    "LinkLatencyModel",
    "ProxyTransport",
    "SimTransport",
    "SocketTransport",
    "Transport",
    "encode_frame",
    "read_frame",
    "regular_topology",
    "supports_unix_sockets",
]
