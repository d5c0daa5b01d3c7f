"""Asyncio network substrate: transport with latency surges, gossip.

The paper's footnote 2 observes that in deployed blockchain networks,
messages entering the peer-to-peer layer are disseminated to everyone
even if the sender goes offline, and survive transient asynchrony.
This package makes that substrate concrete:

* :mod:`repro.net.transport` — point-to-point links with seeded
  latencies times a *surge factor* the shard's round loop sets each
  round, the physical realisation of an asynchronous period; delivery
  is pushed to one subscriber per pid, in slot order.
* :mod:`repro.net.gossip` — a random regular overlay flooding
  first-seen messages; delivery is at-least-once, exactly-once per
  content digest at each node, and a shard never forwards to one of
  its own nodes that already holds the digest.
* :mod:`repro.net.socket_transport` — the same transport surface over
  real TCP/UNIX-domain sockets, for multi-process deployments.
* :mod:`repro.net.proxy_transport` — the adversarial proxy layer that
  applies a scheduled attack script's partition/surge/drop effects in
  front of either transport, with per-phase audit counters.
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
