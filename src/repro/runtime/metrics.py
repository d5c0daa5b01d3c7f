"""Live deployment telemetry: shard samples, their one merge, HTTP scrape.

A :class:`MetricsHub` holds what a shard's phase loop alone observes:
monotonic counters (``messages_published``, ``decisions``,
``nodes_finished``) and fixed-bucket histograms (``decision_latency_s``;
``phase_lateness_s``, how late the loop woke for each of a round's two
phases).  State that has an owner — the fabric's wire counters, the
gossip layer's dissemination counts, the mempools, an attack proxy's
audit — is read from that owner once, when the shard takes its
*sample* (:meth:`~repro.runtime.shard.ShardRuntime.sample`), never
mirrored into the hub.  A sample is the one thing a shard
reports: its live ``("metrics", wid, sample)`` frames and its
end-of-run payload carry the same shape, and :func:`merge_samples` is
the one function that folds samples, for the result's ``extras`` and
for the scrape alike.  Histograms use a fixed geometric bucket ladder
so merging is exact (bucket counts add), unlike quantile sketches.

:class:`MetricsServer` serves a provider's sample over HTTP as JSON (a
minimal ``GET``-only endpoint on asyncio streams — no framework, no
thread): point any scraper at ``http://host:port/metrics`` while the
service runs.  The ``repro soak`` CLI lane starts one over a
:class:`SourcedMetrics` and scrapes it itself at the end of the run, so
a passing soak proves the endpoint was reachable.

Sample schema (a merged sample has the same keys; every section is
empty, and ``attack`` ``None``, before the first sample arrives)::

    {
      "counters":   {name: number},             # merge = sum
      "histograms": {name: {"count": int, "sum": float,
                            "min": float, "max": float,
                            "p50": float, "p95": float,
                            "buckets": {upper_bound_repr: count}}},
      "transport":  {counter: int},             # transport_counters
      "gossip":     {counter: int},             # GossipNetwork.stats_totals
      "mempool":    {"shed": int, "admitted": int, "occupancy": int},
      "attack":     None | {"per_phase": [audit row, ...],
                            "phase": int},      # merged: + "totals"
    }
"""

from __future__ import annotations

import asyncio
import json
from collections.abc import Callable, Iterable, Mapping, Sequence


#: Cumulative wire-path counters of a fabric, read into every shard
#: sample's ``transport`` section.
#: ``superseded`` is kept by every fabric; the rest by a socket fabric.
#: ``frames_rejected`` is the sum of its three ``frames_rejected_*``
#: reasons (``torn``, ``refused``, ``oversized``); ``entries_refused``
#: counts announcements naming a pid their sender does not host.
WIRE_COUNTER_ATTRS = (
    "superseded",
    "frames_sent",
    "frames_received",
    "batches_sent",
    "batches_received",
    "bytes_sent",
    "bytes_received",
    "payload_encodes",
    "payload_reuses",
    "frames_rejected",
    "frames_rejected_torn",
    "frames_rejected_refused",
    "frames_rejected_oversized",
    "entries_refused",
)


def transport_counters(transport) -> dict[str, int]:
    """``sent``, ``misrouted``, ``handler_errors`` and every wire counter of one fabric.

    Zeros where a fabric has no wire: ``SimTransport`` moves nothing
    over sockets and keeps none of the wire counters, so every
    substrate reports the same keys and a reader never has to ask
    which fabric produced a result.
    """
    counters = {
        "sent": transport.sent_count,
        "misrouted": getattr(transport, "misrouted_count", 0),
        "handler_errors": transport.handler_errors,
    }
    for attr in WIRE_COUNTER_ATTRS:
        counters[attr] = getattr(transport, attr, 0)
    return counters


def _bucket_ladder() -> tuple[float, ...]:
    # 0.1 ms .. ~838.9 s (0.0001 · 2²³) in exact powers of two: merge-
    # stable, wide enough for decision latencies at any δ run here; the
    # first bucket (≤ 0.1 ms) holds every virtual-clock phase lateness.
    return tuple(0.0001 * (2**k) for k in range(24))


_BOUNDS = _bucket_ladder()


class Histogram:
    """Fixed-bucket histogram: exact merges, quantile estimates."""

    __slots__ = ("count", "sum", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None
        #: upper bound -> samples ≤ bound (non-cumulative, one bucket each).
        self.buckets: dict[float, int] = {}

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        for bound in _BOUNDS:
            if value <= bound:
                self.buckets[bound] = self.buckets.get(bound, 0) + 1
                return
        self.buckets[float("inf")] = self.buckets.get(float("inf"), 0) + 1

    def quantile(self, q: float) -> float | None:
        """Estimated ``q``-quantile (upper bucket bound), ``None`` if empty."""
        if self.count == 0:
            return None
        target = q * self.count
        seen = 0
        for bound in sorted(self.buckets):
            seen += self.buckets[bound]
            if seen >= target:
                return bound
        return self.max

    def summary(self) -> dict:
        """JSON-safe snapshot of this histogram."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "buckets": {repr(bound): count for bound, count in sorted(self.buckets.items())},
        }

    def merge_summary(self, summary: Mapping) -> None:
        """Fold another histogram's :meth:`summary` into this one."""
        self.count += int(summary.get("count", 0))
        self.sum += float(summary.get("sum", 0.0))
        for other, mine in (("min", "min"), ("max", "max")):
            value = summary.get(other)
            if value is None:
                continue
            current = getattr(self, mine)
            if current is None:
                setattr(self, mine, value)
            else:
                setattr(self, mine, min(current, value) if other == "min" else max(current, value))
        for bound_repr, count in summary.get("buckets", {}).items():
            bound = float(bound_repr)
            self.buckets[bound] = self.buckets.get(bound, 0) + int(count)


class MetricsHub:
    """What one shard's phase loop alone observes: counters and histograms."""

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    def inc(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the monotonic counter ``name``."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into the histogram ``name``."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram()
        histogram.observe(value)

    def snapshot(self) -> dict:
        """JSON-safe ``counters`` and ``histograms`` sections of a sample."""
        return {
            "counters": dict(self._counters),
            "histograms": {name: h.summary() for name, h in self._histograms.items()},
        }


def _summed(rows: Iterable[Mapping[str, int]]) -> dict[str, int]:
    total: dict[str, int] = {}
    for row in rows:
        for key, value in row.items():
            total[key] = total.get(key, 0) + value
    return total


def merge_samples(samples: Sequence[Mapping]) -> dict:
    """Fold shard samples (in worker order) into one of the same shape.

    Counters, ``transport``, ``gossip`` and ``mempool`` add key by key;
    histograms merge exactly; attack audit rows add phase by phase,
    with their ``totals`` beside them, and the furthest ``phase`` any
    shard has entered.  No samples merge to empty sections.
    """
    histograms: dict[str, Histogram] = {}
    for sample in samples:
        for name, summary in sample["histograms"].items():
            histograms.setdefault(name, Histogram()).merge_summary(summary)
    merged = {
        "counters": _summed(sample["counters"] for sample in samples),
        "histograms": {name: h.summary() for name, h in histograms.items()},
    }
    for section in ("transport", "gossip", "mempool"):
        merged[section] = _summed(sample[section] for sample in samples)
    attacks = [sample["attack"] for sample in samples if sample["attack"] is not None]
    merged["attack"] = None
    if attacks:
        per_phase = [_summed(rows) for rows in zip(*(attack["per_phase"] for attack in attacks))]
        merged["attack"] = {
            "totals": _summed(per_phase),
            "per_phase": per_phase,
            "phase": max(attack["phase"] for attack in attacks),
        }
    return merged


class SourcedMetrics:
    """The latest sample of each shard, merged on demand.

    Shards push *cumulative* samples; this keeps the latest per worker,
    so a re-push replaces rather than double-counts, and
    :meth:`merged` folds them with :func:`merge_samples`.
    """

    def __init__(self) -> None:
        self._by_source: dict[int, Mapping] = {}

    def push(self, source: int, sample: Mapping) -> None:
        """Replace worker ``source``'s latest cumulative sample."""
        self._by_source[source] = sample

    def merged(self) -> dict:
        """One service-wide sample over every worker's latest."""
        return merge_samples([self._by_source[source] for source in sorted(self._by_source)])


class MetricsServer:
    """A minimal asyncio HTTP endpoint serving ``provider()`` as JSON.

    ``GET /metrics`` (or ``/``) returns what ``provider`` returns now
    (``repro soak`` passes a :meth:`SourcedMetrics.merged`); any other
    path is a 404.
    """

    def __init__(
        self, provider: Callable[[], Mapping], host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self._host = host
        self._requested_port = port
        self._provider = provider
        self._server: asyncio.AbstractServer | None = None
        self.port: int | None = None

    @property
    def url(self) -> str:
        """The scrape URL (valid after :meth:`start`)."""
        if self.port is None:
            raise RuntimeError("metrics server not started")
        return f"http://{self._host}:{self.port}/metrics"

    async def start(self) -> None:
        """Bind and start serving (port 0 → ephemeral, read ``.port``)."""
        self._server = await asyncio.start_server(
            self._handle, host=self._host, port=self._requested_port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop serving and release the port."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            request_line = await reader.readline()
            while True:  # drain headers
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1").split()
            path = parts[1] if len(parts) >= 2 else "/"
            if parts and parts[0] != "GET":
                body, status = b'{"error": "method not allowed"}', "405 Method Not Allowed"
            elif path.split("?")[0] in ("/", "/metrics"):
                body = json.dumps(self._provider(), default=str).encode("utf-8")
                status = "200 OK"
            else:
                body, status = b'{"error": "not found"}', "404 Not Found"
            writer.write(
                (
                    f"HTTP/1.1 {status}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode("latin-1")
                + body
            )
            await writer.drain()
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
