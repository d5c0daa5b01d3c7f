"""Live deployment telemetry: counters, gauges, histograms, HTTP scrape.

A :class:`MetricsHub` is the one mutable metrics surface of a running
deployment — workers increment counters, set gauges (queue depths,
mempool occupancy), and observe latency samples into fixed-bucket
histograms.  Snapshots are plain JSON-safe dicts, and — crucially for
the multi-process substrate — snapshots **merge**: each worker pushes
its local snapshot to the coordinator over the control socket, and the
coordinator folds them into one service-wide view.  Histograms use a
fixed geometric bucket ladder so merging is exact (bucket counts add),
unlike quantile sketches.

:class:`MetricsServer` exposes the hub over HTTP as JSON (a minimal
``GET``-only endpoint on asyncio streams — no framework, no thread):
point any scraper at ``http://host:port/metrics`` while the service
runs.  The ``repro soak`` CLI lane starts one next to the coordinator
and scrapes it itself at the end of the run, so a passing soak proves
the endpoint was reachable.

Snapshot schema (all keys optional until first touched)::

    {
      "counters":   {name: number},          # monotonic, merge = sum
      "gauges":     {name: number},          # last write wins per source
      "histograms": {name: {"count": int, "sum": float,
                            "min": float, "max": float,
                            "buckets": {upper_bound_repr: count}}},
    }
"""

from __future__ import annotations

import asyncio
import json
from collections.abc import Mapping


#: Cumulative wire-path counters of a socket fabric — the one list the
#: shard payload, the merged result and the ``wire_*`` gauges all read.
WIRE_COUNTER_ATTRS = (
    "frames_sent",
    "frames_received",
    "batches_sent",
    "batches_received",
    "bytes_sent",
    "bytes_received",
    "payload_encodes",
    "payload_reuses",
    "frames_rejected",
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
    # 0.1 ms .. ~1677 s in exact powers of two: merge-stable and wide
    # enough for decision latencies at any δ this repository runs.
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
    """The mutable metrics surface of one deployment (or one worker)."""

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the monotonic counter ``name``."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value`` (last write wins)."""
        self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into the histogram ``name``."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram()
        histogram.observe(value)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-safe snapshot of every metric."""
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {name: h.summary() for name, h in self._histograms.items()},
        }

    def merge_snapshot(self, snapshot: Mapping, source: str | None = None) -> None:
        """Fold a worker's :meth:`snapshot` into this hub.

        Counters add; gauges are namespaced per ``source`` (two workers'
        queue depths are different facts, not one) and also summed into
        the un-namespaced name; histogram buckets add exactly.

        Merging the *same* worker's snapshot twice would double-count —
        push deltas or replace per-source state upstream.  The
        deployment coordinator replaces: each worker pushes cumulative
        snapshots and the coordinator keeps only the latest per worker
        (:class:`SourcedMetrics` handles that bookkeeping).
        """
        for name, value in snapshot.get("counters", {}).items():
            self.inc(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            if source is not None:
                self._gauges[f"{source}.{name}"] = value
            self._gauges[name] = self._gauges.get(name, 0) + value if source else value
        for name, summary in snapshot.get("histograms", {}).items():
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
            histogram.merge_summary(summary)


class SourcedMetrics:
    """Latest-snapshot-per-source aggregation for the coordinator.

    Workers push *cumulative* snapshots; this keeps the latest per
    worker and materialises the merged service-wide view on demand, so
    re-pushes replace rather than double-count.
    """

    def __init__(self) -> None:
        self._by_source: dict[str, Mapping] = {}

    def push(self, source: str, snapshot: Mapping) -> None:
        """Replace ``source``'s latest cumulative snapshot."""
        self._by_source[source] = snapshot

    def merged(self, base: Mapping | None = None) -> dict:
        """One service-wide snapshot over all sources (plus ``base``)."""
        hub = MetricsHub()
        if base is not None:
            hub.merge_snapshot(base)
        for source, snapshot in sorted(self._by_source.items()):
            hub.merge_snapshot(snapshot, source=source)
        return hub.snapshot()


class MetricsServer:
    """A minimal asyncio HTTP endpoint serving one hub as JSON.

    ``GET /metrics`` (or ``/``) returns the hub's current snapshot; any
    other path is a 404.  ``provider`` overrides what gets served (the
    coordinator passes a :meth:`SourcedMetrics.merged` thunk).
    """

    def __init__(
        self,
        hub: MetricsHub,
        host: str = "127.0.0.1",
        port: int = 0,
        provider=None,
    ) -> None:
        self._hub = hub
        self._host = host
        self._requested_port = port
        self._provider = provider if provider is not None else hub.snapshot
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
