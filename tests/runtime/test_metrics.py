"""Telemetry: hub counters/histograms, the one sample merge, HTTP scrape."""

import asyncio
import json
import urllib.error
import urllib.request

from repro.runtime.metrics import (
    Histogram,
    MetricsHub,
    MetricsServer,
    SourcedMetrics,
    merge_samples,
)

SECTIONS = {"counters", "histograms", "transport", "gossip", "mempool", "attack"}


def _sample(hub, sent=0, attack=None):
    """A shard sample around ``hub``, as ``ShardRuntime.sample`` shapes it."""
    return {
        **hub.snapshot(),
        "transport": {"sent": sent, "superseded": 1},
        "gossip": {"delivered": 2 * sent, "seen_entries": 3},
        "mempool": {"shed": 0, "admitted": sent, "occupancy": 1},
        "attack": attack,
    }


def test_hub_counters_histograms():
    hub = MetricsHub()
    hub.inc("sent")
    hub.inc("sent", 4)
    hub.observe("latency", 0.010)
    hub.observe("latency", 0.020)
    snapshot = hub.snapshot()
    assert set(snapshot) == {"counters", "histograms"}
    assert snapshot["counters"]["sent"] == 5
    latency = snapshot["histograms"]["latency"]
    assert latency["count"] == 2
    assert latency["min"] == 0.010 and latency["max"] == 0.020
    assert latency["sum"] == 0.030
    assert json.dumps(snapshot)  # JSON-safe by construction


def test_histogram_merge_is_exact():
    a, b = Histogram(), Histogram()
    for value in (0.001, 0.002, 0.5):
        a.observe(value)
    for value in (0.004, 8.0):
        b.observe(value)
    merged = Histogram()
    merged.merge_summary(a.summary())
    merged.merge_summary(b.summary())
    direct = Histogram()
    for value in (0.001, 0.002, 0.5, 0.004, 8.0):
        direct.observe(value)
    assert merged.summary() == direct.summary()


def test_merge_sums_counters_and_sections():
    worker = MetricsHub()
    worker.inc("decisions", 3)
    worker.observe("decision_latency_s", 0.5)
    merged = merge_samples([_sample(worker, sent=4), _sample(worker, sent=6)])
    assert set(merged) == SECTIONS
    assert merged["counters"] == {"decisions": 6}
    assert merged["histograms"]["decision_latency_s"]["count"] == 2
    assert merged["transport"] == {"sent": 10, "superseded": 2}
    assert merged["gossip"] == {"delivered": 20, "seen_entries": 6}
    assert merged["mempool"] == {"shed": 0, "admitted": 10, "occupancy": 2}
    assert merged["attack"] is None


def test_merge_adds_attack_rows_by_phase_and_takes_the_furthest_phase():
    """Two shards in the same phase are one phase, not the sum of two."""
    hub = MetricsHub()
    rows = [{"partitioned": 1, "dropped": 0}, {"partitioned": 2, "dropped": 1}]
    attack = _sample(hub, attack={"per_phase": rows, "phase": 1})
    behind = _sample(hub, attack={"per_phase": rows, "phase": 0})
    merged = merge_samples([attack, behind])["attack"]
    assert merged["per_phase"] == [
        {"partitioned": 2, "dropped": 0},
        {"partitioned": 4, "dropped": 2},
    ]
    assert merged["totals"] == {"partitioned": 6, "dropped": 2}
    assert merged["phase"] == 1


def test_sourced_metrics_replaces_per_source():
    sourced = SourcedMetrics()
    hub = MetricsHub()
    hub.inc("decisions", 3)
    sourced.push(0, _sample(hub, sent=1))
    hub.inc("decisions", 2)  # cumulative sample re-pushed
    sourced.push(0, _sample(hub, sent=2))
    merged = sourced.merged()
    assert merged["counters"]["decisions"] == 5  # replaced, not doubled
    assert merged["transport"]["sent"] == 2


def _serve(sourced, *paths):
    """Start a server over ``sourced.merged``, GET each path, stop it."""

    async def scenario():
        server = MetricsServer(sourced.merged)
        await server.start()
        loop = asyncio.get_running_loop()

        def scrape(path):
            url = f"http://127.0.0.1:{server.port}{path}"
            try:
                with urllib.request.urlopen(url, timeout=5) as r:
                    return r.status, json.loads(r.read().decode("utf-8"))
            except urllib.error.HTTPError as exc:
                return exc.code, None

        try:
            return server.url, [await loop.run_in_executor(None, scrape, p) for p in paths]
        finally:
            await server.stop()

    return asyncio.run(scenario())


def test_metrics_server_serves_the_merged_sample_over_http():
    sourced = SourcedMetrics()
    hub = MetricsHub()
    hub.inc("decisions", 9)
    sourced.push(0, _sample(hub))
    url, [(status, body), (_, root), (missing, _)] = _serve(sourced, "/metrics", "/", "/nope")
    assert url.endswith("/metrics")
    assert status == 200 and body["counters"]["decisions"] == 9
    assert root == body
    assert missing == 404


def test_metrics_server_answers_before_the_first_sample():
    """A scrape before any shard pushed is a 200 with empty sections."""
    _, [(status, body)] = _serve(SourcedMetrics(), "/metrics")
    assert status == 200
    assert set(body) == SECTIONS and body["attack"] is None
    assert all(body[section] == {} for section in SECTIONS - {"attack"})
