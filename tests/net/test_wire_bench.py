"""The wire-throughput harness at toy scale: exact counters."""

import pytest

from repro.net.socket_transport import supports_unix_sockets
from repro.net.wire_bench import WireBenchConfig, run_wire_benchmark

pytestmark = pytest.mark.skipif(
    not supports_unix_sockets(), reason="wire bench workers need AF_UNIX"
)


TINY = WireBenchConfig(
    n=8,
    processes=2,
    transactions=32,
    rate_per_round=8,
    payload_bytes=16,
    seed=3,
    budget_s=60.0,
)


def test_wire_bench_delivers_every_frame():
    report = run_wire_benchmark(TINY)
    totals = report["totals"]
    # 32 transactions, each delivered to the 7 non-origin pids; the
    # 4 pids sharing the origin's process receive in-process, the
    # remaining 4 over the socket.
    assert totals["submitted"] == 32
    assert totals["received"] == totals["expected"] == 32 * 7
    assert totals["sent"] == 32 * 7
    assert totals["frames_sent"] == totals["frames_received"] == 32 * 4
    assert totals["misrouted"] == 0
    assert totals["frames_rejected"] == 0
    assert report["wall_s"] > 0
    assert report["tx_per_s"] > 0
    assert totals["payload_encodes"] == 32
    assert totals["payload_reuses"] == 32 * 4 - 32
    assert 0 < totals["batches_sent"] == totals["batches_received"]
    for worker in report["workers"]:
        assert worker["received"] == worker["expected"]
        assert 0 < worker["timers_created"] < worker["sent"]
