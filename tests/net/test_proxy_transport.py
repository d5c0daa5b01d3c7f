"""The adversarial proxy: ``fate`` per phase, exact audit counters, keyed coins."""

import pytest

from repro.attacks import AttackScript, drop, heal, partition, phase, surge, withhold
from repro.crypto.signatures import KeyRegistry
from repro.net.gossip import Arrivals, regular_topology
from repro.net.proxy_transport import ProxyTransport
from repro.net.transport import LinkLatencyModel
from repro.sleepy.messages import make_vote

from tests.net.conftest import StillClock

#: δ = 10 ms: rounds of 30 ms.
CLOCK_DELTA_S = 0.01
ROUND_S = 3 * CLOCK_DELTA_S
_REGISTRY = KeyRegistry(4, run_seed=0)


def _vote(i: int = 0):
    return make_vote(_REGISTRY, _REGISTRY.secret_key(i % 4), i // 4, None)


def _proxy(script, *, seed=0, n=4, topology=None, hosted=None):
    links = LinkLatencyModel(0.01, 0.0, seed=seed)
    links.enumerate(
        topology or {src: tuple(dst for dst in range(n) if dst != src) for src in range(n)}
    )
    return ProxyTransport(
        script.timeline(),
        clock=StillClock(CLOCK_DELTA_S),
        links=links,
        hosted=frozenset(range(n)) if hosted is None else hosted,
    )


def _fate(proxy, src, dst, t, message):
    """``proxy.fate`` of a frame whose message has tossed no coin yet."""
    return proxy.fate(src, dst, t, message, Arrivals())


def _in_round(r: int, offset: float = 0.25) -> float:
    """A loop instant inside round ``r``."""
    return (r + offset) * ROUND_S


SCRIPT = AttackScript(
    name="audit",
    phases=(
        phase(2),
        phase(2, partition((0, 1), (2, 3))),
        phase(2, heal(), drop(0, 1, 1.0)),
        phase(2, heal(), surge(5.0)),
    ),
)


def test_audit_counters_are_exact_per_phase():
    proxy = _proxy(SCRIPT)
    message = _vote()
    t = _in_round(0)
    # Phase 0: benign — every frame crosses when it is sent, unstretched.
    assert _fate(proxy, 0, 2, t, message) == (t, 1.0)
    # Phase 1 (rounds 2-3): the partition holds cross-group frames until
    # the phase that stops blocking them starts; in-group frames pass.
    t = _in_round(2)
    assert _fate(proxy, 0, 1, t, message) == (t, 1.0)
    assert _fate(proxy, 0, 2, t, message) == (pytest.approx(4 * ROUND_S), 1.0)
    assert _fate(proxy, 3, 1, _in_round(3), message) == (pytest.approx(4 * ROUND_S), 1.0)
    # Phase 2 (rounds 4-5): the p = 1 drop rule discards 0 → 1 only.
    t = _in_round(4)
    assert _fate(proxy, 0, 1, t, message) is None
    assert _fate(proxy, 1, 0, t, message) == (t, 1.0)
    # Phase 3 (rounds 6-7): the surge stretches the link's draw by its factor.
    t = _in_round(6)
    assert _fate(proxy, 2, 3, t, message) == (t, 5.0)
    # After the script: the trailing heal.
    t = _in_round(9)
    assert _fate(proxy, 2, 3, t, message) == (t, 1.0)

    assert proxy.audit_totals() == {"partitioned": 2, "dropped": 1, "delayed": 1}
    assert proxy.audit[1] == {"partitioned": 2, "dropped": 0, "delayed": 0}
    assert proxy.audit[2] == {"partitioned": 0, "dropped": 1, "delayed": 0}
    assert proxy.audit[3] == {"partitioned": 0, "dropped": 0, "delayed": 1}


def test_an_instant_on_a_round_edge_is_in_the_round_that_begins_there():
    proxy = _proxy(SCRIPT)
    message = _vote()
    # Round 2 begins the partition, round 4 ends it.
    assert _fate(proxy, 0, 2, 2 * ROUND_S, message)[0] == pytest.approx(4 * ROUND_S)
    assert _fate(proxy, 0, 2, 4 * ROUND_S, message)[0] == 4 * ROUND_S
    assert _fate(proxy, 0, 2, 2 * ROUND_S - 1e-4, message)[0] == 2 * ROUND_S - 1e-4


def test_a_frame_released_into_a_surged_phase_takes_that_phases_factor():
    """The factor is the phase's holding the instant the frame starts
    crossing: a partition's release into a surge on the link, or on
    other links only."""
    script = AttackScript(
        name="split-then-surge",
        phases=(
            phase(1),
            phase(1, partition((0, 1), (2, 3))),
            phase(1, heal(), surge(3.0, links=[(0, 2)])),
        ),
    )
    proxy = _proxy(script)
    released = pytest.approx(2 * ROUND_S)
    assert _fate(proxy, 0, 2, _in_round(1), _vote()) == (released, 3.0)
    assert _fate(proxy, 2, 0, _in_round(1), _vote()) == (released, 1.0)
    # The hold is the blocking phase's; the surged crossing (0 → 2 only)
    # the releasing phase's, as a released frame's drop is.
    assert proxy.audit[1] == {"partitioned": 2, "delayed": 0, "dropped": 0}
    assert proxy.audit[2] == {"partitioned": 0, "delayed": 1, "dropped": 0}


def test_a_frame_released_into_a_lossy_phase_is_tossed_by_its_coin():
    """A frame a partition releases into a drop phase is dropped as one
    sent in that phase is: the releasing phase tosses the link's coin,
    and its audit row counts the drop, the blocking phase's the hold."""
    script = AttackScript(
        name="split-into-loss",
        phases=(
            phase(1),
            phase(1, partition((0, 1), (2, 3))),
            phase(1, heal(), drop(0, 2, 1.0)),
        ),
    )
    proxy = _proxy(script)
    message = _vote()
    assert _fate(proxy, 0, 2, _in_round(1), message) is None
    assert _fate(proxy, 0, 2, _in_round(2), message) is None
    # Another held link crosses at the release: the drop is 0 → 2's only.
    assert _fate(proxy, 0, 3, _in_round(1), message) == (pytest.approx(2 * ROUND_S), 1.0)
    assert proxy.audit[1] == {"partitioned": 2, "delayed": 0, "dropped": 0}
    assert proxy.audit[2] == {"partitioned": 0, "delayed": 0, "dropped": 2}


def test_drop_coin_frequency_matches_p():
    """One coin per link per message, keyed by the run seed: over 3,000
    messages a p = 0.3 link drops within 3 σ of 30 %, a second seed
    tosses other coins, and the same seed the same ones."""
    script = AttackScript(name="lossy", phases=(phase(1), phase(1, drop(0, 1, 0.3))))
    messages = [make_vote(_REGISTRY, _REGISTRY.secret_key(i % 4), i, None) for i in range(3000)]

    def dropped(seed):
        proxy = _proxy(script, seed=seed)
        return [_fate(proxy, 0, 1, _in_round(1), m) is None for m in messages]

    first = dropped(7)
    share = sum(first) / len(first)
    sigma = (0.3 * 0.7 / len(first)) ** 0.5
    assert abs(share - 0.3) < 3 * sigma
    assert dropped(7) == first
    assert dropped(8) != first


def test_a_messages_coins_split_its_fan_out():
    """Coins are tossed per link, not per message: under a wildcard
    p = 0.5 drop the out-links of one message do not all share a fate."""
    n = 12
    topology = regular_topology(n, 4, seed=1)
    script = AttackScript(name="lossy", phases=(phase(1), phase(1, drop(None, None, 0.5))))
    proxy = _proxy(script, n=n, topology=topology)
    message = _vote()
    t = _in_round(1)
    fates = [_fate(proxy, src, dst, t, message) for src in range(n) for dst in topology[src]]
    dropped = sum(f is None for f in fates)
    assert 0 < dropped < len(fates)
    assert proxy.audit_totals()["dropped"] == dropped


def test_drop_wildcards_match_any_link():
    script = AttackScript(name="wild", phases=(phase(1), phase(1, drop(None, None, 1.0))))
    proxy = _proxy(script)
    t = _in_round(1)
    assert _fate(proxy, 0, 1, t, _vote()) is None
    assert _fate(proxy, 3, 2, t, _vote()) is None
    assert proxy.audit_totals()["dropped"] == 2


def test_a_blackout_holds_every_link_until_the_heal():
    script = AttackScript(name="dark", phases=(phase(1), phase(3, withhold()), phase(1, heal())))
    timeline = script.timeline()
    assert timeline.state_at(1).blocks(0, 1)
    proxy = _proxy(script)
    t = _in_round(2)
    for src, dst in ((0, 1), (1, 0), (2, 3)):
        assert _fate(proxy, src, dst, t, _vote()) == (pytest.approx(4 * ROUND_S), 1.0)
    assert proxy.audit_totals()["partitioned"] == 3


def test_audit_of_a_held_frame():
    proxy = _proxy(SCRIPT)
    assert _fate(proxy, 0, 2, _in_round(2), _vote())[0] == pytest.approx(4 * ROUND_S)
    assert proxy.audit_totals()["partitioned"] == 1


def test_a_shard_audits_only_the_links_its_own_nodes_send_on():
    """Every shard asks ``fate`` for every out-link of the flood, and the
    answer is the same whoever hosts the sender; only the shard hosting
    the sender counts it, so the shards' audits add up to one shard's."""
    proxy = _proxy(SCRIPT, hosted=frozenset({0, 1}))
    message, t = _vote(), _in_round(2)
    assert _fate(proxy, 0, 2, t, message) == _fate(proxy, 2, 0, t, message)
    assert _fate(proxy, 0, 2, t, message)[0] == pytest.approx(4 * ROUND_S)
    assert proxy.audit_totals()["partitioned"] == 2
    surged = _in_round(6)
    assert _fate(proxy, 3, 1, surged, message) == _fate(proxy, 1, 3, surged, message)
    assert proxy.audit_totals()["delayed"] == 1
