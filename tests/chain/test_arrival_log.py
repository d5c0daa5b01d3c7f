"""One arrival log per chain: each process's mempool is a cursor over it.

The pools on one log must behave, op for op, as private per-process
pools would: the differential test drives both through the same random
sequences.
"""

from collections.abc import Set

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import transactions
from repro.chain.transactions import (
    ArrivalLog,
    Decided,
    Mempool,
    Transaction,
    admit_arrivals,
    is_valid_transaction,
)
from repro.engine.sim_backend import SimulationBackend
from repro.engine.spec import RunSpec
from repro.sleepy.schedule import TableSchedule
from repro.workloads.transactions import SubmissionRateWorkload

N = 4
TXS = [Transaction.create(0, nonce) for nonce in range(7)] + [
    Transaction(sender=0, nonce=99, payload=b"", checksum="forged")
]
IDS = [tx.tx_id for tx in TXS]


def _decided_ids(decided: Decided) -> frozenset[str]:
    depths, depth = decided
    return frozenset(tx_id for tx_id, at in depths.items() if at <= depth)


class _PrivatePool:
    """A process's own FIFO pool: the contract the cursors must keep."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.pending: dict[str, Transaction] = {}
        self.shed_count = 0
        self.admitted_count = 0

    def __len__(self) -> int:
        return len(self.pending)

    def add(self, tx: Transaction) -> bool:
        if not is_valid_transaction(tx) or tx.tx_id in self.pending:
            return False
        if len(self.pending) >= self.capacity:
            self.shed_count += 1
            return False
        self.pending[tx.tx_id] = tx
        self.admitted_count += 1
        return True

    def take(self, limit: int, exclude: Set[str], decided: Decided) -> tuple:
        excluded = exclude | _decided_ids(decided)
        eligible = (tx for tx_id, tx in self.pending.items() if tx_id not in excluded)
        return tuple(tx for _, tx in zip(range(limit), eligible))

    def mark_included(self, tx_ids: Set[str], decided: Decided) -> None:
        for tx_id in tx_ids | _decided_ids(decided):
            self.pending.pop(tx_id, None)

    def pending_ids(self) -> frozenset[str]:
        return frozenset(self.pending)


pids = st.integers(0, N - 1)
tx_ids = st.frozensets(st.sampled_from(IDS))
#: A delivered log as a depth on a decided index: ids at depth <= the second.
decided = st.tuples(st.dictionaries(st.sampled_from(IDS), st.integers(1, 4)), st.integers(0, 4))
operations = st.one_of(
    st.tuples(st.just("arrive"), st.lists(st.sampled_from(TXS), max_size=3), st.frozensets(pids)),
    st.tuples(st.just("add"), pids, st.sampled_from(TXS)),
    st.tuples(st.just("take"), pids, st.integers(0, 5), tx_ids, decided),
    st.tuples(st.just("mark"), pids, tx_ids, decided),
)


@pytest.mark.parametrize("dead_slack", [1, transactions._DEAD_SLACK], ids=["compacting", "default"])
@given(
    capacity=st.integers(1, 4),
    script=st.lists(operations, max_size=60),
)
@settings(max_examples=300, deadline=None)
def test_cursors_on_one_log_behave_as_private_pools(dead_slack, capacity, script):
    # With a slack of 1 the log compacts whenever half its entries are dead.
    transactions._DEAD_SLACK, default = dead_slack, transactions._DEAD_SLACK
    try:
        _drive(capacity, script)
    finally:
        transactions._DEAD_SLACK = default


def _drive(capacity, script):
    log = ArrivalLog()
    pools = [Mempool(capacity, log=log, pid=pid) for pid in range(N)]
    twins = [_PrivatePool(capacity) for _ in range(N)]
    for op in script:
        if op[0] == "arrive":
            _, txs, awake = op
            admit_arrivals(txs, awake, [pools[pid] if pid in awake else None for pid in range(N)])
            for tx in txs:
                for pid in sorted(awake):
                    twins[pid].add(tx)
        elif op[0] == "add":
            _, pid, tx = op
            assert pools[pid].add(tx) == twins[pid].add(tx)
        elif op[0] == "take":
            _, pid, limit, exclude, delivered = op
            assert pools[pid].take(limit, exclude, decided=delivered) == twins[pid].take(
                limit, exclude, delivered
            )
        else:
            _, pid, included, delivered = op
            pools[pid].mark_included(included, decided=delivered)
            twins[pid].mark_included(included, delivered)
        for pool, twin in zip(pools, twins):
            assert pool.pending_ids() == twin.pending_ids()
            assert pool.take(N * len(TXS)) == tuple(twin.pending.values())
            assert len(pool) == len(twin)
            assert (pool.admitted_count, pool.shed_count) == (twin.admitted_count, twin.shed_count)


def test_an_arrival_is_one_entry_held_by_its_audience_only():
    log = ArrivalLog()
    pools = [Mempool(log=log, pid=pid) for pid in range(3)]
    tx = TXS[0]
    admit_arrivals([tx], {0, 2}, [pools[0], None, pools[2]])
    assert len(log) == 1
    assert [pool.take(5) for pool in pools] == [(tx,), (), (tx,)]
    # Included for one holder, the entry stays held by the other.
    pools[0].mark_included({tx.tx_id})
    assert (len(log), len(pools[0]), len(pools[2])) == (1, 0, 1)
    pools[2].mark_included({tx.tx_id})
    assert len(log) == 0


def test_an_entry_removed_stays_removed_under_a_conflicting_delivered_set():
    log = ArrivalLog()
    pool = Mempool(log=log, pid=0)
    admit_arrivals(TXS[:2], {0}, [pool])
    pool.mark_included({IDS[0]})
    pool.mark_included({IDS[1]})  # a conflicting log without IDS[0]
    assert pool.pending_ids() == frozenset()
    assert pool.add(TXS[0])  # only a new admission brings it back
    assert pool.take(5) == (TXS[0],)


def test_an_audience_names_pools_of_the_log():
    log = ArrivalLog()
    pool = Mempool(log=log, pid=0)
    with pytest.raises(ValueError):
        pool.add(TXS[0], frozenset({0, 1}))
    with pytest.raises(ValueError):
        Mempool(log=log, pid=0)


def test_a_simulation_admits_each_arrival_once_for_the_awake_pools():
    table = {0: frozenset({0, 1, 2})}
    spec = RunSpec(
        n=4,
        rounds=2,
        schedule=TableSchedule(4, table, default=frozenset(range(4))),
        transactions={0: TXS[:2], 1: TXS[2:3]},
    )
    sim = SimulationBackend().build(spec)
    sim.run(2)
    pools = [process.mempool for process in sim.processes.values()]
    assert {pool.log for pool in pools} == {sim.chain.arrival_log}
    assert [pool.admitted_count for pool in pools] == [3, 3, 3, 1]
    # Asleep at round 0, pid 3 never holds round 0's arrivals.
    assert pools[3].pending_ids() == {IDS[2]}


def test_live_log_entries_stay_bounded_under_steady_arrivals():
    # Pid 4 holds what reached it before it fell asleep for good; every
    # other entry dies once the awake processes decide it.
    n, rounds = 5, 420
    table = {r: frozenset(range(n)) for r in range(50)}
    spec = RunSpec(
        n=n,
        rounds=rounds,
        schedule=TableSchedule(n, table, default=frozenset(range(n - 1))),
        transactions=SubmissionRateWorkload(rate_per_round=3, seed=7),
    )
    sim = SimulationBackend().build(spec)
    log = sim.chain.arrival_log
    stored = []
    for _ in range(rounds):
        sim.run(1)
        stored.append(len(log._entries))
    sleeper = sim.processes[n - 1].mempool
    assert sim.processes[0].mempool.admitted_count == 3 * rounds
    assert len(sleeper) > 0
    assert max(stored[100:]) <= 2 * (len(sleeper) + 12) + 64
    assert len(log) <= len(sleeper) + 12
