"""Production hardening: bounded memory, accountability, quorum margins."""

from repro.analysis import check_safety
from repro.attacks import AttackScript, apply_script, corrupt, equivocate, phase
from repro.engine.sim_backend import SimulationBackend
from repro.engine.spec import RunSpec


def test_proposal_store_is_memory_bounded():
    config = RunSpec(n=6, rounds=60, protocol="resilient", eta=3)
    sim = SimulationBackend().build(config)
    SimulationBackend.drive(sim, config)
    for process in sim.processes.values():
        # Views 0..30 happened; only a handful may remain buffered.
        assert len(process._proposals) <= 4


def test_vote_store_is_memory_bounded():
    config = RunSpec(n=6, rounds=60, protocol="resilient", eta=3)
    sim = SimulationBackend().build(config)
    SimulationBackend.drive(sim, config)
    for process in sim.processes.values():
        # ≤ one vote per process per unexpired round (η + 1 rounds).
        assert len(process._votes) <= 6 * (3 + 2)


def test_equivocating_voters_are_detected_by_all():
    config = apply_script(
        RunSpec(n=8, rounds=16, protocol="resilient", eta=8),
        AttackScript("equivocation", (phase(16, corrupt(7), equivocate()),)),
    )
    sim = SimulationBackend().build(config)
    SimulationBackend.drive(sim, config)
    for pid in range(7):
        detected = sim.processes[pid].detected_equivocators()
        assert 7 in detected
        # No false accusations: honest processes are never detected.
        assert detected <= {7}


def test_no_equivocators_detected_in_clean_runs():
    config = RunSpec(n=6, rounds=16, protocol="mmr")
    sim = SimulationBackend().build(config)
    SimulationBackend.drive(sim, config)
    assert all(not p.detected_equivocators() for p in sim.processes.values())


def test_telemetry_records_quorum_margins():
    config = RunSpec(n=9, rounds=20, protocol="resilient", eta=2)
    sim = SimulationBackend().build(config)
    SimulationBackend.drive(sim, config)
    assert check_safety(sim.trace).ok
    process = sim.processes[0]
    reads = [read for _, read in process.ga_reads]
    assert reads, "every GA a process reads is kept"
    for read in reads:
        assert 0 < read.m <= 9
        assert 0 <= read.grade1_count <= read.m
    # Unanimous fault-free rounds: margin = m − floor(2m/3) = 3 for m = 9.
    steady = [read for read in reads if read.m == 9]
    assert steady and all(
        read.margin(config.beta) == 3 and read.grade1_count == 9 for read in steady
    )
