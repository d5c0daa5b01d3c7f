"""Production hardening: bounded memory, accountability, telemetry."""

from repro.analysis import check_safety
from repro.attacks import AttackScript, apply_script, corrupt, equivocate, phase
from repro.harness import TOBRunConfig, build_simulation, run_simulation, run_tob


def test_proposal_store_is_memory_bounded():
    config = TOBRunConfig(n=6, rounds=60, protocol="resilient", eta=3)
    sim = build_simulation(config)
    run_simulation(sim, config)
    for process in sim.processes.values():
        # Views 0..30 happened; only a handful may remain buffered.
        assert len(process._proposals) <= 4


def test_vote_store_is_memory_bounded():
    config = TOBRunConfig(n=6, rounds=60, protocol="resilient", eta=3)
    sim = build_simulation(config)
    run_simulation(sim, config)
    for process in sim.processes.values():
        # ≤ one vote per process per unexpired round (η + 1 rounds).
        assert len(process._votes) <= 6 * (3 + 2)


def test_equivocating_voters_are_detected_by_all():
    config = apply_script(
        TOBRunConfig(n=8, rounds=16, protocol="resilient", eta=8),
        AttackScript("equivocation", (phase(16, corrupt(7), equivocate()),)),
    )
    sim = build_simulation(config)
    run_simulation(sim, config)
    for pid in range(7):
        detected = sim.processes[pid].detected_equivocators()
        assert 7 in detected
        # No false accusations: honest processes are never detected.
        assert detected <= {7}


def test_no_equivocators_detected_in_clean_runs():
    config = TOBRunConfig(n=6, rounds=16, protocol="mmr")
    sim = build_simulation(config)
    run_simulation(sim, config)
    assert all(not p.detected_equivocators() for p in sim.processes.values())


def test_telemetry_records_quorum_margins():
    config = TOBRunConfig(n=9, rounds=20, protocol="resilient", eta=2, record_telemetry=True)
    sim = build_simulation(config)
    trace = run_simulation(sim, config)
    assert check_safety(trace).ok
    process = sim.processes[0]
    assert process.telemetry, "telemetry must be collected when enabled"
    for sample in process.telemetry:
        assert 0 < sample.m <= 9
        assert 0 <= sample.best_count <= sample.m
    # Unanimous fault-free rounds: margin = m − floor(2m/3) = 3 for m = 9.
    steady = [s for s in process.telemetry if s.m == 9]
    assert steady and all(s.margin == 3 and s.best_count == 9 for s in steady)


def test_telemetry_off_by_default():
    trace = run_tob(TOBRunConfig(n=4, rounds=8, protocol="mmr"))
    assert check_safety(trace).ok
    sim = build_simulation(TOBRunConfig(n=4, rounds=8, protocol="mmr"))
    assert sim.processes[0].telemetry == []
