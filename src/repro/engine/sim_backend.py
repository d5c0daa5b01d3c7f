"""The deterministic round simulator as an execution backend."""

from __future__ import annotations

import time

from repro.crypto.signatures import KeyRegistry
from repro.engine.backend import (
    EngineResult,
    ExecutionBackend,
    base_meta,
    offer_transactions,
)
from repro.engine.registry import PROTOCOLS, ProtocolRegistry
from repro.engine.spec import RunSpec
from repro.sleepy.simulator import Simulation


class SimulationBackend(ExecutionBackend):
    """Executes a :class:`RunSpec` in the sleepy round model."""

    name = "simulator"

    def __init__(self, protocols: ProtocolRegistry = PROTOCOLS) -> None:
        self._protocols = protocols

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build(self, spec: RunSpec) -> Simulation:
        """Construct the :class:`Simulation` described by ``spec``.

        The simulation interns one :class:`~repro.chain.shared.
        SharedChain` per run and hands it to chain-capable process
        factories, so every receiver holds a visibility view over one
        canonical tree (the n≥1000 lane) instead of a private copy.
        """
        factory = self._protocols.factory(
            spec.protocol,
            eta=spec.eta,
            beta=spec.beta,
            record_telemetry=spec.record_telemetry,
        )
        registry = KeyRegistry(spec.n, run_seed=spec.seed)
        return Simulation(
            registry,
            spec.resolved_schedule(),
            spec.resolved_adversary(),
            spec.resolved_conditions(),
            factory,
            meta=base_meta(spec, self._protocols, backend=self.name),
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, spec: RunSpec) -> EngineResult:
        simulation = self.build(spec)
        started = time.perf_counter()
        self.drive(simulation, spec)
        return EngineResult(
            trace=simulation.trace,
            backend=self.name,
            wall_seconds=time.perf_counter() - started,
            messages_sent=simulation.bus.total_published,
            extras={"simulation": simulation},
        )

    @staticmethod
    def drive(simulation: Simulation, spec: RunSpec) -> None:
        """Run ``spec.rounds`` rounds, feeding the transaction workload.

        Also the engine behind :func:`repro.harness.run_simulation`, so
        pre-built simulations (tests poking at internals, benches
        running round by round) share the same arrival logic.
        """
        for r in range(spec.rounds):
            arrivals = spec.arrivals(r)
            if arrivals:
                awake = simulation.schedule.awake(r)
                for pid in sorted(awake):
                    offer_transactions(simulation.processes[pid], arrivals)
            simulation.run(1)
