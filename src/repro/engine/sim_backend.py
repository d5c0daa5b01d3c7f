"""The deterministic round simulator as an execution backend: one
:meth:`~repro.sleepy.simulator.Simulation.run` call per round, each one
pass of the round step both substrates share (:mod:`repro.engine.round`)."""

from __future__ import annotations

import time

from repro.crypto.signatures import KeyRegistry
from repro.engine.backend import EngineResult, ExecutionBackend, base_meta
from repro.engine.registry import PROTOCOLS
from repro.engine.spec import RunSpec
from repro.sleepy.simulator import Simulation


class SimulationBackend(ExecutionBackend):
    """Executes a :class:`RunSpec` in the sleepy round model."""

    name = "simulator"

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
        factory = PROTOCOLS.factory(spec.protocol, eta=spec.eta, beta=spec.beta)
        registry = KeyRegistry(spec.n, run_seed=spec.seed)
        return Simulation(
            registry,
            spec.resolved_schedule(),
            spec.resolved_adversary(),
            spec.resolved_conditions(),
            factory,
            meta=base_meta(spec, backend=self.name),
            eta=PROTOCOLS.effective_eta(spec.protocol, spec.eta),
            arrivals=spec.arrivals,
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
        """Run ``spec.rounds`` rounds, one ``simulation.run(1)`` call each.

        :meth:`execute` calls it after :meth:`build`; code that steps a
        simulation itself calls the same pair, then reads
        ``simulation.trace``.
        """
        for _ in range(spec.rounds):
            simulation.run(1)
