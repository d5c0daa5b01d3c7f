"""The protocol registry: one place that knows how to build processes.

A protocol is a named :class:`ProtocolSpec` whose builder turns run
parameters into a :data:`~repro.sleepy.process.ProcessFactory`; every
backend, the CLI, the scenario constructors and the finality overlay
ask the same registry, so there is no ``if protocol == ...`` ladder
anywhere.  Both paper protocols are rows over one process class
(:class:`~repro.protocols.tob_base.SleepyTOBProcess`): ``"resilient"``
passes the run's η through, ``"mmr"`` pins η = 0.  A run parameterises
a protocol by β and η alone; block capacity is a constant and every
process keeps the GA reads it makes.

Registering a new protocol makes it available to the simulator, the
deployment runner, the CLI, and every scenario constructor at once::

    from repro.engine.registry import PROTOCOLS, ProtocolSpec

    PROTOCOLS.register(ProtocolSpec(
        name="my-variant",
        build=my_factory_builder,   # (beta=..., eta=...) -> ProcessFactory
        uses_eta=True,
        description="my experimental vote rule",
    ))
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from repro.protocols.graded_agreement import DEFAULT_BETA
from repro.protocols.tob_base import resilient_factory
from repro.sleepy.process import ProcessFactory


@dataclass(frozen=True)
class ProtocolSpec:
    """One registered protocol.

    ``build`` receives the keyword argument ``beta`` — plus ``eta``
    when ``uses_eta`` is set — and returns the process factory for one
    run.
    """

    name: str
    build: Callable[..., ProcessFactory]
    uses_eta: bool = False
    description: str = ""


class ProtocolRegistry:
    """Named protocol constructors shared by every execution backend."""

    def __init__(self) -> None:
        self._specs: dict[str, ProtocolSpec] = {}

    def register(self, spec: ProtocolSpec, replace: bool = False) -> ProtocolSpec:
        """Add ``spec``; refuses silent redefinition unless ``replace``."""
        if not replace and spec.name in self._specs:
            raise ValueError(f"protocol {spec.name!r} is already registered")
        self._specs[spec.name] = spec
        return spec

    def get(self, name: str) -> ProtocolSpec:
        try:
            return self._specs[name]
        except KeyError:
            known = ", ".join(repr(n) for n in self.names())
            raise ValueError(f"unknown protocol {name!r} (use one of {known})") from None

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def names(self) -> tuple[str, ...]:
        """Registered protocol names, in registration order."""
        return tuple(self._specs)

    def factory(self, name: str, eta: int = 0, beta: Fraction = DEFAULT_BETA) -> ProcessFactory:
        """The process factory for protocol ``name`` with these parameters."""
        spec = self.get(name)
        kwargs: dict = {"beta": beta}
        if spec.uses_eta:
            kwargs["eta"] = eta
        return spec.build(**kwargs)

    def effective_eta(self, name: str, eta: int) -> int:
        """``eta`` if the protocol uses one, else 0 (for trace metadata)."""
        return eta if self.get(name).uses_eta else 0


#: The default registry every backend and the CLI consult.
PROTOCOLS = ProtocolRegistry()

PROTOCOLS.register(
    ProtocolSpec(
        name="mmr",
        build=partial(resilient_factory, 0),  # picklable, unlike a lambda
        uses_eta=False,
        description="original Malkhi–Momose–Ren TOB (current-round votes only)",
    )
)
PROTOCOLS.register(
    ProtocolSpec(
        name="resilient",
        build=resilient_factory,
        uses_eta=True,
        description="η-expiration asynchrony-resilient variant (latest unexpired votes)",
    )
)
