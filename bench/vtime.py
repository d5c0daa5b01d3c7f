"""A virtual-time asyncio event loop.

The selector never blocks: an idle ``select(timeout)`` adds ``timeout``
to the loop clock instead of sleeping, so the loop jumps straight to
its next timer.  A deployment that does no real I/O
(``DeploymentBackend(processes=1)``: in-memory transport, delivery
wheel, ``drive_node`` sleeps) then runs CPU-bound and, because timers
fire in an order fixed by their due times and insertion order alone,
bit-deterministically.  Nothing under ``src/`` is changed.

``python bench/vtime.py`` runs the self-test.
"""

from __future__ import annotations

import asyncio
import selectors
import sys
from pathlib import Path


class _NonBlockingSelector(selectors.DefaultSelector):
    """Polls without waiting and reports the wait it was asked for."""

    def __init__(self, advance) -> None:
        super().__init__()
        self._advance = advance

    def select(self, timeout=None):
        events = super().select(0)
        if events or timeout == 0:
            return events
        if timeout is None:
            raise RuntimeError("virtual-time loop is idle with no timer: it would block forever")
        self._advance(timeout)
        return events


class VirtualTimeLoop(asyncio.SelectorEventLoop):
    """A selector event loop whose clock is advanced only by idle waits."""

    def __init__(self) -> None:
        self._virtual_now = 0.0
        #: Called with the new loop time after every clock advance.
        self.on_advance = None
        super().__init__(_NonBlockingSelector(self._advance))

    def time(self) -> float:
        return self._virtual_now

    def _advance(self, timeout: float) -> None:
        self._virtual_now += timeout
        if self.on_advance is not None:
            self.on_advance(self._virtual_now)


def run(coroutine, on_advance=None):
    """Run ``coroutine`` to completion on a fresh :class:`VirtualTimeLoop`."""

    def factory() -> VirtualTimeLoop:
        loop = VirtualTimeLoop()
        loop.on_advance = on_advance
        return loop

    with asyncio.Runner(loop_factory=factory) as runner:
        return runner.run(coroutine)


def _self_test() -> None:
    """One spec run twice decides identically; the clock reads the schedule."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from measures import decision_digest  # noqa: PLC0415 — needs the path set above
    from repro.engine.deploy_backend import DeploymentBackend  # noqa: PLC0415
    from repro.engine.spec import RunSpec  # noqa: PLC0415
    from repro.workloads.transactions import SubmissionRateWorkload  # noqa: PLC0415

    rounds, delta_s = 24, 0.04
    backend = DeploymentBackend(processes=1, delta_s=delta_s)
    results = []
    for _ in range(2):
        spec = RunSpec(
            n=6, rounds=rounds, eta=4, seed=7, transactions=SubmissionRateWorkload(3, seed=7)
        )
        results.append(run(backend.execute_async(spec)))
    digests = [decision_digest(result.trace) for result in results]
    assert digests[0] == digests[1], "two runs of one spec decided differently"
    assert results[0].trace.decisions, "the self-test deployment decided nothing"
    # The last node's last wait ends at its last receive phase.
    expected = (rounds - 1 + backend.receive_fraction) * 3 * delta_s
    for result in results:
        assert abs(result.wall_seconds - expected) < 1e-9, (result.wall_seconds, expected)
    print(f"vtime self-test ok: digest {digests[0][:16]}, virtual elapsed {expected:.3f} s")


if __name__ == "__main__":
    _self_test()
