"""Host-speed reference and host-stall sentinel (standard library only).

This sandbox's CPU speed drifts: identical deterministic samples were
measured between 21 and 39 ms of CPU per round within two minutes, with
slow phases lasting tens of seconds, so a median over the samples of
one run does not remove it.  The slow-down is uniform across code: a
small fixed kernel timed between rounds slowed by the same factor as
the protocol did (raw spread of 24 identical samples 23 %, spread of
their ratio to the kernel 4.5 %).

Every CPU-bound time is therefore reported in *reference-speed* units:
the measured time multiplied by ``NOMINAL_KERNEL_S`` over the mean
measured kernel time of the same interval.  The kernel uses only
``hashlib`` and built-in containers and calls nothing under ``src/``,
so no change to the program can move it.
"""

from __future__ import annotations

import gc
import hashlib
import threading
import time

#: CPU seconds one :func:`reference_kernel` call takes on this sandbox
#: in its fast phase.  Only fixes the scale of the reported numbers.
NOMINAL_KERNEL_S = 0.00068

_KEYS = tuple(hashlib.sha256(i.to_bytes(4, "big")).hexdigest() for i in range(256))


def reference_kernel() -> int:
    """Encode and hash small records, index them, scan the index.

    The mix the protocol spends its time on — byte building, sha256,
    string-keyed dicts, small tuples — so that a host phase that slows
    one kind of work more than another slows the kernel about as much
    as the program.
    """
    table = {}
    for i in range(300):
        buffer = bytearray(b"T")
        for field in (i, "vote", _KEYS[i & 255], b"x" * 32):
            if isinstance(field, int):
                tag, payload = b"I", field.to_bytes(8, "big", signed=True)
            elif isinstance(field, str):
                tag, payload = b"S", field.encode()
            else:
                tag, payload = b"B", field
            buffer += tag + len(payload).to_bytes(4, "big") + payload
        digest = hashlib.sha256(buffer).hexdigest()
        table[digest] = (i, digest[:8])
    return sum(value[0] for value in table.values())


class SpeedGauge:
    """Times :func:`reference_kernel` calls interleaved with the work.

    ``clock`` is ``time.process_time`` in a single-threaded sample and
    ``time.thread_time`` inside the sentinel thread, so a descheduled
    kernel call is not counted as a slow one.
    """

    def __init__(self, clock=time.process_time) -> None:
        self._clock = clock
        self.ticks = 0
        self.cpu_s = 0.0
        self.wall_s = 0.0

    def tick(self) -> None:
        # The kernel allocates; a collection it happened to trigger would
        # be charged to it, and a full one costs as much as the sample's
        # heap is large (kernel times doubled on one sample in three).
        collecting = gc.isenabled()
        gc.disable()
        try:
            wall = time.perf_counter()
            cpu = self._clock()
            reference_kernel()
            self.cpu_s += self._clock() - cpu
            self.wall_s += time.perf_counter() - wall
            self.ticks += 1
        finally:
            if collecting:
                gc.enable()

    def factor(self) -> float:
        """Multiplier that turns a measured time into reference-speed time."""
        if not self.ticks or self.cpu_s <= 0.0:
            raise RuntimeError("the speed gauge never ticked")
        return NOMINAL_KERNEL_S * self.ticks / self.cpu_s


class StallSentinel:
    """A thread that sleeps 2 ms at a time and records how late it wakes.

    Used only by the real-time workload: a host stall of δ or more
    delivers a round late to some nodes and not to others, which is
    asynchrony the workload did not ask for (see :func:`is_tainted`).
    Every ``kernel_every`` wake-ups it also ticks a :class:`SpeedGauge`
    on its own thread clock, so the sample's CPU time can be reported at
    reference speed although the event loop is not ours to interleave.
    """

    SLEEP_S = 0.002

    def __init__(self, delta_s: float, kernel_every: int = 50) -> None:
        self._delta_s = delta_s
        self._kernel_every = kernel_every
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="stall-sentinel", daemon=True)
        self.gauge = SpeedGauge(clock=time.thread_time)
        self.stall_max_s = 0.0
        self.stalls_over_delta = 0
        #: Mean lateness of a wake-up: what a timer costs on this host now.
        self.lateness_mean_s = 0.0
        #: CPU seconds this thread used (sleep loop plus kernel calls),
        #: to be subtracted from the sample's own CPU time.
        self.thread_cpu_s = 0.0

    def __enter__(self) -> "StallSentinel":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        wakeups = 0
        late_s = 0.0
        while not self._stop.is_set():
            before = time.perf_counter()
            time.sleep(self.SLEEP_S)
            overshoot = time.perf_counter() - before - self.SLEEP_S
            if overshoot > self.stall_max_s:
                self.stall_max_s = overshoot
            if overshoot >= self._delta_s:
                self.stalls_over_delta += 1
            late_s += overshoot
            wakeups += 1
            if wakeups % self._kernel_every == 0:
                self.gauge.tick()
        self.lateness_mean_s = late_s / max(wakeups, 1)
        self.thread_cpu_s = time.thread_time()


def is_tainted(checks_ok: bool, stall_max_s: float, delta_s: float) -> bool:
    """The taint rule: a failed check *and* a host stall of at least δ.

    A tainted sample is discarded and run again.  A failed check with a
    clean sentinel is a failure of the program; a stall on a sample
    whose checks pass did no harm and the sample is kept.
    """
    return (not checks_ok) and stall_max_s >= delta_s
