"""The sweep harness: grids, streaming, reducers, pool fan-out.

Pool fan-out must equal the serial loop; :class:`SweepSpec` must expand
in nested-for-loop order; :func:`stream_sweep` must stay lazy (bounded
memory) and yield identical outcomes on every path.
"""

import pytest

from repro.attacks import apply_script, get_script
from repro.engine.backend import ExecutionBackend
from repro.engine.sim_backend import SimulationBackend
from repro.engine.spec import RunSpec
from repro.engine.sweep import SweepSpec, default_worker_count, stream_sweep, sweep_rows
from repro.sleepy.schedule import SpikeSchedule


def sweep_specs():
    return [
        RunSpec(n=6, rounds=12, protocol="resilient", eta=2, seed=0),
        RunSpec(n=6, rounds=12, protocol="mmr", seed=1),
        apply_script(
            RunSpec(n=8, rounds=14, protocol="resilient", eta=3, seed=2),
            get_script("crash", 8, byz=[6, 7], from_round=0),
        ),
        RunSpec(
            n=8,
            rounds=14,
            protocol="resilient",
            eta=2,
            schedule=SpikeSchedule(8, 0.5, start=4, duration=4),
            seed=3,
        ),
    ]


def digest(result):
    return (
        [(d.pid, d.round, d.view, d.tip) for d in result.trace.decisions],
        result.trace.horizon,
        len(result.trace.tree),
        result.messages_sent,
    )


@pytest.mark.slow
def test_parallel_sweep_equals_serial_run_for_run():
    specs = sweep_specs()
    serial = [o.result for o in stream_sweep(specs, max_workers=0)]
    parallel = [o.result for o in stream_sweep(specs, max_workers=2)]  # one window
    assert [digest(r) for r in parallel] == [digest(r) for r in serial]


def test_serial_fallback_path_preserves_order_and_strips_extras():
    specs = sweep_specs()[:2]
    results = [o.result for o in stream_sweep(specs, max_workers=0)]
    assert [r.trace.meta["protocol"] for r in results] == ["resilient", "mmr"]
    assert all(r.extras == {} for r in results)
    assert all(r.backend == "simulator" for r in results)


def test_single_spec_skips_the_pool():
    (outcome,) = stream_sweep(sweep_specs()[:1], max_workers=4)
    assert outcome.result.trace.decisions
    assert outcome.result.extras == {}


def test_worker_count_and_window_validation():
    assert default_worker_count() >= 1
    with pytest.raises(ValueError, match="window"):
        list(stream_sweep(sweep_specs()[:1], window=0))


# ----------------------------------------------------------------------
# SweepSpec grids
# ----------------------------------------------------------------------
def _grid_spec(*, n, rounds, protocol, seed, **_):
    return RunSpec(n=n, rounds=rounds, protocol=protocol, seed=seed)


def _rounds_axis(params):
    # A dependent axis: later axes may read the ones before them.
    return range(10, 10 + 2 * params["seed"] + 1, 2)


def test_grid_expands_in_nested_loop_order():
    grid = SweepSpec(
        axes={"protocol": ("mmr", "resilient"), "seed": (0, 1)},
        base={"n": 4, "rounds": 8},
    )
    cells = grid.cells()
    assert [(c.params["protocol"], c.params["seed"]) for c in cells] == [
        ("mmr", 0), ("mmr", 1), ("resilient", 0), ("resilient", 1)
    ]
    assert [c.index for c in cells] == [0, 1, 2, 3]
    # Default factory: params are RunSpec fields verbatim.
    assert [c.spec.protocol for c in cells] == ["mmr", "mmr", "resilient", "resilient"]


def test_grid_dependent_axis_and_keep_filter():
    grid = SweepSpec(
        axes={"seed": (0, 1, 2), "rounds": _rounds_axis},
        base={"n": 4, "protocol": "mmr"},
        factory=_grid_spec,
        keep=lambda params: params["rounds"] != 12,
    )
    cells = grid.cells()
    assert [(c.params["seed"], c.params["rounds"]) for c in cells] == [
        (0, 10), (1, 10), (2, 10), (2, 14)
    ]
    assert [c.index for c in cells] == [0, 1, 2, 3]  # dense over kept cells
    assert grid.specs()[3].rounds == 14


# ----------------------------------------------------------------------
# stream_sweep
# ----------------------------------------------------------------------
class CountingBackend(ExecutionBackend):
    """Counts executions (serial in-process path only)."""

    name = "counting"

    def __init__(self):
        self.inner = SimulationBackend()
        self.calls = 0

    def execute(self, spec):
        self.calls += 1
        return self.inner.execute(spec)


def test_serial_stream_is_lazy():
    """The serial path executes one cell per next() — the memory bound
    for grids that do not fit in memory."""
    backend = CountingBackend()
    stream = stream_sweep(sweep_specs(), backend=backend, max_workers=0)
    assert backend.calls == 0  # generator: nothing runs before iteration
    first = next(stream)
    assert backend.calls == 1
    assert first.index == 0 and first.result.backend == "simulator"
    next(stream)
    assert backend.calls == 2


def _pick_protocol(result, params):
    return (params.get("tag"), result.trace.meta["protocol"], len(result.trace.decisions))


def test_reducer_rows_replace_results():
    grid = SweepSpec(
        axes={"protocol": ("mmr", "resilient")},
        base={"n": 4, "rounds": 8, "tag": "t"},
        factory=_grid_spec_with_tag,
    )
    outcomes = list(stream_sweep(grid, reducer=_pick_protocol, max_workers=0))
    assert [o.result for o in outcomes] == [None, None]
    assert [o.row[1] for o in outcomes] == ["mmr", "resilient"]
    assert sweep_rows(grid, _pick_protocol, max_workers=0) == [o.row for o in outcomes]


def _grid_spec_with_tag(*, protocol, n, rounds, tag, **_):
    return RunSpec(n=n, rounds=rounds, protocol=protocol, seed=0)


@pytest.mark.slow
def test_streamed_pool_equals_serial_across_windows():
    specs = sweep_specs()
    serial = list(stream_sweep(specs, max_workers=0))
    pooled = list(stream_sweep(specs, max_workers=2, window=2))  # 2 windows
    assert [digest(o.result) for o in pooled] == [digest(o.result) for o in serial]
    assert [o.index for o in pooled] == [0, 1, 2, 3]


@pytest.mark.slow
def test_streamed_reducer_rows_cross_the_pool():
    grid = SweepSpec(
        axes={"protocol": ("mmr", "resilient"), "tag": ("a", "b")},
        base={"n": 4, "rounds": 8},
        factory=_grid_spec_with_tag,
    )
    serial = sweep_rows(grid, _pick_protocol, max_workers=0)
    pooled = sweep_rows(grid, _pick_protocol, max_workers=2, window=3)
    assert pooled == serial
    assert [row[0] for row in pooled] == ["a", "b", "a", "b"]
