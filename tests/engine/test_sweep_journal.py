"""The sweep checkpoint journal: crash/resume equivalence and digests.

The contract under test (ISSUE 4): a sweep interrupted after k cells
and resumed via its journal yields rows bit-identical to an
uninterrupted run, with no cell executed twice; a changed grid, seed,
param, or backend identity invalidates stale rows; and a torn final
JSONL line is discarded, never fatal.  Both substrates are covered —
the round simulator (serial and pooled) and the real-time deployment
(serial lane).
"""

import itertools
import json
from fractions import Fraction

import pytest

from repro.engine.backend import ExecutionBackend
from repro.engine.sim_backend import SimulationBackend
from repro.engine.spec import RunSpec, canonical_form, stable_digest
from repro.engine.sweep import (
    SweepJournal,
    SweepJournalMismatch,
    SweepSpec,
    stream_sweep,
    sweep_rows,
)


# ----------------------------------------------------------------------
# A tiny grid + reducer (module-level: process pools import these)
# ----------------------------------------------------------------------
def _spec(*, protocol, seed, n, rounds, **_):
    return RunSpec(n=n, rounds=rounds, protocol=protocol, seed=seed)


def _reduce(result, params):
    # Exercises every journaled type: scalars, Fraction, set, tuple.
    return {
        "protocol": params["protocol"],
        "seed": params["seed"],
        "decisions": len(result.trace.decisions),
        "growth": Fraction(len(result.trace.decisions), max(1, result.trace.horizon)),
        "decided_rounds": {d.round for d in result.trace.decisions},
        "shape": (result.trace.n, result.trace.horizon),
    }


def tiny_grid(n=4, rounds=8, seeds=(0, 1)):
    return SweepSpec(
        axes={"protocol": ("mmr", "resilient"), "seed": tuple(seeds)},
        base={"n": n, "rounds": rounds},
        factory=_spec,
    )


class CountingBackend(ExecutionBackend):
    """Counts executions; optionally crashes after ``fail_after`` cells.

    Instrumentation only, so its journal identity delegates to the
    wrapped backend — rows journaled through the wrapper stay valid for
    the bare backend and vice versa (and a crash-configured wrapper
    keys identically to a fresh one).
    """

    name = "counting"

    def __init__(self, inner=None, fail_after=None):
        self.inner = inner if inner is not None else SimulationBackend()
        self.poolable = self.inner.poolable
        self.fail_after = fail_after
        self.calls = 0

    def execute(self, spec):
        if self.fail_after is not None and self.calls >= self.fail_after:
            raise RuntimeError("simulated crash")
        self.calls += 1
        return self.inner.execute(spec)

    def identity(self):
        return self.inner.identity()


class TaggedBackend(CountingBackend):
    """A backend whose journal identity is an explicit tag (tests only)."""

    def __init__(self, tag):
        super().__init__()
        self.tag = tag

    def identity(self):
        return ["tagged", self.tag]


def journal_entries(path):
    entries = []
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        try:
            entries.append(json.loads(line))
        except json.JSONDecodeError:
            continue  # torn fragments are isolated lines, skipped like load()
    return entries


def journal_keys(path):
    return [entry["key"] for entry in journal_entries(path) if "key" in entry]


# ----------------------------------------------------------------------
# Crash → resume equivalence (the tentpole contract)
# ----------------------------------------------------------------------
def test_crash_mid_sweep_resume_is_bit_identical_and_runs_each_cell_once(tmp_path):
    grid = tiny_grid()
    reference = sweep_rows(grid, _reduce, max_workers=0)
    total = len(grid.cells())

    path = tmp_path / "sweep.jsonl"
    crashing = CountingBackend(fail_after=2)
    survived = []
    with pytest.raises(RuntimeError, match="simulated crash"):
        for outcome in stream_sweep(
            grid,
            reducer=_reduce,
            backend=crashing,
            max_workers=0,
            journal=SweepJournal(path, grid="tiny"),
        ):
            survived.append(outcome.row)
    assert len(survived) == 2 and crashing.calls == 2
    # The journal survived the crash with exactly the finished cells.
    assert len(journal_keys(path)) == 2

    resumed_backend = CountingBackend()
    resumed = sweep_rows(
        grid,
        _reduce,
        backend=resumed_backend,
        max_workers=0,
        journal=SweepJournal(path, grid="tiny"),
        resume=True,
    )
    assert resumed == reference  # bit-identical rows, Fractions/sets included
    assert resumed_backend.calls == total - 2  # no cell executed twice
    keys = journal_keys(path)
    assert len(keys) == total and len(set(keys)) == total


def test_resumed_outcomes_preserve_cell_order_params_and_indices(tmp_path):
    grid = tiny_grid()
    path = tmp_path / "sweep.jsonl"
    # Journal the first two cells, then abandon the generator mid-sweep.
    stream = stream_sweep(
        grid, reducer=_reduce, max_workers=0, journal=SweepJournal(path, grid="tiny")
    )
    list(itertools.islice(stream, 2))
    stream.close()  # flushes and closes the journal

    serial = list(stream_sweep(grid, reducer=_reduce, max_workers=0))
    resumed = list(
        stream_sweep(
            grid,
            reducer=_reduce,
            max_workers=0,
            journal=SweepJournal(path, grid="tiny"),
            resume=True,
        )
    )
    assert [o.index for o in resumed] == [o.index for o in serial]
    assert [o.params for o in resumed] == [o.params for o in serial]
    assert [o.row for o in resumed] == [o.row for o in serial]
    assert all(o.result is None for o in resumed)


@pytest.mark.slow
def test_pooled_resume_matches_uninterrupted_pooled_run(tmp_path):
    grid = tiny_grid(n=6, rounds=12)
    reference = sweep_rows(grid, _reduce, max_workers=0)
    path = tmp_path / "sweep.jsonl"

    interrupted = stream_sweep(
        grid,
        reducer=_reduce,
        max_workers=2,
        window=2,
        journal=SweepJournal(path, grid="tiny"),
    )
    list(itertools.islice(interrupted, 2))
    interrupted.close()
    journaled_before = len(journal_keys(path))
    assert journaled_before >= 2

    resumed = sweep_rows(
        grid,
        _reduce,
        max_workers=2,
        window=2,
        journal=SweepJournal(path, grid="tiny"),
        resume=True,
    )
    assert resumed == reference
    # Cached keys are never re-journaled: every key appears exactly once.
    keys = journal_keys(path)
    assert len(keys) == len(set(keys)) == len(grid.cells())


# ----------------------------------------------------------------------
# Digest invalidation: changed content must re-run, not reuse
# ----------------------------------------------------------------------
def test_changed_seed_invalidates_journaled_rows(tmp_path):
    path = tmp_path / "sweep.jsonl"
    sweep_rows(tiny_grid(seeds=(0, 1)), _reduce, max_workers=0, journal=SweepJournal(path, grid="g"))
    backend = CountingBackend()
    sweep_rows(
        tiny_grid(seeds=(2, 3)),
        _reduce,
        backend=backend,
        max_workers=0,
        journal=SweepJournal(path, grid="g"),
        resume=True,
    )
    assert backend.calls == 4  # every cell is a cache miss


def test_changed_params_invalidate_and_overlap_is_reused(tmp_path):
    path = tmp_path / "sweep.jsonl"
    sweep_rows(tiny_grid(rounds=8), _reduce, max_workers=0, journal=SweepJournal(path, grid="g"))
    backend = CountingBackend()
    rows = sweep_rows(
        tiny_grid(rounds=10),  # rounds changed: every spec digest changes
        _reduce,
        backend=backend,
        max_workers=0,
        journal=SweepJournal(path, grid="g"),
        resume=True,
    )
    assert backend.calls == 4
    assert rows == sweep_rows(tiny_grid(rounds=10), _reduce, max_workers=0)


def test_mismatched_backend_or_grid_name_rejects_the_resume(tmp_path):
    """A journal written for one grid/backend must never be resumed by
    another — the manifest header rejects the mix outright."""
    path = tmp_path / "sweep.jsonl"
    grid = tiny_grid()
    sweep_rows(
        grid,
        _reduce,
        backend=TaggedBackend("a"),
        max_workers=0,
        journal=SweepJournal(path, grid="g"),
    )
    before = path.read_text()
    # Same grid, different backend identity: rejected, file untouched.
    other = TaggedBackend("b")
    with pytest.raises(SweepJournalMismatch, match="backend"):
        sweep_rows(
            grid, _reduce, backend=other, max_workers=0,
            journal=SweepJournal(path, grid="g"), resume=True,
        )
    assert other.calls == 0 and path.read_text() == before
    # Same backend identity, different grid name: rejected, file untouched.
    renamed = TaggedBackend("a")
    with pytest.raises(SweepJournalMismatch, match="grid"):
        sweep_rows(
            grid, _reduce, backend=renamed, max_workers=0,
            journal=SweepJournal(path, grid="other"), resume=True,
        )
    assert renamed.calls == 0 and path.read_text() == before
    # Identical identity + grid name: everything is reused.
    cached = TaggedBackend("a")
    sweep_rows(
        grid, _reduce, backend=cached, max_workers=0,
        journal=SweepJournal(path, grid="g"), resume=True,
    )
    assert cached.calls == 0


# ----------------------------------------------------------------------
# The manifest header
# ----------------------------------------------------------------------
def test_manifest_is_the_first_line_and_records_grid_backend_version(tmp_path):
    import repro
    from repro.engine.spec import stable_digest

    path = tmp_path / "sweep.jsonl"
    backend = TaggedBackend("a")
    sweep_rows(tiny_grid(), _reduce, backend=backend, max_workers=0,
               journal=SweepJournal(path, grid="g"))
    first = journal_entries(path)[0]
    assert first == {
        "manifest": {
            "grid": "g",
            "backend": stable_digest(backend.identity()),
            "version": repro.__version__,
        }
    }
    assert SweepJournal(path, grid="g").load_manifest() == first["manifest"]


def test_changed_code_version_rejects_the_resume(tmp_path, monkeypatch):
    path = tmp_path / "sweep.jsonl"
    sweep_rows(tiny_grid(), _reduce, max_workers=0, journal=SweepJournal(path, grid="g"))
    import repro

    monkeypatch.setattr(repro, "__version__", "0.0.0-other")
    with pytest.raises(SweepJournalMismatch, match="version"):
        sweep_rows(
            tiny_grid(), _reduce, max_workers=0,
            journal=SweepJournal(path, grid="g"), resume=True,
        )


def test_rows_without_a_manifest_reject_the_resume(tmp_path):
    """Pre-manifest journals (rows of unknown provenance) must re-run
    explicitly, not resume silently."""
    path = tmp_path / "sweep.jsonl"
    grid = tiny_grid()
    sweep_rows(grid, _reduce, max_workers=0, journal=SweepJournal(path, grid="g"))
    # Strip the manifest header, keeping the rows.
    lines = [line for line in path.read_text().splitlines() if "manifest" not in line]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SweepJournalMismatch, match="manifest"):
        sweep_rows(
            grid, _reduce, max_workers=0,
            journal=SweepJournal(path, grid="g"), resume=True,
        )


def test_torn_manifest_with_no_rows_resumes_as_a_fresh_journal(tmp_path):
    """A crash mid-header (partial manifest bytes, zero rows) must not
    strand the resume flow: nothing is reusable, so the file restarts
    clean with a fresh first-line manifest."""
    path = tmp_path / "sweep.jsonl"
    path.write_text('{"manifest": {"grid": "g", "ba')  # torn mid-flush
    grid = tiny_grid()
    rows = sweep_rows(
        grid, _reduce, max_workers=0,
        journal=SweepJournal(path, grid="g"), resume=True,
    )
    assert rows == sweep_rows(grid, _reduce, max_workers=0)
    entries = journal_entries(path)  # every line readable again
    assert "manifest" in entries[0]
    assert len(journal_keys(path)) == len(grid.cells())


def test_empty_or_missing_journal_resumes_as_a_fresh_run(tmp_path):
    grid = tiny_grid()
    reference = sweep_rows(grid, _reduce, max_workers=0)
    missing = sweep_rows(
        grid, _reduce, max_workers=0,
        journal=SweepJournal(tmp_path / "missing.jsonl", grid="g"), resume=True,
    )
    empty_path = tmp_path / "empty.jsonl"
    empty_path.touch()  # the CI kill-before-first-open case
    empty = sweep_rows(
        grid, _reduce, max_workers=0,
        journal=SweepJournal(empty_path, grid="g"), resume=True,
    )
    assert missing == reference and empty == reference
    # Both journals gained a manifest plus every row.
    for path in (tmp_path / "missing.jsonl", empty_path):
        assert "manifest" in journal_entries(path)[0]
        assert len(journal_keys(path)) == len(grid.cells())


# ----------------------------------------------------------------------
# Journal-file robustness
# ----------------------------------------------------------------------
def test_torn_final_line_is_discarded_and_only_that_cell_reruns(tmp_path):
    path = tmp_path / "sweep.jsonl"
    grid = tiny_grid()
    reference = sweep_rows(grid, _reduce, max_workers=0, journal=SweepJournal(path, grid="g"))
    # Tear the last line mid-JSON, as a crash between write and fsync would.
    text = path.read_text()
    path.write_text(text[: len(text) - 20])

    backend = CountingBackend()
    rows = sweep_rows(
        grid, _reduce, backend=backend, max_workers=0,
        journal=SweepJournal(path, grid="g"), resume=True,
    )
    assert backend.calls == 1  # exactly the torn cell
    assert rows == reference
    # Appending closed the torn fragment on its own line instead of
    # merging the fresh row into it: the repaired journal is fully
    # readable and a second resume re-executes nothing.
    assert len(journal_keys(path)) == len(grid.cells())
    again = CountingBackend()
    assert reference == sweep_rows(
        grid, _reduce, backend=again, max_workers=0,
        journal=SweepJournal(path, grid="g"), resume=True,
    )
    assert again.calls == 0


def test_foreign_garbage_lines_are_skipped(tmp_path):
    path = tmp_path / "sweep.jsonl"
    grid = tiny_grid()
    reference = sweep_rows(grid, _reduce, max_workers=0, journal=SweepJournal(path, grid="g"))
    with path.open("a") as fh:
        fh.write("not json at all\n")
        fh.write('{"row": "no key field"}\n')
        fh.write('{"key": "zzz", "row": {"__unknown_tag__": 1}}\n')
    backend = CountingBackend()
    rows = sweep_rows(
        grid, _reduce, backend=backend, max_workers=0,
        journal=SweepJournal(path, grid="g"), resume=True,
    )
    assert backend.calls == 0
    assert rows == reference


def test_without_resume_an_existing_journal_is_truncated(tmp_path):
    path = tmp_path / "sweep.jsonl"
    grid = tiny_grid()
    sweep_rows(grid, _reduce, max_workers=0, journal=SweepJournal(path, grid="g"))
    backend = CountingBackend()
    sweep_rows(
        grid, _reduce, backend=backend, max_workers=0, journal=SweepJournal(path, grid="g")
    )
    assert backend.calls == 4  # resume=False: a fresh journal, a fresh run
    assert len(journal_keys(path)) == 4


def test_journal_requires_a_reducer():
    with pytest.raises(ValueError, match="reducer"):
        list(stream_sweep(tiny_grid(), journal="unused.jsonl"))


def test_resume_without_journal_is_ignored():
    rows = sweep_rows(tiny_grid(), _reduce, max_workers=0, resume=True)
    assert rows == sweep_rows(tiny_grid(), _reduce, max_workers=0)


def test_rows_the_journal_cannot_replay_fail_loudly(tmp_path):
    def bad_reducer(result, params):
        return {"simulation": object()}

    with pytest.raises(TypeError, match="journal"):
        list(
            stream_sweep(
                tiny_grid(),
                reducer=bad_reducer,
                max_workers=0,
                journal=SweepJournal(tmp_path / "j.jsonl", grid="g"),
            )
        )


# ----------------------------------------------------------------------
# The deployment substrate: serial lane, journaled the same way
# ----------------------------------------------------------------------
def deployment_grid():
    from repro.analysis.batch import GRIDS

    return GRIDS["deploy-smoke"].build(n=4, rounds=6, eta=(2, 3))


def deployment_backend():
    from repro.engine.deploy_backend import DeploymentBackend

    return DeploymentBackend(delta_s=0.008)


def deployment_reduce(result, params):
    from repro.analysis.batch import GRIDS

    return GRIDS["deploy-smoke"].reducer(result, params)


@pytest.mark.slow
def test_deployment_backend_sweeps_run_the_serial_lane():
    """A non-poolable backend streams serially even when workers are
    requested — real asyncio deployments never cross a process pool."""
    backend = CountingBackend(inner=deployment_backend())
    assert backend.poolable is False
    outcomes = list(
        stream_sweep(deployment_grid(), reducer=deployment_reduce, backend=backend, max_workers=4)
    )
    assert backend.calls == 2
    assert [o.row["eta"] for o in outcomes] == [2, 3]
    assert all(o.row["safe"] for o in outcomes)


@pytest.mark.slow
def test_deployment_sweep_resumes_bit_identically(tmp_path):
    grid = deployment_grid()
    reference = sweep_rows(grid, deployment_reduce, backend=deployment_backend(), max_workers=0)

    path = tmp_path / "deploy.jsonl"
    crashing = CountingBackend(inner=deployment_backend(), fail_after=1)
    with pytest.raises(RuntimeError, match="simulated crash"):
        list(
            stream_sweep(
                grid,
                reducer=deployment_reduce,
                backend=crashing,
                journal=SweepJournal(path, grid="deploy-smoke"),
            )
        )
    assert len(journal_keys(path)) == 1

    resumed_backend = CountingBackend(inner=deployment_backend())
    resumed = sweep_rows(
        grid,
        deployment_reduce,
        backend=resumed_backend,
        journal=SweepJournal(path, grid="deploy-smoke"),
        resume=True,
    )
    assert resumed == reference
    assert resumed_backend.calls == 1  # only the unfinished cell re-ran


# ----------------------------------------------------------------------
# Stable digests (the keys under all of the above)
# ----------------------------------------------------------------------
def test_run_spec_digest_is_content_derived():
    from repro.attacks import apply_script, get_script
    from repro.sleepy.schedule import RandomChurnSchedule

    def build(seed):
        spec = RunSpec(
            n=6,
            rounds=10,
            eta=3,
            beta=Fraction(1, 3),
            schedule=RandomChurnSchedule(6, 0.1, seed=7),
            seed=seed,
        )
        return apply_script(spec, get_script("crash", 6, byz=[4, 5], from_round=0))

    assert build(0).digest() == build(0).digest()  # fresh objects, equal content
    assert build(0).digest() != build(1).digest()
    base = build(0)
    assert base.digest() != RunSpec(n=6, rounds=10, eta=4, seed=0).digest()


def test_canonical_form_is_order_and_hash_seed_insensitive():
    # Sets and dicts canonicalise by content, not iteration order.
    assert canonical_form({"b": 1, "a": 2}) == canonical_form(dict([("a", 2), ("b", 1)]))
    assert stable_digest({3, 1, 2}) == stable_digest({2, 3, 1})
    assert stable_digest(frozenset("ab")) == stable_digest(frozenset("ba"))
    # Distinct value types never collide via string coercion.
    assert stable_digest(1) != stable_digest("1")
    assert stable_digest(1.0) != stable_digest(1) != stable_digest(Fraction(1))


def test_canonical_form_rejects_address_identity():
    class Slotted:
        __slots__ = ()

    with pytest.raises(TypeError, match="stable digest"):
        canonical_form(Slotted())
