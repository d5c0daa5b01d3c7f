"""Parallel experiment sweeps: grids, streaming fan-out, per-cell reducers.

The engine opened n ≫ 100 runs; this module opens n ≫ 100 *runs at
once*, and entire experiment *grids*:

* :class:`SweepSpec` expands a parameter grid (cartesian axes, with
  later axes allowed to depend on earlier ones) into seeded
  :class:`~repro.engine.spec.RunSpec`\\ s via a picklable factory, in a
  deterministic "nested for loops" order.
* :func:`stream_sweep` executes a grid (or a plain spec sequence)
  across a process pool and **yields** :class:`SweepOutcome`\\ s in spec
  order with bounded memory: at most one *window* of results is ever
  buffered, so grids that do not fit in memory stream through.
* A per-cell **reducer** hook runs inside the worker process, so a
  sweep ships back measurement rows instead of whole traces — the
  process boundary then carries a dict per cell, not a block tree.
* :class:`SweepJournal` checkpoints a sweep's reduced rows to an
  append-only JSONL file, keyed by a content-derived **cell digest**
  (grid name + resolved params + seeded spec + backend identity).
  ``stream_sweep(..., journal=..., resume=True)`` skips
  already-journaled cells and yields their cached rows *in cell order*,
  so an interrupted multi-hour grid resumes bit-identically instead of
  re-paying finished cells — and a changed grid, seed, or backend
  configuration invalidates stale rows instead of silently reusing
  them.  Every journal opens with a one-line **manifest header**
  (grid name, backend identity, package version); ``resume=`` rejects
  a mismatched manifest (:class:`SweepJournalMismatch`) instead of
  silently mixing rows written by another grid, substrate, or release.

Design points:

* **Deterministic.**  Cells expand in axis order, results come back in
  cell order, and each run is seeded by its spec, so a sweep equals the
  serial loop run-for-run (pinned by ``tests/engine/test_sweep.py`` and
  the real-grid equivalence suite in
  ``tests/engine/test_sweep_equivalence.py``).
* **Shared nothing.**  Each worker builds its own key registry, ingest
  pipeline, and bus; the sweep parallelises embarrassingly.
* **Picklable by construction.**  Factories and reducers must be
  importable callables (module-level functions, classes, or
  ``functools.partial`` of them) — the paper's grids live in
  :mod:`repro.analysis.batch` for exactly this reason.
* **Graceful degradation.**  Sandboxes that cannot spawn processes
  (and ``max_workers=0`` explicitly) run the same cells serially,
  in-process, yielding identical outcomes lazily.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable, Iterator, Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from repro.engine.backend import EngineResult, ExecutionBackend
from repro.engine.spec import RunSpec, canonical_form, stable_digest

#: A per-cell reducer: ``(result, params) -> row``.  Runs in the worker
#: process; whatever it returns crosses the process boundary *instead
#: of* the full :class:`EngineResult`.
Reducer = Callable[[EngineResult, dict], object]


@dataclass(frozen=True)
class SweepCell:
    """One grid cell: its position, its parameters, and its run."""

    index: int
    params: dict
    spec: RunSpec


@dataclass(frozen=True)
class SweepOutcome:
    """What :func:`stream_sweep` yields for one cell, in cell order.

    Exactly one of ``result`` / ``row`` is populated: with a reducer the
    worker ships back only ``row``; without one it ships the full
    :class:`EngineResult` (extras stripped — a sweep's product is traces
    and measurements, not substrate handles).
    """

    index: int
    params: dict
    result: EngineResult | None = None
    row: object | None = None


def _default_factory(**params) -> RunSpec:
    return RunSpec(**params)


@dataclass(frozen=True)
class SweepSpec:
    """A declarative parameter grid over :class:`RunSpec`\\ s.

    Attributes:
        axes: ordered mapping ``name -> values``; cells enumerate the
            cartesian product with the *last* axis varying fastest
            (exactly the order of the equivalent nested ``for`` loops).
            A value may also be a callable ``partial_params -> values``,
            so an axis can depend on the axes before it (e.g. the
            Theorem-2 grid sweeps ``pi`` up to ``eta + 2`` per ``eta``).
        base: constant parameters merged under every cell's axis values.
        factory: picklable ``(**params) -> RunSpec``; defaults to
            ``RunSpec(**params)``, so a grid over plain spec fields
            needs no factory at all.
        keep: optional predicate over the merged params; cells it
            rejects are skipped (indices stay dense over kept cells).
    """

    axes: Mapping[str, object]
    base: Mapping[str, object] = field(default_factory=dict)
    factory: Callable[..., RunSpec] | None = None
    keep: Callable[[dict], bool] | None = None

    def cells(self) -> list[SweepCell]:
        """Expand the grid into cells, in deterministic axis order."""
        factory = self.factory or _default_factory
        axis_items = list(self.axes.items())
        cells: list[SweepCell] = []

        def expand(depth: int, params: dict) -> None:
            if depth == len(axis_items):
                if self.keep is not None and not self.keep(params):
                    return
                cells.append(
                    SweepCell(index=len(cells), params=dict(params), spec=factory(**params))
                )
                return
            name, values = axis_items[depth]
            for value in values(params) if callable(values) else values:
                params[name] = value
                expand(depth + 1, params)
                del params[name]

        expand(0, dict(self.base))
        return cells

    def specs(self) -> list[RunSpec]:
        """Just the expanded :class:`RunSpec`\\ s, in cell order."""
        return [cell.spec for cell in self.cells()]


def _as_cells(grid: SweepSpec | Sequence[SweepCell] | Sequence[RunSpec]) -> list[SweepCell]:
    if isinstance(grid, SweepSpec):
        return grid.cells()
    cells: list[SweepCell] = []
    for i, item in enumerate(grid):
        if isinstance(item, SweepCell):
            cells.append(item)
        else:
            cells.append(SweepCell(index=i, params={}, spec=item))
    return cells


# ----------------------------------------------------------------------
# The sweep checkpoint journal
# ----------------------------------------------------------------------
def _encode_row(value: object) -> object:
    """Encode a reduced row as tagged JSON that round-trips *exactly*.

    Resume equivalence demands bit-identical rows, so every container
    the reducers emit keeps its type across the journal: fractions,
    sets/frozensets (content-sorted — set equality is order-free),
    tuples, bytes, and dicts (insertion order preserved).  Anything
    else is a loud :class:`TypeError` — a row the journal cannot
    faithfully replay must never be silently approximated.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return {"__float__": repr(value)}
    if isinstance(value, Fraction):
        return {"__fraction__": [value.numerator, value.denominator]}
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    if isinstance(value, (set, frozenset)):
        tag = "__set__" if isinstance(value, set) else "__frozenset__"
        encoded = [_encode_row(v) for v in value]
        return {tag: sorted(encoded, key=lambda e: json.dumps(e, sort_keys=True))}
    if isinstance(value, tuple):
        return {"__tuple__": [_encode_row(v) for v in value]}
    if isinstance(value, list):
        return [_encode_row(v) for v in value]
    if isinstance(value, dict):
        return {"__dict__": [[_encode_row(k), _encode_row(v)] for k, v in value.items()]}
    raise TypeError(
        f"journaled sweep rows must be plain data (dict/list/tuple/set/"
        f"Fraction/scalars), got {type(value).__name__!r}"
    )


def _decode_row(value: object) -> object:
    """Invert :func:`_encode_row` (raises on malformed entries)."""
    if isinstance(value, list):
        return [_decode_row(v) for v in value]
    if isinstance(value, dict):
        if len(value) != 1:
            raise ValueError("malformed journal entry: untagged object")
        (tag, payload), = value.items()
        if tag == "__float__":
            return float(payload)
        if tag == "__fraction__":
            numerator, denominator = payload
            return Fraction(numerator, denominator)
        if tag == "__bytes__":
            return bytes.fromhex(payload)
        if tag == "__set__":
            return {_decode_row(v) for v in payload}
        if tag == "__frozenset__":
            return frozenset(_decode_row(v) for v in payload)
        if tag == "__tuple__":
            return tuple(_decode_row(v) for v in payload)
        if tag == "__dict__":
            return {_decode_row(k): _decode_row(v) for k, v in payload}
        raise ValueError(f"malformed journal entry: unknown tag {tag!r}")
    return value


class SweepJournalMismatch(ValueError):
    """Raised when ``resume=`` meets a journal written by a different
    grid, backend, or package version (see :meth:`SweepJournal.manifest`)."""


class SweepJournal:
    """An append-only JSONL checkpoint of a sweep's reduced rows.

    The first line is a **manifest header** ``{"manifest": {"grid":
    ..., "backend": ..., "version": ...}}`` recording the grid name,
    the executing backend's identity digest, and the package's static
    ``repro.__version__``.  ``resume=`` refuses a journal whose
    manifest does not match the resuming sweep
    (:class:`SweepJournalMismatch`) instead of silently mixing rows
    across grids, backends, or releases — two commits of one release
    share a manifest, and there it is the per-cell content digest alone
    that decides which rows are reused; an empty or missing file is
    always a valid (empty) journal.

    Then one line per executed cell: ``{"key": <digest>, "index": ...,
    "params": ..., "row": ...}``.  The ``key`` is the content-derived
    cell digest (:meth:`cell_key`) — grid name, resolved cell params,
    the seeded :class:`RunSpec` itself, and the executing backend's
    identity — so a resumed sweep reuses a row only when the cell would
    recompute it bit-identically.  ``params`` and ``index`` are
    diagnostics for humans reading the file; resolution goes by ``key``
    alone.

    Durability: appends are buffered and fsync'd once per window
    (:func:`stream_sweep` drives the cadence) plus once at close, so a
    crash loses at most the current window.  :meth:`load` tolerates a
    torn final line — and any other undecodable line — by discarding
    it: those cells simply re-run.

    Args:
        path: the JSONL file (parent directories are created lazily).
            Use one file per grid: a non-``resume`` sweep truncates the
            file, so sharing one path across grids would discard the
            other grid's checkpoints.
        grid: the grid's name, mixed into every cell key so rows
            journaled for one named grid are never reused by another.
    """

    def __init__(self, path: str | os.PathLike, grid: str = "") -> None:
        self.path = Path(path)
        self.grid = grid
        self._fh = None

    def cell_key(
        self,
        cell: SweepCell,
        backend: ExecutionBackend,
        backend_identity: object | None = None,
    ) -> str:
        """The content digest that keys ``cell``'s row in this journal.

        ``backend_identity`` lets bulk callers hoist the (sweep-invariant)
        ``backend.identity()`` computation out of their per-cell loop.
        """
        if backend_identity is None:
            backend_identity = backend.identity()
        return stable_digest(
            [
                "sweep-cell",
                self.grid,
                canonical_form(cell.params),
                canonical_form(cell.spec),
                backend_identity,
            ]
        )

    def manifest(self, backend: ExecutionBackend) -> dict[str, str]:
        """The manifest header this journal writes for ``backend``."""
        from repro import __version__

        return {
            "grid": self.grid,
            "backend": stable_digest(backend.identity()),
            "version": __version__,
        }

    def load_manifest(self) -> dict | None:
        """The manifest of the first non-blank line, if it is one.

        Reads only the head of the file — resuming a large journal must
        not pay a second full-file pass just to validate the header.
        """
        try:
            with open(self.path, encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        entry = json.loads(line)
                    except json.JSONDecodeError:
                        return None  # torn or foreign header
                    if isinstance(entry, dict) and isinstance(entry.get("manifest"), dict):
                        return entry["manifest"]
                    return None  # first readable line is not a manifest header
        except (FileNotFoundError, OSError):
            return None
        return None

    def _validate_resume(
        self, backend: ExecutionBackend, stored: dict | None, has_rows: bool
    ) -> None:
        """Reject resuming from a journal another context wrote.

        A manifest that *is* present must match this sweep's grid name,
        backend identity, and package version; readable rows under a
        missing/torn manifest are rows of unknown provenance and are
        rejected too.  A file with nothing reusable — missing, empty,
        or only torn/garbage lines — is a valid fresh journal: crashes
        mid-header must not strand the resume flow.  Operates on
        pre-read state (``stored`` manifest, row presence) so the
        resume path pays no extra file I/O.
        """
        if stored is not None:
            expected = self.manifest(backend)
            if stored != expected:
                changed = sorted(
                    field
                    for field in set(stored) | set(expected)
                    if stored.get(field) != expected.get(field)
                )
                raise SweepJournalMismatch(
                    f"journal {self.path} was written by a different {', '.join(changed)} "
                    f"(journal manifest {stored}, this sweep {expected}); refusing to mix "
                    "rows (re-run without resume= to start a fresh journal)"
                )
            return
        if has_rows:
            raise SweepJournalMismatch(
                f"journal {self.path} has rows but no manifest header; refusing to "
                "resume from rows of unknown provenance (re-run without resume= to "
                "start a fresh journal)"
            )

    def load(self) -> dict[str, object]:
        """``key -> decoded row`` for every readable line (last wins).

        A missing file is an empty journal; a torn or corrupt line is
        discarded (its cell re-runs), never fatal.
        """
        rows: dict[str, object] = {}
        try:
            text = self.path.read_text(encoding="utf-8")
        except (FileNotFoundError, OSError):
            return rows
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                key = entry["key"]
                row = _decode_row(entry["row"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                continue
            if isinstance(key, str):
                rows[key] = row
        return rows

    # ------------------------------------------------------------------
    # Writing (driven by stream_sweep)
    # ------------------------------------------------------------------
    def open(self, truncate: bool, manifest: Mapping[str, str] | None = None) -> None:
        """Open for appending (``truncate=True`` starts a fresh journal).

        ``manifest`` is written (and fsync'd) as the first line whenever
        the journal starts empty — truncated, missing, or zero-length —
        so even a crash before the first row leaves an attributable file.
        Appending over a file whose last line is torn (a crash between
        write and fsync leaves no trailing newline) first closes that
        line, so the fragment stays an isolated discardable line instead
        of merging with — and corrupting — the next appended row.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        starts_empty = truncate or not self.path.exists() or self.path.stat().st_size == 0
        torn_tail = False
        if not starts_empty:
            with open(self.path, "rb") as probe:
                probe.seek(-1, os.SEEK_END)
                torn_tail = probe.read(1) != b"\n"
        self._fh = open(self.path, "w" if truncate else "a", encoding="utf-8")
        if torn_tail:
            self._fh.write("\n")
        if manifest is not None and starts_empty:
            self._fh.write(json.dumps({"manifest": dict(manifest)}, separators=(",", ":")) + "\n")
            self.flush()

    def append(self, key: str, outcome: SweepOutcome) -> None:
        """Buffer one executed cell's row (flushed per window)."""
        entry = {
            "key": key,
            "index": outcome.index,
            "params": _encode_row(outcome.params),
            "row": _encode_row(outcome.row),
        }
        self._fh.write(json.dumps(entry, separators=(",", ":")) + "\n")

    def flush(self) -> None:
        """Flush buffered rows and fsync them to disk."""
        if self._fh is None:
            return
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Flush, fsync, and close (safe to call when never opened)."""
        if self._fh is None:
            return
        try:
            self.flush()
        finally:
            self._fh.close()
            self._fh = None


def _execute_cell(payload: tuple[ExecutionBackend, SweepCell, Reducer | None]) -> SweepOutcome:
    """Worker entry point: run one cell, reduce or strip, ship back."""
    backend, cell, reducer = payload
    result = backend.execute(cell.spec)
    if reducer is not None:
        return SweepOutcome(index=cell.index, params=cell.params, row=reducer(result, cell.params))
    result.extras = {}
    return SweepOutcome(index=cell.index, params=cell.params, result=result)


def default_worker_count() -> int:
    """Workers a sweep uses when unspecified (cores − 1, at least 1)."""
    return max(1, (os.cpu_count() or 2) - 1)


def _stream_cells(
    cells: Sequence[SweepCell],
    reducer: Reducer | None,
    backend: ExecutionBackend,
    workers: int,
    window: int,
) -> Iterator[SweepOutcome]:
    """The execution core: run ``cells`` and yield outcomes in order."""
    payloads = [(backend, cell, reducer) for cell in cells]
    if workers <= 0 or len(cells) <= 1:
        for payload in payloads:
            yield _execute_cell(payload)
        return

    try:
        pool = ProcessPoolExecutor(max_workers=min(workers, len(cells)))
    except (OSError, PermissionError):
        pool = None
    if pool is None:
        for payload in payloads:
            yield _execute_cell(payload)
        return
    pool_ever_worked = False
    with pool:
        for start in range(0, len(payloads), window):
            chunk = payloads[start : start + window]
            produced = 0
            try:
                for outcome in pool.map(_execute_cell, chunk):
                    yield outcome
                    produced += 1
                    pool_ever_worked = True
            except (BrokenProcessPool, OSError, PermissionError):
                if pool_ever_worked:
                    # The pool ran fine and then a worker died mid-grid
                    # (OOM kill, segfault): re-running that cell in the
                    # parent would risk the parent too — surface it.
                    raise
                # The pool never produced anything: this sandbox cannot
                # actually spawn workers.  Runs are deterministic and
                # side-effect free, so the serial path yields the
                # identical stream.
                for payload in chunk[produced:]:
                    yield _execute_cell(payload)
                for payload in payloads[start + len(chunk) :]:
                    yield _execute_cell(payload)
                return


def stream_sweep(
    grid: SweepSpec | Sequence[SweepCell] | Sequence[RunSpec],
    reducer: Reducer | None = None,
    backend: ExecutionBackend | None = None,
    max_workers: int | None = None,
    window: int | None = None,
    journal: SweepJournal | str | os.PathLike | None = None,
    resume: bool = False,
) -> Iterator[SweepOutcome]:
    """Execute ``grid`` and yield :class:`SweepOutcome`\\ s in cell order.

    Memory is bounded by the *window*: the pool executes ``window``
    cells at a time (default ``4 × workers``), so at most
    one window of results — rows, with a ``reducer`` — is ever buffered
    between the pool and the consumer.  The serial path (``max_workers=0``,
    a single cell, a non-``poolable`` backend such as the asyncio
    deployment, or a sandbox that cannot spawn processes) executes
    lazily, one cell per ``next()``.

    ``reducer`` must be picklable (an importable function/class or a
    ``functools.partial`` of one); it runs inside the worker, and the
    sweep ships back its return value instead of the full result.

    ``journal`` (a :class:`SweepJournal` or a path) checkpoints every
    executed cell's reduced row, fsync'd once per window.  With
    ``resume=True``, cells whose content digest is already journaled
    are *not* re-executed: their cached rows are yielded at their
    position in cell order, interleaved with freshly executed cells, so
    an interrupted-then-resumed sweep is outcome-for-outcome identical
    to an uninterrupted one.  A journal whose manifest header names a
    different grid, backend, or package version raises
    :class:`SweepJournalMismatch`.  Without ``resume``, an existing
    journal file is truncated and rewritten.
    Journaling requires a reducer (the journal persists rows, not full
    results); ``resume`` without a journal is ignored.
    """
    if window is not None and window <= 0:
        raise ValueError("window must be positive")
    if backend is None:
        from repro.engine.sim_backend import SimulationBackend

        backend = SimulationBackend()
    cells = _as_cells(grid)
    workers = default_worker_count() if max_workers is None else max_workers
    if not getattr(backend, "poolable", True):
        workers = 0  # real-time substrates run the serial lane
    if window is None:
        window = max(1, 4 * workers)
    if journal is None:
        yield from _stream_cells(cells, reducer, backend, workers, window)
        return
    if reducer is None:
        raise ValueError(
            "journaled sweeps need a reducer: the journal persists reduced rows, "
            "not full EngineResults"
        )
    if not isinstance(journal, SweepJournal):
        journal = SweepJournal(journal)
    identity = backend.identity()  # sweep-invariant: compute once, not per cell
    keys = [journal.cell_key(cell, backend, backend_identity=identity) for cell in cells]
    if resume:
        stored = journal.load_manifest()  # head-only read
        cached = journal.load()  # the one full-file read of the resume path
        journal._validate_resume(backend, stored, bool(cached))
        # Nothing reusable (missing, empty, or torn header): truncate
        # so the manifest is again the first line.
        truncate = not cached and stored is None
    else:
        cached = {}
        truncate = True
    pending = [cell for cell, key in zip(cells, keys) if key not in cached]
    # The serial lane has a one-cell window, and its cells (real-time
    # deployments especially) are the expensive ones — fsync each.
    flush_every = 1 if workers <= 0 or len(pending) <= 1 else window
    fresh = _stream_cells(pending, reducer, backend, workers, window)
    journal.open(truncate=truncate, manifest=journal.manifest(backend))
    try:
        appended = 0
        for cell, key in zip(cells, keys):
            if key in cached:
                yield SweepOutcome(index=cell.index, params=dict(cell.params), row=cached[key])
                continue
            outcome = next(fresh)
            journal.append(key, outcome)
            appended += 1
            if appended % flush_every == 0:
                journal.flush()
            yield outcome
    finally:
        fresh.close()
        journal.close()


def sweep_rows(
    grid: SweepSpec | Sequence[SweepCell] | Sequence[RunSpec],
    reducer: Reducer,
    backend: ExecutionBackend | None = None,
    max_workers: int | None = None,
    window: int | None = None,
    journal: SweepJournal | str | os.PathLike | None = None,
    resume: bool = False,
) -> list[object]:
    """Collect every cell's reduced row, in cell order (one-call sweep)."""
    return [
        outcome.row
        for outcome in stream_sweep(
            grid,
            reducer=reducer,
            backend=backend,
            max_workers=max_workers,
            window=window,
            journal=journal,
            resume=resume,
        )
    ]
