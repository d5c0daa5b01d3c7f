"""The grid table: every row's columns, reducer and overrides agree."""

import pytest

from repro.analysis.batch import GRIDS
from repro.engine.sweep import sweep_rows

#: Grids shrunk for the test; the rest are already small.
SMALL = {"pi-eta": {"n": 6}, "figure1": {"n": 12, "rounds": 24}, "attacks": {"n": 8}}


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_table_columns_name_keys_the_reducer_emits(name):
    """One real cell through the reducer, then through the table: a
    column naming a key the reducer (or the grid's view) never emits
    fails here, not in a bench."""
    job = GRIDS[name]
    overrides = SMALL.get(name, {})
    cell = job.build(**overrides).cells()[0]
    backend = job.backend() if job.backend is not None else None
    (row,) = sweep_rows([cell], job.reducer, backend=backend, max_workers=0)

    settings = {**job.base, **overrides}
    shown, extra = job.view([row], settings) if job.view is not None else ([row], {})
    missing = {key for _, key in job.columns} - set(shown[0])
    assert not missing, f"{name}: columns name keys nothing emits: {sorted(missing)}"

    lines = job.table([row], **overrides).splitlines()
    assert lines[0] == job.title.format(**settings, **extra)
    for header, _ in job.columns:
        assert header.format(**settings) in lines[1]
    assert len(lines) == 3 + len(shown)  # title, headers, rule, one line per shown row


def test_overrides_name_an_axis_or_a_base_constant_and_nothing_else():
    job = GRIDS["pi-eta"]
    grid = job.build(n=6, eta=(2,))
    assert [(c.params["eta"], c.params["pi"], c.params["n"]) for c in grid.cells()] == [
        (2, 1, 6), (2, 2, 6), (2, 3, 6), (2, 4, 6)
    ]
    with pytest.raises(TypeError, match="no setting"):
        job.build(etas=(2,))
    with pytest.raises(TypeError, match="no setting"):
        job.table([], rounds=3)
