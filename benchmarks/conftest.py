"""The experiments' one shared fixture.

Every module here regenerates one paper table/figure/claim (README.md,
"Tests and benchmarks"), asserts it, and reports its table two ways
through ``record``: printed to stdout (visible with
``pytest benchmarks -s``) and written to
``benchmarks/results/<test>.txt`` (untracked).  Nothing here measures
time; ``bench/`` does.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture
def record(request):
    """Returns ``record(text)``: print + persist an experiment's result table."""
    RESULTS_DIR.mkdir(exist_ok=True)
    target = RESULTS_DIR / f"{request.node.name}.txt"

    def _record(text: str) -> None:
        print()
        print(text)
        target.write_text(text + "\n")

    return _record
