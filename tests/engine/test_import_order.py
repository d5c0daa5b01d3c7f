"""Every module must be importable first, in a fresh interpreter.

The engine and sleepy packages reference each other (the simulator sits
on the engine's bus; the engine's spec speaks sleepy's vocabulary), and
the cycle is kept latent by lazy imports (``repro.sleepy.Simulation``,
``repro.engine`` backends).  A regression — e.g. an eager import added
on either side — only shows up for particular import *entry points*, so
each candidate entry point is probed in its own subprocess.
"""

import subprocess
import sys

import pytest

from tests.conftest import subprocess_env

ENTRY_POINTS = [
    "repro",
    "repro.engine",
    "repro.engine.bus",
    "repro.engine.backend",
    "repro.engine.registry",
    "repro.engine.deploy_backend",
    "repro.engine.ingest",
    "repro.engine.sweep",
    "repro.harness",
    "repro.analysis.batch",
    "repro.sleepy",
    "repro.sleepy.simulator",
    "repro.protocols.tob_base",
    "repro.protocols.graded_agreement",
    "repro.core.extended_ga",
    "repro.core.expiration",
    "repro.finality",
    "repro.runtime",
    "repro.workloads",
    "repro.cli",
]


@pytest.mark.parametrize("module", ENTRY_POINTS)
def test_module_imports_first(module):
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True,
        text=True,
        timeout=60,
        env=subprocess_env(),
    )
    assert result.returncode == 0, f"import {module} failed:\n{result.stderr[-2000:]}"


def test_lazy_simulation_export_resolves():
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            "from repro.sleepy import Simulation; print(Simulation.__name__)",
        ],
        capture_output=True,
        text=True,
        timeout=60,
        env=subprocess_env(),
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "Simulation"
