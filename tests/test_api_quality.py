"""Meta-tests: public-API quality gates.

A library release should not ship undocumented public callables or a
broken top-level namespace; these tests make that a regression.
"""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import repro

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.chain",
    "repro.core",
    "repro.crypto",
    "repro.finality",
    "repro.net",
    "repro.protocols",
    "repro.runtime",
    "repro.sleepy",
    "repro.workloads",
]


def iter_public_modules():
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        yield package
        for info in pkgutil.iter_modules(package.__path__, prefix=f"{package_name}."):
            if not info.name.rsplit(".", 1)[-1].startswith("_"):
                yield importlib.import_module(info.name)


_MISSING = object()


def test_all_exports_resolve():
    for module in iter_public_modules():
        for name in getattr(module, "__all__", []):
            # Note: sentinel, not None — GENESIS_TIP is a legitimate None.
            assert getattr(module, name, _MISSING) is not _MISSING, f"{module.__name__}.{name}"


def test_every_module_has_a_docstring():
    for module in iter_public_modules():
        assert module.__doc__ and module.__doc__.strip(), module.__name__


def test_every_public_callable_is_documented():
    undocumented = []
    for module in iter_public_modules():
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            if getattr(obj, "__module__", "") != module.__name__:
                continue  # re-export; documented at home
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(f"{module.__name__}.{name}")
            if inspect.isclass(obj):
                for method_name, method in vars(obj).items():
                    if method_name.startswith("_") or not inspect.isfunction(method):
                        continue
                    if not _documented_in_mro(obj, method_name):
                        undocumented.append(f"{module.__name__}.{name}.{method_name}")
    assert not undocumented, f"undocumented public callables: {undocumented}"


def _documented_in_mro(cls, method_name: str) -> bool:
    # Overrides of a documented base method (send/receive/awake/...)
    # inherit the contract; requiring repeated docstrings would invite
    # copy-paste rot.
    for base in cls.__mro__:
        method = vars(base).get(method_name)
        if method is not None and getattr(method, "__doc__", None):
            if method.__doc__.strip():
                return True
    return False


def test_top_level_namespace_is_curated():
    # Everything advertised in repro.__all__ imports and is distinct.
    assert len(repro.__all__) == len(set(repro.__all__))
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_version_is_exposed():
    assert repro.__version__


def test_the_runtime_does_not_import_networkx():
    """Every sample and every spawned worker pays the import bill, and
    networkx was 180 ms and 24 MiB of it per interpreter: it is a test
    dependency (the overlay parity test), never a runtime one."""
    probe = (
        "import sys; import repro; import repro.runtime.worker; "
        "print('networkx' in sys.modules)"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert result.stdout.strip() == "False", result.stdout
