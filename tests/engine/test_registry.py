"""Protocol registry: one dispatch point for every backend."""

import pickle
from fractions import Fraction

import pytest

from repro.crypto.signatures import KeyRegistry
from repro.engine.ingest import IngestPipeline
from repro.engine.registry import PROTOCOLS, ProtocolRegistry, ProtocolSpec
from repro.harness import TOBRunConfig, run_tob
from repro.protocols.tob_base import SleepyTOBProcess, resilient_factory


def test_default_registry_serves_both_paper_protocols():
    assert set(PROTOCOLS.names()) >= {"mmr", "resilient"}
    assert not PROTOCOLS.get("mmr").uses_eta
    assert PROTOCOLS.get("resilient").uses_eta


def test_factory_builds_parameterised_processes():
    registry = KeyRegistry(2, run_seed=0)
    verifier = IngestPipeline(registry)
    beta = Fraction(1, 4)
    mmr = PROTOCOLS.factory("mmr", eta=7, beta=beta)(0, registry.secret_key(0), verifier)
    res = PROTOCOLS.factory("resilient", eta=3)(1, registry.secret_key(1), verifier)
    assert type(mmr) is type(res) is SleepyTOBProcess  # one process class, two rows
    assert (mmr.eta, mmr._ga.beta) == (0, beta)  # eta ignored by design
    assert res.eta == 3
    pickle.dumps(PROTOCOLS.get("mmr"))  # rows cross process boundaries in sweeps


def test_unknown_protocol_rejected_with_known_names():
    with pytest.raises(ValueError, match="unknown protocol 'pbft'"):
        PROTOCOLS.get("pbft")
    with pytest.raises(ValueError, match="'mmr'"):
        PROTOCOLS.factory("pbft")


def test_effective_eta_reflects_protocol_semantics():
    assert PROTOCOLS.effective_eta("mmr", 5) == 0
    assert PROTOCOLS.effective_eta("resilient", 5) == 5


def test_duplicate_registration_refused_unless_replace():
    registry = ProtocolRegistry()
    spec = ProtocolSpec(name="x", build=resilient_factory)
    registry.register(spec)
    with pytest.raises(ValueError, match="already registered"):
        registry.register(spec)
    registry.register(spec, replace=True)
    assert "x" in registry


def test_registered_extension_runs_through_the_engine():
    """A new protocol name becomes runnable end to end at registration."""
    name = "mmr-alias-for-test"
    PROTOCOLS.register(ProtocolSpec(name=name, build=PROTOCOLS.get("mmr").build, uses_eta=False))
    try:
        trace = run_tob(TOBRunConfig(n=4, rounds=8, protocol=name))
        assert trace.decisions
        assert trace.meta["protocol"] == name
        assert trace.meta["eta"] == 0
    finally:
        PROTOCOLS._specs.pop(name)  # keep the shared registry clean
