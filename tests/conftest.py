"""Shared fixtures and helpers for the whole test suite."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.chain.block import Block, genesis_block
from repro.chain.tree import BlockTree
from repro.crypto.signatures import KeyRegistry
from repro.engine.ingest import IngestPipeline


def subprocess_env() -> dict[str, str]:
    """Env for subprocesses that import ``repro`` (examples, ``-m repro``).

    Subprocesses do not inherit pytest's ``pythonpath`` ini setting, so
    ``src/`` must be forwarded through ``PYTHONPATH`` explicitly.
    """
    src = Path(__file__).resolve().parents[1] / "src"
    return {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p
        ),
    }


@pytest.fixture
def registry() -> KeyRegistry:
    """A registry of 32 processes (large enough for every unit test)."""
    return KeyRegistry(32, run_seed=7)


@pytest.fixture
def verifier(registry: KeyRegistry) -> IngestPipeline:
    """The verifier every backend runs — there is no other."""
    return IngestPipeline(registry)


@pytest.fixture
def genesis() -> Block:
    return genesis_block()


@pytest.fixture
def tree(genesis: Block) -> BlockTree:
    return BlockTree([genesis])


def make_chain(tree: BlockTree, length: int, proposer: int = 0, fork_salt: int = 0) -> list[Block]:
    """Append a chain of ``length`` blocks to the deepest tip; returns them.

    ``fork_salt`` differentiates chains so tests can build forks.
    """
    parent = genesis_block().block_id
    blocks: list[Block] = []
    for i in range(length):
        block = Block(parent=parent, proposer=proposer, view=i + 1, salt=fork_salt)
        tree.add(block)
        blocks.append(block)
        parent = block.block_id
    return blocks


def extend(tree: BlockTree, parent_id, count: int, proposer: int = 0, salt: int = 0) -> list[Block]:
    """Append ``count`` blocks under ``parent_id``; returns them."""
    blocks: list[Block] = []
    parent = parent_id
    for i in range(count):
        block = Block(parent=parent, proposer=proposer, view=i + 1, salt=salt)
        tree.add(block)
        blocks.append(block)
        parent = block.block_id
    return blocks
