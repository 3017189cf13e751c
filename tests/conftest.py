"""Shared fixtures for the test suite.

All protocol tests run over the small (insecure, clearly-labelled) testing
group so the full suite stays fast; a handful of tests exercise the Ed25519
and 2048-bit backends directly to validate the real parameter sets.
"""

from __future__ import annotations

import os

import pytest

from repro.crypto.dkg import DistributedKeyGeneration
from repro.crypto.elgamal import ElGamal
from repro.crypto.modp_group import testing_group
from repro.ledger.bulletin_board import BulletinBoard
from repro.registration.setup import ElectionSetup
from repro.runtime.pipeline import PipelineSpec


@pytest.fixture(scope="session")
def group():
    """The fast testing group shared by the whole suite."""
    return testing_group()


@pytest.fixture(scope="session")
def elgamal(group):
    return ElGamal(group)


@pytest.fixture()
def dkg(group):
    """A fresh 3-member authority DKG."""
    return DistributedKeyGeneration.run(group, 3)


@pytest.fixture()
def board():
    return BulletinBoard()


@pytest.fixture()
def small_setup(group):
    """An election setup with three eligible voters."""
    return ElectionSetup.run(
        group,
        ["alice", "bob", "carol"],
        num_authority_members=3,
        envelopes_per_voter=4,
    )


@pytest.fixture(scope="session")
def pipeline_geometries():
    """The shard geometries every tally bit-identity property ranges over.

    One shard holding every item (the serial schedule), one item per shard
    with queue depth 1, 2 x 2, and the stress geometry the CI job draws
    through ``REPRO_PIPELINE_SHARD_SIZE`` / ``REPRO_PIPELINE_QUEUE_DEPTH``.
    """
    stress = PipelineSpec(
        shard_size=int(os.environ.get("REPRO_PIPELINE_SHARD_SIZE", "2")),
        queue_depth=int(os.environ.get("REPRO_PIPELINE_QUEUE_DEPTH", "2")),
    )
    geometries = [PipelineSpec(), PipelineSpec(1, 1), PipelineSpec(2, 2), stress]
    return list(dict.fromkeys(geometries))
