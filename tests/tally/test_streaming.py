"""Bit-identity of the tally's one schedule across shard geometries.

The tally runs one pipelined schedule; its :class:`PipelineSpec` only sets
how finely the ballot stream is cut.  Every geometry must be *bit-for-bit*
identical to a reference tally built here from the reference functions —
:func:`tuple_mix_cascade` → :func:`filter_ballots` → :func:`decrypt_votes`
→ :func:`aggregate`, each phase run to completion — in everything
published: per-candidate counts, both mix cascades with their shadow-mix
proofs, the filter transcript, the decrypted vote list.  The property is
checked over every geometry of the ``pipeline_geometries`` fixture (one
shard holding every item, 1 x 1, 2 x 2 and the stress geometry), across
Serial/Thread/Process executors and Memory/SQLite board backends.  The
determinism argument is the randomness-tape discipline (every draw that
shapes output happens in the calling thread, in the reference order); these
tests pin it down by seeding the tape and comparing whole
:class:`TallyResult` objects.

Failure paths are covered too: a mixer dying mid-stream must propagate its
error promptly (no hang, no partial result).

The CI stress job reruns this module with randomized
``REPRO_PIPELINE_SHARD_SIZE`` / ``REPRO_PIPELINE_QUEUE_DEPTH``.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace

import pytest

from repro.audit.api import StreamingVerifier
from repro.audit.checks import audit_tally
from repro.crypto.elgamal import ElGamal, ElGamalCiphertext
from repro.crypto.group import Group
from repro.crypto.schnorr import schnorr_verify
from repro.crypto.tagging import TaggingAuthority
from repro.election import ElectionConfig, VotegralElection
from repro.ledger.api import as_board_view
from repro.runtime.executor import ProcessExecutor, SerialExecutor, ThreadExecutor
from repro.runtime.pipeline import PipelineSpec
from repro.tally import mixnet
from repro.tally.decrypt import aggregate, decrypt_votes
from repro.tally.filter import deduplicate_ballots, filter_ballots
from repro.tally.mixnet import (
    TupleCascade,
    streaming_tuple_mix_cascade,
    tuple_mix_cascade,
    verify_tuple_cascade,
)
from repro.tally.pipeline import TallyPipeline, TallyResult, _ballot_signature_items, verify_tally

NUM_VOTERS = 5
NUM_OPTIONS = 2
NUM_MIXERS = 3
PROOF_ROUNDS = 2


def _seeded_randomness(monkeypatch, seed: int) -> None:
    """Replace the two randomness sources that shape published output."""
    rng = random.Random(seed)
    monkeypatch.setattr(Group, "random_scalar", lambda self: rng.randrange(1, self.order))
    monkeypatch.setattr(mixnet, "random_permutation", lambda n: rng.sample(range(n), n))


@pytest.fixture(scope="module")
def voted_election():
    """One small election, registered and voted, shared by every geometry."""
    config = ElectionConfig(
        num_voters=NUM_VOTERS,
        num_options=NUM_OPTIONS,
        num_mixers=NUM_MIXERS,
        proof_rounds=PROOF_ROUNDS,
        fake_credentials_per_voter=1,
    )
    election = VotegralElection(config)
    election.run_setup()
    election.run_registration()
    election.run_voting()
    return election


@pytest.fixture(scope="module")
def backends():
    executors = {
        "serial": SerialExecutor(),
        "thread": ThreadExecutor(num_workers=2),
        "process": ProcessExecutor(num_workers=2),
    }
    yield executors
    for executor in executors.values():
        executor.close()


def _run_tally(election, executor, tagging, pipeline, num_mixers=NUM_MIXERS, collect_evidence=False):
    return TallyPipeline(
        group=election.group,
        authority=election.setup.authority,
        num_mixers=num_mixers,
        proof_rounds=PROOF_ROUNDS,
        executor=executor,
        tagging=tagging,
        pipeline=pipeline,
        collect_evidence=collect_evidence,
    ).run(election.setup.board, NUM_OPTIONS, election.config.election_id)


def _reference_tally(election, tagging, num_mixers=NUM_MIXERS) -> TallyResult:
    """The tally as the reference functions compute it, one phase after another."""
    authority = election.setup.authority
    elgamal = ElGamal(election.group)
    public_key = authority.public_key
    view = as_board_view(election.setup.board)
    records = [
        record
        for page in view.iter_ballot_pages(election_id=election.config.election_id)
        for record in page.records
    ]
    ballots = deduplicate_ballots([
        record
        for record, (key, message, signature) in zip(records, _ballot_signature_items(records))
        if schnorr_verify(key, message, signature)
    ])
    registration_inputs = [
        (ElGamalCiphertext(record.public_credential_c1, record.public_credential_c2),)
        for record in view.active_registrations()
    ]
    ballot_inputs = [
        (
            ElGamalCiphertext(record.ciphertext_c1, record.ciphertext_c2),
            elgamal.encrypt(public_key, record.credential_public_key, randomness=0),
        )
        for record in ballots
    ]
    registration_cascade = tuple_mix_cascade(
        elgamal, public_key, registration_inputs, num_mixers, PROOF_ROUNDS
    )
    ballot_cascade = (
        tuple_mix_cascade(elgamal, public_key, ballot_inputs, num_mixers, PROOF_ROUNDS)
        if ballot_inputs
        else TupleCascade(stages=[])
    )
    mixed_registrations = [item[0] for item in (registration_cascade.outputs or registration_inputs)]
    filter_result = filter_ballots(
        authority, tagging, [(vote, key) for vote, key in ballot_cascade.outputs],
        mixed_registrations, verify=False,
    )
    votes = decrypt_votes(authority, filter_result.counted, NUM_OPTIONS, verify=False)
    return TallyResult(
        counts=aggregate(votes, NUM_OPTIONS),
        num_ballots_on_ledger=view.num_ballots,
        num_valid_ballots=len(ballots),
        num_counted=len(filter_result.counted),
        num_discarded=filter_result.discarded + filter_result.duplicate_tags,
        registration_cascade=registration_cascade,
        ballot_cascade=ballot_cascade,
        filter_result=filter_result,
        votes=votes,
        num_options=NUM_OPTIONS,
    )


def _assert_every_geometry_matches(monkeypatch, seed, reference, tally, geometries):
    """``tally(spec)`` under the seeded tape equals ``reference`` for every geometry."""
    results = []
    for spec in geometries:
        _seeded_randomness(monkeypatch, seed)
        result = tally(spec)
        assert result == reference, f"geometry {spec} diverged from the reference tally"
        results.append(result)
    return results


# ------------------------------------------------------------------ cascade


def _cascade_inputs(group, count=9):
    elgamal = ElGamal(group)
    secret = group.random_scalar()
    public_key = group.power(secret)
    inputs = [
        (elgamal.encrypt(public_key, group.power(i + 1)), elgamal.encrypt(public_key, group.power(i + 2)))
        for i in range(count)
    ]
    return elgamal, public_key, inputs


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_streaming_cascade_bit_identical(monkeypatch, voted_election, backends, backend, pipeline_geometries):
    group = voted_election.group
    elgamal, public_key, inputs = _cascade_inputs(group)

    _seeded_randomness(monkeypatch, 41)
    reference = tuple_mix_cascade(elgamal, public_key, inputs, NUM_MIXERS, PROOF_ROUNDS)
    [streamed, *_] = _assert_every_geometry_matches(
        monkeypatch, 41, reference,
        lambda spec: streaming_tuple_mix_cascade(
            elgamal, public_key, inputs, NUM_MIXERS, PROOF_ROUNDS,
            executor=backends[backend], pipeline=spec,
        ),
        pipeline_geometries,
    )
    assert verify_tuple_cascade(elgamal, public_key, inputs, streamed)


def test_streaming_cascade_empty_and_single(pipeline_geometries):
    group = VotegralElection(ElectionConfig(num_voters=1)).group
    elgamal, public_key, inputs = _cascade_inputs(group, count=1)
    for spec in pipeline_geometries:
        streamed = streaming_tuple_mix_cascade(elgamal, public_key, inputs, 2, PROOF_ROUNDS, pipeline=spec)
        assert verify_tuple_cascade(elgamal, public_key, inputs, streamed)
        empty = streaming_tuple_mix_cascade(elgamal, public_key, [], 2, PROOF_ROUNDS, pipeline=spec)
        assert empty.outputs == []


# ------------------------------------------------------------------ full tally


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_streamed_tally_bit_identical(monkeypatch, voted_election, backends, backend, pipeline_geometries):
    group = voted_election.group
    tagging = TaggingAuthority.create(group, voted_election.setup.authority.num_members)

    _seeded_randomness(monkeypatch, 97)
    reference = _reference_tally(voted_election, tagging)
    [streamed, *_] = _assert_every_geometry_matches(
        monkeypatch, 97, reference,
        lambda spec: _run_tally(voted_election, backends[backend], tagging, spec),
        pipeline_geometries,
    )
    args = (group, voted_election.setup.authority, voted_election.setup.board, streamed)
    assert verify_tally(*args, voted_election.config.election_id, executor=backends[backend])
    report = audit_tally(
        *args, election_id=voted_election.config.election_id,
        verifier=StreamingVerifier(shard_size=2, queue_depth=2),
    )
    assert report.ok, report.summary()


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_streamed_tally_evidence(monkeypatch, voted_election, backends, backend, pipeline_geometries):
    """The stages emit the evidence in their own pass, on any executor.

    Evidence changes nothing else that is published, its tags are the very
    tags the join used, and the audit accepts it under both strategies.
    """
    group = voted_election.group
    authority = voted_election.setup.authority
    tagging = TaggingAuthority.create(group, authority.num_members)

    _seeded_randomness(monkeypatch, 59)
    reference = _reference_tally(voted_election, tagging)
    for spec in pipeline_geometries:
        _seeded_randomness(monkeypatch, 59)
        streamed = _run_tally(voted_election, backends[backend], tagging, spec, collect_evidence=True)

        evidence = streamed.evidence
        assert evidence is not None
        assert replace(streamed, evidence=None) == reference, f"geometry {spec}"
        filter_result = streamed.filter_result
        assert [chain.tag.to_bytes() for chain in evidence.registration_tags] == filter_result.registration_tags
        assert [chain.tag.to_bytes() for chain in evidence.ballot_tags] == filter_result.ballot_tags
        assert [transcript.ciphertext for transcript in evidence.decryptions] == filter_result.counted
    for verifier in ("eager", "batched"):
        report = audit_tally(
            group, authority, voted_election.setup.board, streamed,
            election_id=voted_election.config.election_id, verifier=verifier,
        )
        assert report.ok, f"{verifier}: {report.summary()}"


def test_streamed_tally_on_sqlite_board(monkeypatch, tmp_path, pipeline_geometries):
    """The persistent backend: same result under every geometry, chains intact."""
    config = ElectionConfig(
        num_voters=4,
        num_mixers=2,
        proof_rounds=2,
        board_spec=f"sqlite:{tmp_path / 'board.db'}",
    )
    election = VotegralElection(config)
    election.run_setup()
    election.run_registration()
    election.run_voting(rng=random.Random(5))
    tagging = TaggingAuthority.create(election.group, election.setup.authority.num_members)

    _seeded_randomness(monkeypatch, 13)
    reference = _reference_tally(election, tagging, num_mixers=2)
    [streamed, *_] = _assert_every_geometry_matches(
        monkeypatch, 13, reference,
        lambda spec: _run_tally(election, SerialExecutor(), tagging, spec, num_mixers=2),
        pipeline_geometries,
    )
    # The tally only reads: every hash chain must still verify afterwards.
    assert election.setup.board.verify_all_chains()
    assert verify_tally(
        election.group, election.setup.authority, election.setup.board, streamed, config.election_id,
    )
    election.close()


def test_streaming_without_ballots_matches_serial(monkeypatch, pipeline_geometries):
    """Registrations but zero ballots: every geometry publishes the reference's nothing."""
    config = ElectionConfig(num_voters=3, num_mixers=2, proof_rounds=2)
    election = VotegralElection(config)
    election.run_setup()
    election.run_registration()
    tagging = TaggingAuthority.create(election.group, election.setup.authority.num_members)

    _seeded_randomness(monkeypatch, 23)
    reference = _reference_tally(election, tagging, num_mixers=2)
    [streamed, *_] = _assert_every_geometry_matches(
        monkeypatch, 23, reference,
        lambda spec: _run_tally(election, SerialExecutor(), tagging, spec, num_mixers=2),
        pipeline_geometries,
    )
    assert streamed.num_counted == 0
    assert streamed.ballot_cascade.stages == []
    assert len(streamed.filter_result.registration_tags) == 3


def test_zero_mixer_cascade_matches_serial(monkeypatch, voted_election, pipeline_geometries):
    """num_mixers=0 publishes an empty cascade — and thus counts nothing —
    under every geometry (raw ballots must never reach tagging), while the
    registration tags are still derived."""
    tagging = TaggingAuthority.create(voted_election.group, voted_election.setup.authority.num_members)

    _seeded_randomness(monkeypatch, 31)
    reference = _reference_tally(voted_election, tagging, num_mixers=0)
    [streamed, *_] = _assert_every_geometry_matches(
        monkeypatch, 31, reference,
        lambda spec: _run_tally(voted_election, None, tagging, spec, num_mixers=0),
        pipeline_geometries,
    )
    assert streamed.num_counted == 0
    assert streamed.ballot_cascade.stages == []
    assert streamed.filter_result.registration_tags


def test_config_wires_streaming_end_to_end(pipeline_geometries):
    stress = pipeline_geometries[-1]
    config = ElectionConfig(
        num_voters=4, num_mixers=2, proof_rounds=2,
        pipeline_spec=f"stream:{stress.shard_size}:{stress.queue_depth}",
    )
    with VotegralElection(config) as election:
        report = election.run(rng=random.Random(3))
    assert report.universally_verified
    assert report.counts_match_intent


# ------------------------------------------------------------------ failure paths


class _FlakyExecutor(SerialExecutor):
    """Serial executor that dies after a fixed number of starmap batches."""

    def __init__(self, fail_after: int):
        self.calls = 0
        self.fail_after = fail_after

    def starmap(self, fn, items, chunksize=None):
        self.calls += 1
        if self.calls > self.fail_after:
            raise RuntimeError("injected mixer crash")
        return super().starmap(fn, items, chunksize=chunksize)


def test_midstream_mixer_failure_propagates(voted_election):
    group = voted_election.group
    elgamal, public_key, inputs = _cascade_inputs(group, count=12)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="injected mixer crash"):
        streaming_tuple_mix_cascade(
            elgamal, public_key, inputs, NUM_MIXERS, PROOF_ROUNDS,
            executor=_FlakyExecutor(fail_after=3),
            pipeline=PipelineSpec(shard_size=2, queue_depth=1),
        )
    # Cancellation must tear the pipeline down promptly, not hang on queues.
    assert time.perf_counter() - start < 10


def test_midstream_tally_failure_propagates(voted_election):
    tagging = TaggingAuthority.create(
        voted_election.group, voted_election.setup.authority.num_members
    )
    with pytest.raises(RuntimeError, match="injected mixer crash"):
        _run_tally(
            voted_election,
            _FlakyExecutor(fail_after=8),
            tagging,
            PipelineSpec(shard_size=1, queue_depth=1),
        )
