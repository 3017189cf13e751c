"""Audit soundness under evidence mutation (stateless-model-checking spirit).

For each evidence class — ballot proof, shuffle transcript, decryption
share, tag chain (both families), ledger batch chain, ledger hash chain —
flip one byte (or the minimal scalar/element perturbation the type allows)
and assert that *all three strategies* reject with the *same failure
locus*.  On valid elections the three strategies must produce bit-identical
:class:`~repro.audit.api.AuditReport` outcomes; on mutated evidence the
streaming report may truncate after the failing shard but must agree with
the eager report on everything it checked.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.audit.api import AuditPlan, BatchedVerifier, EagerVerifier, StreamingVerifier
from repro.audit.checks import ballot_checks, cascade_checks, decryption_checks
from repro.audit.evidence import decryption_transcript
from repro.audit.api import Check
from repro.crypto.elgamal import ElGamal
from repro.crypto.schnorr import schnorr_keygen
from repro.crypto.tagging import TaggingAuthority
from repro.ledger.backends.batched import BatchSummary, BatchedBoard
from repro.ledger.backends.memory import MemoryBackend
from repro.ledger.log import AppendOnlyLog
from repro.tally.mixnet import TupleCascade, TupleOpening, shuffle_coins_ok, tuple_mix_cascade
from repro.voting.ballot import make_ballot

STRATEGIES = {
    "eager": lambda: EagerVerifier(),
    "batched": lambda: BatchedVerifier(chunk_size=4),
    "stream": lambda: StreamingVerifier(shard_size=3, queue_depth=1),
}


def _flip_byte(data: bytes, position: int = 0) -> bytes:
    mutated = bytearray(data)
    mutated[position % len(mutated)] ^= 0x01
    return bytes(mutated)


def _run_all(plan_factory):
    return {name: factory().run(plan_factory()) for name, factory in STRATEGIES.items()}


def _assert_same_rejection(reports, expected_locus=None):
    """All strategies reject, agree on the locus, and agree on shared prefixes."""
    eager = reports["eager"]
    assert not eager.ok
    for name, report in reports.items():
        assert not report.ok, f"{name} accepted mutated evidence"
        assert report.first_failure == eager.first_failure, name
        # Whatever a (possibly truncated) report checked, it judged identically.
        assert eager.results[: len(report.results)] == report.results, name
    if expected_locus is not None:
        assert eager.first_failure.name == expected_locus
    return eager.first_failure


@pytest.fixture()
def tagging(group):
    return TaggingAuthority.create(group, 3)


class TestBallotProofMutations:
    def _plan(self, group, dkg, ballot, num_options=3):
        return lambda: AuditPlan(ballot_checks(group, dkg.public_key, ballot, num_options))

    def test_valid_ballot_accepted_identically(self, group, dkg):
        ballot = make_ballot(group, dkg.public_key, schnorr_keygen(group), 1, 3)
        reports = _run_all(self._plan(group, dkg, ballot))
        assert all(report.ok for report in reports.values())
        assert len({report.fingerprint() for report in reports.values()}) == 1

    def test_mutated_signature_rejected(self, group, dkg):
        ballot = make_ballot(group, dkg.public_key, schnorr_keygen(group), 1, 3)
        forged = replace(ballot, signature=replace(ballot.signature, response=ballot.signature.response ^ 1))
        _assert_same_rejection(
            _run_all(self._plan(group, dkg, forged)), expected_locus="ballot.signature"
        )

    def test_mutated_wellformedness_rejected(self, group, dkg):
        ballot = make_ballot(group, dkg.public_key, schnorr_keygen(group), 1, 3)
        proof = ballot.wellformedness
        tampered = replace(
            proof, responses=[proof.responses[0] ^ 1] + list(proof.responses[1:])
        )
        forged = replace(ballot, wellformedness=tampered)
        _assert_same_rejection(
            _run_all(self._plan(group, dkg, forged)), expected_locus="ballot.wellformedness"
        )

    def test_mutated_key_proof_rejected(self, group, dkg):
        ballot = make_ballot(group, dkg.public_key, schnorr_keygen(group), 1, 3)
        forged = replace(ballot, key_proof=replace(ballot.key_proof, response=ballot.key_proof.response ^ 1))
        _assert_same_rejection(
            _run_all(self._plan(group, dkg, forged)), expected_locus="ballot.credential-key-proof"
        )


class TestShuffleTranscriptMutations:
    def _cascade(self, group, dkg, count=5, mixers=2, rounds=3):
        elgamal = ElGamal(group)
        inputs = [
            (elgamal.encrypt(dkg.public_key, group.power(i + 2)),
             elgamal.encrypt(dkg.public_key, group.power(i + 9)))
            for i in range(count)
        ]
        cascade = tuple_mix_cascade(elgamal, dkg.public_key, inputs, mixers, rounds)
        return elgamal, inputs, cascade

    def test_valid_cascade_accepted_identically(self, group, dkg):
        elgamal, inputs, cascade = self._cascade(group, dkg)
        reports = _run_all(lambda: AuditPlan(cascade_checks(elgamal, dkg.public_key, inputs, cascade)))
        assert all(report.ok for report in reports.values())
        assert len({report.fingerprint() for report in reports.values()}) == 1

    def test_mutated_opening_randomness_rejected(self, group, dkg):
        elgamal, inputs, cascade = self._cascade(group, dkg)
        stage = cascade.stages[1]
        round_ = stage.rounds[2]
        opening = round_.opening
        tampered_randomness = [list(row) for row in opening.randomness]
        tampered_randomness[0][0] ^= 1
        tampered_stage = replace(
            stage,
            rounds=stage.rounds[:2]
            + [replace(round_, opening=TupleOpening(opening.permutation, tampered_randomness))]
            + stage.rounds[3:],
        )
        tampered = TupleCascade(stages=[cascade.stages[0], tampered_stage] + cascade.stages[2:])
        _assert_same_rejection(
            _run_all(lambda: AuditPlan(cascade_checks(elgamal, dkg.public_key, inputs, tampered))),
            expected_locus="cascade[1].round[2]",
        )

    def test_swapped_stages_fail_at_first_bad_coin_check(self, group, dkg):
        elgamal, inputs, cascade = self._cascade(group, dkg)
        tampered = TupleCascade(stages=[cascade.stages[1], cascade.stages[0]])
        locus = _assert_same_rejection(
            _run_all(lambda: AuditPlan(cascade_checks(elgamal, dkg.public_key, inputs, tampered)))
        )
        # Stage 0 (the swapped-in second mixer) is judged against the wrong
        # inputs.  Its re-derived Fiat–Shamir coins expose the swap, and so
        # does any round that opens the input side.  Only when the coins
        # happen to match (2^-rounds) and every round opens the
        # shadow→output side, which stays internally consistent, does stage
        # 0 pass; then the first failure is legitimately in stage 1.
        first = tampered.stages[0]
        stage0_passes = shuffle_coins_ok(inputs, first) and not any(
            round_.opens_input_side for round_ in first.rounds
        )
        assert locus.name.startswith("cascade[1]." if stage0_passes else "cascade[0].")


class TestDecryptionShareMutations:
    def _plan(self, dkg, transcript):
        publics = [member.public for member in dkg.members]
        return lambda: AuditPlan(decryption_checks(transcript, publics, "decryption[0]"))

    def test_valid_transcript_accepted_identically(self, group, dkg):
        elgamal = ElGamal(group)
        ciphertext = elgamal.encrypt(dkg.public_key, group.power(5))
        transcript = decryption_transcript(dkg, ciphertext)
        reports = _run_all(self._plan(dkg, transcript))
        assert all(report.ok for report in reports.values())

    def test_mutated_share_response_rejected(self, group, dkg):
        elgamal = ElGamal(group)
        ciphertext = elgamal.encrypt(dkg.public_key, group.power(5))
        transcript = decryption_transcript(dkg, ciphertext)
        bad = replace(transcript.shares[1], response=transcript.shares[1].response ^ 1)
        tampered = replace(
            transcript, shares=(transcript.shares[0], bad) + transcript.shares[2:]
        )
        _assert_same_rejection(
            _run_all(self._plan(dkg, tampered)), expected_locus="decryption[0].share[2]"
        )

    def test_substituted_share_value_rejected(self, group, dkg):
        elgamal = ElGamal(group)
        ciphertext = elgamal.encrypt(dkg.public_key, group.power(5))
        transcript = decryption_transcript(dkg, ciphertext)
        bad = replace(transcript.shares[0], share=transcript.shares[0].share * group.generator)
        tampered = replace(transcript, shares=(bad,) + transcript.shares[1:])
        _assert_same_rejection(
            _run_all(self._plan(dkg, tampered)), expected_locus="decryption[0].share[1]"
        )


class TestTagChainMutations:
    def test_element_chain_mutation_rejected(self, group, tagging):
        element = group.power(7)
        tag = tagging.blind_element(element)
        tampered_step = replace(tag.steps[1], after=tag.steps[1].after * group.generator)
        tampered = replace(tag, steps=[tag.steps[0], tampered_step] + tag.steps[2:])
        plan = lambda: AuditPlan(
            [Check("tag-chain", "tag[0].chain", (tampered, element, tuple(tagging.commitments)))]
        )
        _assert_same_rejection(_run_all(plan), expected_locus="tag[0].chain")

    def test_ciphertext_chain_proof_mutation_rejected(self, group, dkg, tagging):
        elgamal = ElGamal(group)
        ciphertext = elgamal.encrypt(dkg.public_key, group.power(3))
        blinded, steps = tagging.blind_ciphertext_with_proof(ciphertext)
        bad_proof = replace(steps[0].proof_c2, response=steps[0].proof_c2.response ^ 1)
        tampered = [replace(steps[0], proof_c2=bad_proof)] + steps[1:]
        plan = lambda: AuditPlan(
            [
                Check(
                    "ciphertext-tag-chain",
                    "tag[ballot][0].blind-steps",
                    (tuple(tampered), ciphertext, blinded, tuple(tagging.commitments)),
                )
            ]
        )
        _assert_same_rejection(_run_all(plan), expected_locus="tag[ballot][0].blind-steps")

    def test_valid_chains_accepted_identically(self, group, dkg, tagging):
        elgamal = ElGamal(group)
        element = group.power(7)
        ciphertext = elgamal.encrypt(dkg.public_key, group.power(3))
        tag = tagging.blind_element(element)
        blinded, steps = tagging.blind_ciphertext_with_proof(ciphertext)
        plan = lambda: AuditPlan(
            [
                Check("tag-chain", "tag[0]", (tag, element, tuple(tagging.commitments))),
                Check(
                    "ciphertext-tag-chain",
                    "tag[1]",
                    (tuple(steps), ciphertext, blinded, tuple(tagging.commitments)),
                ),
            ]
        )
        reports = _run_all(plan)
        assert all(report.ok for report in reports.values())
        assert len({report.fingerprint() for report in reports.values()}) == 1


class TestLedgerChainMutations:
    def test_flipped_log_payload_rejected(self):
        log = AppendOnlyLog("L_V")
        for index in range(6):
            log.append(b"payload-%d" % index)
        entries = log.entries()
        entries[3] = replace(entries[3], payload=_flip_byte(entries[3].payload))
        plan = lambda: AuditPlan(
            [Check("ledger-chain", "ledger.ballot-chain", ("ballot", tuple(entries)))]
        )
        _assert_same_rejection(_run_all(plan), expected_locus="ledger.ballot-chain")

    def test_board_view_audit_chains_names_locus(self):
        from repro.ledger.api import BoardView

        backend = MemoryBackend()
        backend.publish_electoral_roll(["alice", "bob"])
        view = BoardView(backend)
        report = view.audit_chains()
        assert report.ok and view.verify_all_chains()
        assert {result.name for result in report.results} == {
            "ledger.registration-chain", "ledger.envelope-chain", "ledger.ballot-chain"
        }
        # Tamper with the live log and the locus names the chain.
        backend.registration_log._entries[0] = replace(
            backend.registration_log._entries[0],
            payload=_flip_byte(backend.registration_log._entries[0].payload),
        )
        report = view.audit_chains()
        assert not report.ok
        assert report.first_failure.name == "ledger.registration-chain"
        assert not view.verify_all_chains()

    def test_flipped_batch_digest_rejected(self, group):
        board = BatchedBoard(MemoryBackend(), batch_size=2)
        board.publish_electoral_roll([f"v{i}" for i in range(4)])
        board.flush()
        batches = [
            BatchSummary.compute_digest(0, b"\x00" * 32, [b"a", b"b"]),
        ]
        # Build a real chained batch history, then flip one digest byte.
        first = BatchSummary(0, 2, b"\x00" * 32, batches[0])
        second = BatchSummary(
            1, 1, first.digest, BatchSummary.compute_digest(1, first.digest, [b"c"])
        )
        valid = (first, second)
        plan_valid = lambda: AuditPlan([Check("batch-chain", "ledger.ingest-batches", (valid,))])
        assert all(report.ok for report in _run_all(plan_valid).values())

        tampered = (first, replace(second, previous_digest=_flip_byte(second.previous_digest)))
        plan_bad = lambda: AuditPlan([Check("batch-chain", "ledger.ingest-batches", (tampered,))])
        _assert_same_rejection(_run_all(plan_bad), expected_locus="ledger.ingest-batches")


class TestRegistrationAuditNamesLocus:
    def test_failed_record_names_predicate(self, group, small_setup):
        from repro.registration.official import RegistrationOfficial

        record = None
        from repro.registration.protocol import RegistrationSession
        from repro.registration.voter import Voter

        session = RegistrationSession(setup=small_setup)
        outcome = session.register(Voter("alice"))
        record = outcome.record
        keys = small_setup.registrar.kiosk_public_keys
        assert RegistrationOfficial.verify_record(record, keys)

        forged = replace(record, official_signature=replace(
            record.official_signature, response=record.official_signature.response ^ 1
        ))
        report = RegistrationOfficial.audit_record(forged, keys)
        assert not report.ok
        assert report.first_failure.name == "registration[alice].official-signature"

        unauthorized = replace(record, kiosk_public_key=group.generator)
        report = RegistrationOfficial.audit_record(unauthorized, keys)
        assert not report.ok
        assert report.first_failure.name == "registration[alice].kiosk-authorized"

    def test_failed_rotation_names_record(self, group):
        from repro.crypto.hashing import sha256
        from repro.crypto.schnorr import schnorr_sign
        from repro.registration.extensions import RotationRecord, audit_rotation

        old = schnorr_keygen(group)
        new = schnorr_keygen(group)
        record = RotationRecord(
            old_public_key=old.public,
            new_public_key=new.public,
            signature=schnorr_sign(
                old, sha256(b"credential-rotation", old.public.to_bytes(), new.public.to_bytes())
            ),
        )
        assert audit_rotation(record).ok
        forged = replace(record, new_public_key=record.new_public_key * group.generator)
        report = audit_rotation(forged)
        assert not report.ok
        locus = record.old_public_key.to_bytes().hex()[:12]
        assert report.first_failure.name == f"rotation[{locus}].signature"
