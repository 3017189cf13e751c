"""Threshold decryption of the surviving vote ciphertexts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro import telemetry
from repro.audit.evidence import DecryptionTranscript, EvidenceLog, decryption_transcript
from repro.crypto.dkg import DistributedKeyGeneration
from repro.crypto.elgamal import ElGamalCiphertext
from repro.crypto.group import Group, GroupElement
from repro.errors import TallyError
from repro.runtime.executor import Executor
from repro.runtime.sharding import parallel_starmap


@dataclass(frozen=True)
class DecryptedVote:
    """One decrypted ballot: the candidate index it encodes."""

    choice: int


def _decode_vote(group: Group, plaintext: GroupElement, num_options: int) -> DecryptedVote:
    try:
        choice = group.decode_int(plaintext, max_value=num_options - 1)
    except ValueError as exc:
        raise TallyError("a counted ballot does not encode a valid candidate") from exc
    return DecryptedVote(choice=choice)


def _decrypt_one(
    dkg: DistributedKeyGeneration,
    ciphertext: ElGamalCiphertext,
    num_options: int,
    verify: bool,
) -> DecryptedVote:
    """Decrypt one ballot — module-level so process executors can run it."""
    return _decode_vote(dkg.group, dkg.decrypt(ciphertext, verify=verify), num_options)


def decrypt_ciphertexts(
    dkg: DistributedKeyGeneration,
    ciphertexts: Sequence[ElGamalCiphertext],
    num_options: int,
    verify: bool,
    executor: Optional[Executor] = None,
    transcripts: Optional[List[DecryptionTranscript]] = None,
) -> List[DecryptedVote]:
    """Decrypt and decode ``ciphertexts`` in order, fanned out over ``executor``.

    Without ``transcripts`` members contribute bare decryption factors.
    With a ``transcripts`` list, each decryption is made with share proofs
    instead (:func:`~repro.audit.evidence.decryption_transcript`), the
    transcript is appended to ``transcripts`` and the vote is decoded from
    it.
    """
    if transcripts is None:
        jobs = [(dkg, ciphertext, num_options, verify) for ciphertext in ciphertexts]
        return parallel_starmap(_decrypt_one, jobs, executor=executor)
    made = parallel_starmap(
        decryption_transcript, [(dkg, ciphertext, verify) for ciphertext in ciphertexts], executor=executor
    )
    transcripts.extend(made)
    return [_decode_vote(dkg.group, transcript.plaintext(), num_options) for transcript in made]


def decrypt_votes(
    dkg: DistributedKeyGeneration,
    ciphertexts: Sequence[ElGamalCiphertext],
    num_options: int,
    verify: bool = True,
    executor: Optional[Executor] = None,
    evidence: Optional[EvidenceLog] = None,
) -> List[DecryptedVote]:
    """Jointly decrypt the counted ballots (exponential ElGamal decode).

    Each ballot decrypts independently, so the work shards across the
    executor; ballot order (and thus the published vote list) is preserved.
    With an ``evidence`` log, each decryption's transcript is appended to
    ``evidence.decryptions`` (see :func:`decrypt_ciphertexts`).
    """
    transcripts = evidence.decryptions if evidence is not None else None
    with telemetry.span("tally.decrypt", items=len(ciphertexts)):
        return decrypt_ciphertexts(
            dkg, ciphertexts, num_options, verify, executor=executor, transcripts=transcripts
        )


def aggregate(votes: Sequence[DecryptedVote], num_options: int) -> Dict[int, int]:
    """Per-candidate totals."""
    counts = {option: 0 for option in range(num_options)}
    for vote in votes:
        counts[vote.choice] += 1
    return counts
