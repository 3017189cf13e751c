"""Self-describing audit evidence published alongside a tally result.

The paper's universal-verifiability story needs every tally-side secret
operation to leave a publicly checkable transcript.  The mix cascades always
publish theirs (shadow-mix proofs); this module adds the two that used to be
verified only *inside* the pipeline and then thrown away:

* :class:`DecryptionTranscript` — one threshold decryption: the ciphertext,
  every member's public share and :class:`~repro.crypto.elgamal.
  DecryptionShare` (with its Chaum–Pedersen proof).  Anyone can recombine
  the shares and re-derive the plaintext.
* :class:`TagChainEvidence` — one blinded-tag derivation: the source
  ciphertext, the per-member :class:`~repro.crypto.tagging.
  CiphertextTaggingStep` proofs, the fully blinded ciphertext, its
  decryption transcript, and the resulting tag value.

:class:`TallyEvidence` bundles these for every registration tag, ballot tag
and counted vote, plus the commitment sets that bind the transcripts to the
election (tagging commitments, authority member keys).  In the WaTZ spirit,
the bundle is *self-describing*: an auditor needs the bundle, the board and
the claimed result — no live authority objects, no secrets.

Generation is opt-in (``TallyPipeline(collect_evidence=True)`` /
``ElectionConfig.audit_evidence``).  The tally's tag and decrypt stages emit
these transcripts in the same pass that derives the tags and plaintexts
(into an :class:`EvidenceLog`), so evidence costs only its proofs: per
member, two tagging proofs per tag and one share proof per decryption —
with ``n`` members, ``6n`` variable-base exponentiations and ``3n``
generator powers per tag instead of ``3n`` and none, and ``2n + n`` per
counted vote instead of ``n`` (see ``docs/performance.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.crypto.dkg import DistributedKeyGeneration
from repro.crypto.elgamal import DecryptionShare, ElGamal, ElGamalCiphertext
from repro.crypto.group import GroupElement
from repro.crypto.tagging import CiphertextTaggingStep, TaggingAuthority


@dataclass(frozen=True)
class DecryptionTranscript:
    """One verifiable threshold decryption: shares + proofs for a ciphertext."""

    ciphertext: ElGamalCiphertext
    public_shares: Tuple[GroupElement, ...]
    shares: Tuple[DecryptionShare, ...]

    def plaintext(self) -> GroupElement:
        """Recombine the claimed shares (correctness rests on the share proofs)."""
        elgamal = ElGamal(self.ciphertext.group)
        return elgamal.combine_decryption_factors(self.ciphertext, [share.share for share in self.shares])


@dataclass(frozen=True)
class TagChainEvidence:
    """One blinded-tag derivation, end to end: blind steps, decryption, value."""

    source: ElGamalCiphertext
    steps: Tuple[CiphertextTaggingStep, ...]
    blinded: ElGamalCiphertext
    decryption: DecryptionTranscript
    tag: GroupElement


@dataclass(frozen=True)
class TallyEvidence:
    """Everything the tally proved beyond the mix cascades, in publish order.

    ``registration_tags`` / ``ballot_tags`` follow the order of the mixed
    registration outputs / mixed ballot pairs (the order the filter result
    publishes its tag byte lists in); ``decryptions`` follows
    ``filter_result.counted`` / ``result.votes``.
    """

    tagging_commitments: Tuple[GroupElement, ...]
    member_public_keys: Tuple[GroupElement, ...]
    registration_tags: Tuple[TagChainEvidence, ...]
    ballot_tags: Tuple[TagChainEvidence, ...]
    decryptions: Tuple[DecryptionTranscript, ...]


@dataclass
class EvidenceLog:
    """The transcripts a tally's tag and decrypt stages emit as they run.

    Each list has exactly one writer — the registration-tag derivation, the
    ballot tag stage, the decrypt stage — appending in publish order, so
    the tally pipeline's stage threads need no lock.
    :func:`build_tally_evidence` freezes the log into a
    :class:`TallyEvidence`.
    """

    registration_tags: List[TagChainEvidence] = field(default_factory=list)
    ballot_tags: List[TagChainEvidence] = field(default_factory=list)
    decryptions: List[DecryptionTranscript] = field(default_factory=list)


def decryption_transcript(
    dkg: DistributedKeyGeneration, ciphertext: ElGamalCiphertext, verify: bool = False
) -> DecryptionTranscript:
    """Produce the publishable transcript of one threshold decryption.

    With ``verify``, the share proofs are checked before the transcript is
    returned (:class:`~repro.errors.VerificationError` otherwise).
    """
    elgamal = ElGamal(dkg.group)
    public_shares = tuple(member.public for member in dkg.members)
    shares = tuple(member.decryption_share(elgamal, ciphertext) for member in dkg.members)
    if verify:
        elgamal.combine_decryption_shares(ciphertext, public_shares, shares, verify=True)
    return DecryptionTranscript(ciphertext=ciphertext, public_shares=public_shares, shares=shares)


def tag_chain_evidence(
    dkg: DistributedKeyGeneration,
    tagging: TaggingAuthority,
    ciphertext: ElGamalCiphertext,
    verify: bool = False,
) -> TagChainEvidence:
    """Blind ``ciphertext`` with per-step proofs and transcribe its decryption.

    The blinded value (and hence the tag) is bit-identical to the proof-less
    path (:meth:`TaggingAuthority.blind_and_decrypt`) — same exponentiation
    chain, proof nonces never touch the output — so the tally derives its
    tag bytes from this evidence whenever it collects evidence at all.
    """
    blinded, steps = tagging.blind_ciphertext_with_proof(ciphertext)
    decryption = decryption_transcript(dkg, blinded, verify=verify)
    return TagChainEvidence(
        source=ciphertext,
        steps=tuple(steps),
        blinded=blinded,
        decryption=decryption,
        tag=decryption.plaintext(),
    )


def build_tally_evidence(
    dkg: DistributedKeyGeneration,
    tagging: TaggingAuthority,
    log: EvidenceLog,
) -> TallyEvidence:
    """Assemble the evidence bundle of one tally run from its stages' log."""
    return TallyEvidence(
        tagging_commitments=tuple(tagging.commitments),
        member_public_keys=tuple(dkg.member_public_keys),
        registration_tags=tuple(log.registration_tags),
        ballot_tags=tuple(log.ballot_tags),
        decryptions=tuple(log.decryptions),
    )
