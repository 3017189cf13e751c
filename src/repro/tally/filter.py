"""Ballot filtering: duplicate removal and blinded-tag matching.

Votegral's filtering is linear in the number of ballots (§7.4): rather than
pairwise plaintext-equivalence tests (Civitas), both the mixed ballots and the
mixed registration tags are reduced to *deterministic blinded tags*
(:mod:`repro.crypto.tagging`) and joined on the tag value.  A ballot survives
iff its blinded credential tag equals the blinded tag of some active
registration record — which by construction happens exactly for ballots cast
with real credentials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.audit.evidence import EvidenceLog, TagChainEvidence, tag_chain_evidence
from repro.crypto.dkg import DistributedKeyGeneration
from repro.crypto.elgamal import ElGamalCiphertext
from repro.crypto.tagging import TaggingAuthority
from repro.ledger.records import BallotRecord
from repro.runtime.executor import Executor
from repro.runtime.sharding import parallel_starmap


@dataclass(frozen=True)
class FilterResult:
    """The outcome of tag-based filtering on mixed ballot pairs."""

    counted: List[ElGamalCiphertext]       # vote ciphertexts that will be decrypted
    discarded: int                          # ballots whose tag matched no registration
    duplicate_tags: int                     # extra ballots beyond one per registration tag
    registration_tags: List[bytes]          # blinded registration tags (for audit)
    ballot_tags: List[bytes]                # blinded ballot tags (for audit)


def deduplicate_ballots(records: Sequence[BallotRecord]) -> List[BallotRecord]:
    """Keep only the most recent ballot per credential public key.

    Ledger order is submission order, so "last write wins" — a voter who
    revises their vote with the same credential replaces the earlier ballot.
    """
    latest: Dict[bytes, BallotRecord] = {}
    for record in records:
        latest[record.credential_public_key.to_bytes()] = record
    return list(latest.values())


def _blinded_tag_bytes(
    tagging: TaggingAuthority,
    dkg: DistributedKeyGeneration,
    ciphertext: ElGamalCiphertext,
    verify: bool,
) -> bytes:
    """One tag derivation — module-level so process executors can run it."""
    return tagging.blind_and_decrypt(dkg, ciphertext, verify=verify).to_bytes()


def derive_tags(
    tagging: TaggingAuthority,
    dkg: DistributedKeyGeneration,
    ciphertexts: Sequence[ElGamalCiphertext],
    verify: bool,
    executor: Optional[Executor] = None,
    chains: Optional[List[TagChainEvidence]] = None,
) -> List[bytes]:
    """The blinded tag bytes of ``ciphertexts``, in order, fanned out over ``executor``.

    Without ``chains`` each tag costs its blinding chain and one bare
    decryption factor per member.  With a ``chains`` list, each tag is
    derived with its tagging and share proofs instead
    (:func:`~repro.audit.evidence.tag_chain_evidence`), the evidence is
    appended to ``chains`` and the tag bytes are read off it — one pass,
    nothing derived twice.
    """
    if chains is None:
        jobs = [(tagging, dkg, ciphertext, verify) for ciphertext in ciphertexts]
        return parallel_starmap(_blinded_tag_bytes, jobs, executor=executor)
    derived = parallel_starmap(
        tag_chain_evidence,
        [(dkg, tagging, ciphertext, verify) for ciphertext in ciphertexts],
        executor=executor,
    )
    chains.extend(derived)
    return [chain.tag.to_bytes() for chain in derived]


class TagJoiner:
    """The stateful linear hash join of ballot tags against registration tags.

    First match wins (at most one counted ballot per registration tag);
    further ballots with a known registration tag count as duplicates, the
    rest are discarded.  Both the serial :func:`filter_ballots` and the
    streaming tally's join stage feed this one implementation, so the two
    schedules cannot drift apart semantically.
    """

    def __init__(self, registration_tags: Sequence[bytes]):
        self.registration_tags = list(registration_tags)
        self._registered = set(self.registration_tags)
        self._remaining = set(self.registration_tags)
        self.counted: List[ElGamalCiphertext] = []
        self.ballot_tags: List[bytes] = []
        self.discarded = 0
        self.duplicate_tags = 0

    def feed(
        self, tagged_votes: Sequence[Tuple[ElGamalCiphertext, bytes]]
    ) -> List[ElGamalCiphertext]:
        """Join a batch of (vote ciphertext, blinded tag); return the newly counted votes."""
        # Both the serial filter and the streaming join stage land here, so
        # this one span is the "tally.join" phase under either schedule.
        with telemetry.span("tally.join", items=len(tagged_votes)):
            newly_counted: List[ElGamalCiphertext] = []
            for vote_ciphertext, tag_bytes in tagged_votes:
                self.ballot_tags.append(tag_bytes)
                if tag_bytes in self._remaining:
                    newly_counted.append(vote_ciphertext)
                    self._remaining.discard(tag_bytes)
                elif tag_bytes in self._registered:
                    self.duplicate_tags += 1
                else:
                    self.discarded += 1
            self.counted.extend(newly_counted)
            return newly_counted

    def result(self) -> FilterResult:
        return FilterResult(
            counted=self.counted,
            discarded=self.discarded,
            duplicate_tags=self.duplicate_tags,
            registration_tags=self.registration_tags,
            ballot_tags=self.ballot_tags,
        )


def filter_ballots(
    dkg: DistributedKeyGeneration,
    tagging: TaggingAuthority,
    mixed_pairs: Sequence[Tuple[ElGamalCiphertext, ElGamalCiphertext]],
    mixed_registration_tags: Sequence[ElGamalCiphertext],
    verify: bool = True,
    executor: Optional[Executor] = None,
    evidence: Optional[EvidenceLog] = None,
) -> FilterResult:
    """Match mixed ballots against mixed registration tags.

    ``mixed_pairs`` holds (encrypted vote, encrypted credential key) after the
    mix cascade; ``mixed_registration_tags`` holds the mixed ``c_pc``
    ciphertexts from the registration ledger.  Both sides are raised to the
    tagging exponent and threshold-decrypted to blinded tags; the join keeps
    at most one ballot per registration tag.

    Tag derivation is independent per ciphertext, so both sides fan out over
    the executor in one batch; the join itself stays serial (it is a linear
    hash join, §7.4).  With an ``evidence`` log, both sides' tag chains are
    appended to it as the tags are derived (see :func:`derive_tags`).
    """
    split = len(mixed_registration_tags)
    ciphertexts = list(mixed_registration_tags) + [credential for _, credential in mixed_pairs]
    chains: List[TagChainEvidence] = []
    with telemetry.span("tally.tag", items=len(ciphertexts)):
        all_tags = derive_tags(
            tagging, dkg, ciphertexts, verify, executor=executor,
            chains=chains if evidence is not None else None,
        )
    if evidence is not None:
        evidence.registration_tags.extend(chains[:split])
        evidence.ballot_tags.extend(chains[split:])
    registration_tags = all_tags[:split]
    pair_tags = all_tags[split:]

    joiner = TagJoiner(registration_tags)
    joiner.feed([(vote, tag) for (vote, _), tag in zip(mixed_pairs, pair_tags)])
    return joiner.result()
