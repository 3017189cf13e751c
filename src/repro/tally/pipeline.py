"""The end-to-end tally pipeline with universal verification.

:class:`TallyPipeline` consumes the bulletin board after the voting deadline
and produces a :class:`TallyResult`: per-candidate totals plus every proof an
auditor needs (ballot validity filter, the two mix cascades, the tagging
chains implicit in the filter, and the threshold-decryption shares are
re-checkable through :func:`verify_tally`).

One schedule produces that result: cursor-paged ballot shards from the
ledger flow through a :class:`~repro.runtime.pipeline.StreamPipeline` whose
stages are the signature check, every mixer of the cascade, blinded-tag
derivation, the tag join, and threshold decryption — so mixer *i+1* (and
everything downstream) works on shard *k* while mixer *i* works on shard
*k+1* and computes its shadow proofs.  ``pipeline``
(:class:`~repro.runtime.pipeline.PipelineSpec`, configured per election via
``ElectionConfig.pipeline_spec``) only sets the shard geometry; the default,
one shard holding every ballot, is the serial schedule.

Every geometry is bit-identical in everything published: all randomness that
shapes the output (shuffle plans, tagging secrets) is drawn in the calling
thread, in the order the reference functions (:func:`~repro.tally.mixnet.
tuple_mix_cascade`, :func:`~repro.tally.filter.filter_ballots`,
:func:`~repro.tally.decrypt.decrypt_votes`) draw it, and everything
downstream of those draws is deterministic.  Only proof *nonces* are drawn
inside workers: RLC batch coefficients, which appear nowhere, and — with
``collect_evidence`` — the tagging and decryption-share Chaum–Pedersen
commitments, which appear only in ``TallyResult.evidence``.  Everything else
in the result is bit-identical with evidence on or off.

One real barrier remains and is worth documenting: ballot deduplication is
last-write-wins per credential, and the shuffle permutations need the final
ballot count, so the mix cannot start before the ledger read completes.  The
tally therefore makes one cursor-paged pass for signature checking and dedup
(itself pipelined), then streams the deduplicated shards through the
cascade.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import telemetry
from repro.audit.evidence import EvidenceLog, TallyEvidence, build_tally_evidence
from repro.crypto.dkg import DistributedKeyGeneration
from repro.crypto.elgamal import ElGamal, ElGamalCiphertext
from repro.crypto.group import Group
from repro.crypto.hashing import sha256
from repro.crypto.tagging import TaggingAuthority
from repro.errors import TallyError
from repro.ledger.api import BoardView, LedgerBackend, as_board_view
from repro.ledger.bulletin_board import BulletinBoard
from repro.ledger.records import BallotRecord
from repro.runtime.batch import verify_signatures
from repro.runtime.executor import Executor, SerialExecutor, resolve_executor
from repro.runtime.pipeline import (
    PipelineSpec,
    Shard,
    Stage,
    StreamPipeline,
    iter_shards,
    shard_boundaries,
)
from repro.tally.decrypt import DecryptedVote, aggregate, decrypt_ciphertexts
from repro.tally.filter import FilterResult, TagJoiner, deduplicate_ballots, derive_tags
from repro.tally.mixnet import (
    TupleCascade,
    make_mixer_stages,
    plan_tuple_cascade,
    streaming_tuple_mix_cascade,
    verify_tuple_cascade,
)


@dataclass
class TallyResult:
    """The published outcome of a tally run.

    ``evidence`` optionally carries the :class:`~repro.audit.evidence.
    TallyEvidence` bundle (tagging-chain and decryption-share transcripts)
    that lets an external auditor re-check the filter and decryption phases,
    not just the mix cascades; produced when the pipeline runs with
    ``collect_evidence=True``.
    """

    counts: Dict[int, int]
    num_ballots_on_ledger: int
    num_valid_ballots: int
    num_counted: int
    num_discarded: int
    registration_cascade: TupleCascade
    ballot_cascade: TupleCascade
    filter_result: FilterResult
    votes: List[DecryptedVote]
    num_options: int
    evidence: Optional["TallyEvidence"] = None

    @property
    def turnout(self) -> int:
        return self.num_counted

    def winner(self) -> int:
        """The candidate index with the most votes (ties broken by lowest index)."""
        return max(sorted(self.counts), key=lambda option: self.counts[option])


def _ballot_signature_items(records: List[BallotRecord]) -> List[Tuple]:
    """The (public key, message, signature) triples one ballot page verifies."""
    items = []
    for record in records:
        ciphertext = ElGamalCiphertext(record.ciphertext_c1, record.ciphertext_c2)
        message = sha256(
            b"ballot",
            record.election_id.encode(),
            ciphertext.to_bytes(),
            record.credential_public_key.to_bytes(),
        )
        items.append((record.credential_public_key, message, record.signature))
    return items


def valid_ballot_page(
    records: Sequence[BallotRecord], executor: Optional[Executor] = None
) -> List[BallotRecord]:
    """The ballots of one ledger page whose elements are group members and
    whose signature verifies, in ledger order.

    The membership check (one Jacobi symbol per element on a mod-p group,
    free on Ed25519) comes first: a non-member ``c1`` stays a non-member
    through every re-encryption, and each batch fold over the cascade would
    refuse it and fall back to the per-item reference checks.
    """
    members = [
        record
        for record in records
        if all(
            element.group.is_member(element)
            for element in (record.credential_public_key, record.ciphertext_c1, record.ciphertext_c2)
        )
    ]
    verdicts = verify_signatures(_ballot_signature_items(members), executor=executor)
    return [record for record, ok in zip(members, verdicts) if ok]


class _SignaturePageStage(Stage):
    """Check one cursor page of ballots; emit the valid records."""

    name = "sig-check"

    def __init__(self, executor: Optional[Executor]):
        self.executor = executor

    def process(self, shard: Shard):
        yield Shard(shard.index, valid_ballot_page(shard.items, executor=self.executor))


class _TagStage(Stage):
    """Derive the blinded tag for each mixed (vote, credential) pair.

    With an evidence log, the stage appends each pair's tag chain to
    ``evidence.ballot_tags`` (it is that list's only writer).
    """

    name = "blind-tags"

    def __init__(
        self,
        tagging: TaggingAuthority,
        dkg: DistributedKeyGeneration,
        executor: Optional[Executor],
        evidence: Optional[EvidenceLog],
    ):
        self.tagging = tagging
        self.dkg = dkg
        self.executor = executor
        self.chains = evidence.ballot_tags if evidence is not None else None

    def process(self, shard: Shard):
        with telemetry.span("tally.tag", shard=shard.index, items=len(shard)):
            tags = derive_tags(
                self.tagging, self.dkg, [credential for _, credential in shard.items], False,
                executor=self.executor, chains=self.chains,
            )
        yield Shard(shard.index, [(vote, tag) for (vote, _), tag in zip(shard.items, tags)])


class _JoinStage(Stage):
    """The linear hash join of ballot tags against registration tags (§7.4).

    Stateful and strictly in-order (it consumes one shard at a time from its
    input queue); the join semantics live in the shared
    :class:`~repro.tally.filter.TagJoiner`, the same implementation the
    reference :func:`~repro.tally.filter.filter_ballots` uses — the two
    cannot drift apart.
    """

    name = "tag-join"

    def __init__(self, registration_tags: List[bytes]):
        self.joiner = TagJoiner(registration_tags)

    def process(self, shard: Shard):
        counted = self.joiner.feed(shard.items)
        if counted:
            yield Shard(shard.index, counted)


class _DecryptStage(Stage):
    """Threshold-decrypt the counted vote ciphertexts.

    With an evidence log, the stage appends each decryption's transcript to
    ``evidence.decryptions`` (it is that list's only writer).
    """

    name = "decrypt"

    def __init__(
        self,
        dkg: DistributedKeyGeneration,
        num_options: int,
        executor: Optional[Executor],
        evidence: Optional[EvidenceLog],
    ):
        self.dkg = dkg
        self.num_options = num_options
        self.executor = executor
        self.transcripts = evidence.decryptions if evidence is not None else None

    def process(self, shard: Shard):
        with telemetry.span("tally.decrypt", shard=shard.index, items=len(shard)):
            votes = decrypt_ciphertexts(
                self.dkg, shard.items, self.num_options, False,
                executor=self.executor, transcripts=self.transcripts,
            )
        yield Shard(shard.index, votes)


@dataclass
class TallyPipeline:
    """Runs the Votegral tally over a bulletin board.

    ``executor`` selects the :mod:`repro.runtime` backend the heavy stages
    (mixing, filtering, decryption, signature checks) fan out over; ``None``
    means the module-wide default (serial unless reconfigured).  ``tagging``
    optionally injects a pre-built :class:`TaggingAuthority` — normally a
    fresh one is drawn per run (reusing a tagging exponent across elections
    would link ballots), but injection enables deterministic replay and lets
    an auditor re-run filtering against a disclosed tagging transcript.
    ``pipeline`` sets the shard geometry of the one schedule (see the
    module docstring); every geometry publishes bit-identical results.
    """

    group: Group
    authority: DistributedKeyGeneration
    num_mixers: int = 4
    proof_rounds: int = 8
    verify_internally: bool = False
    executor: Optional[Executor] = None
    tagging: Optional[TaggingAuthority] = None
    pipeline: Optional[PipelineSpec] = None
    #: Publish tagging-chain and decryption-share transcripts on the result
    #: (:class:`repro.audit.evidence.TallyEvidence`) so external auditors can
    #: re-check filtering and decryption.  The tag and decrypt stages then
    #: make every tag and share with its proofs, in the same pass: per tag
    #: and member 6 variable-base exponentiations and 3 generator powers
    #: instead of 3 and none, per counted vote and member 2 + 1 instead of
    #: 1 — about twice the tag/decrypt work, hence opt-in.
    collect_evidence: bool = False
    #: Ballot-ledger shard size for the cursor-based reads below.
    read_page_size: int = 1024

    def __post_init__(self) -> None:
        self.elgamal = ElGamal(self.group)

    # ------------------------------------------------------------------ ballots

    def _valid_ballots(
        self,
        board: "Board",
        election_id: str,
        executor: Optional[Executor] = None,
        pipeline: Optional[PipelineSpec] = None,
    ) -> List[BallotRecord]:
        """Membership- and signature-check, then deduplicate, the ballots on the ledger.

        The ledger is consumed through cursor-based shard reads — ingestion
        can keep appending behind the cursor without this stage ever holding
        more than bookkeeping state per shard.  Signatures are checked with
        the random-linear-combination batch verifier per shard: one batched
        equation when every signature is valid (the common case), bisection
        to isolate forgeries otherwise.  The cursor reads and the signature
        checks overlap (the reader fetches page *k+1* while page *k*
        verifies).  On a cluster executor the pages themselves become the
        distribution unit: each cursor page ships to a remote worker as one
        task, acked by cursor as results land
        (:func:`repro.cluster.feeds.cluster_valid_ballots`), so board
        sharding and worker placement stay independent.
        """
        view = as_board_view(board)
        ex = resolve_executor(executor if executor is not None else self.executor)
        if callable(getattr(ex, "submit_calls", None)):
            from repro.cluster.feeds import cluster_valid_ballots

            valid, _tracker = cluster_valid_ballots(
                view, election_id, ex, page_size=self.read_page_size
            )
            return deduplicate_ballots(valid)
        spec = pipeline or self.pipeline or PipelineSpec()
        ex.warm()  # fork any process pool before the page pipeline's threads exist
        pages = (
            Shard(index, page.records)
            for index, page in enumerate(
                view.iter_ballot_pages(election_id=election_id, page_size=self.read_page_size)
            )
        )
        shards = StreamPipeline(
            [_SignaturePageStage(ex)], queue_depth=spec.queue_depth, name="ballot-read"
        ).run(pages)
        return deduplicate_ballots([record for shard in shards for record in shard.items])

    # ------------------------------------------------------------------ main run

    def run(
        self,
        board: "Board",
        num_options: int,
        election_id: str = "default",
        rotations=None,
    ) -> TallyResult:
        """Execute the full tally and return the published result.

        ``board`` may be a :class:`BulletinBoard`, a raw
        :class:`~repro.ledger.api.LedgerBackend` or a read-only
        :class:`~repro.ledger.api.BoardView` — the tally only ever reads.
        ``rotations`` optionally supplies a
        :class:`repro.registration.extensions.RotationRegistry` (Appendix C.2):
        ballots cast with device keys are resolved back to the kiosk-issued
        credential before tag matching, and ballots cast with keys that were
        rotated away from are dropped.

        Randomness-tape discipline (what keeps every geometry bit-identical):
        the draws that shape published output happen in this thread, in the
        reference order — registration-cascade plans, then ballot-cascade
        plans, then the tagging secrets.  The pipelines only compute
        deterministic functions of those draws.
        """
        ex = resolve_executor(self.executor)
        spec = self.pipeline if self.pipeline is not None else PipelineSpec()
        # Fork/spawn any worker pool while this is still the only thread; the
        # first pipeline (the ledger read below) starts stage threads.  For a
        # remote executor this is the enrollment barrier: every worker has
        # warmed its precompute tables before the first shard.
        ex.warm()
        view = as_board_view(board)
        registrations = view.active_registrations()
        if not registrations:
            raise TallyError("no active registrations: nothing to tally")
        # One of the five tally phase spans (sig-check / mix / tag / join /
        # decrypt); the other four are emitted at the point of work.
        with telemetry.span("tally.sig-check", election=election_id):
            ballots = self._valid_ballots(view, election_id, executor=ex, pipeline=spec)
        if rotations is not None:
            ballots = [b for b in ballots if not rotations.is_retired(b.credential_public_key)]

        # Registration tags are mixed as 1-tuples; ballots as (vote, credential) pairs.
        registration_inputs = [
            (ElGamalCiphertext(record.public_credential_c1, record.public_credential_c2),)
            for record in registrations
        ]
        # The credential key enters the mix as a *trivial* encryption
        # (randomness 0) so any auditor can re-derive the mix input from the
        # ledger; the first mixer's re-encryption immediately refreshes it.
        def _credential_key(record):
            if rotations is None:
                return record.credential_public_key
            return rotations.resolve(record.credential_public_key)

        public_key = self.authority.public_key
        ballot_inputs = [
            (
                ElGamalCiphertext(record.ciphertext_c1, record.ciphertext_c2),
                self.elgamal.encrypt(public_key, _credential_key(record), randomness=0),
            )
            for record in ballots
        ]

        registration_cascade = streaming_tuple_mix_cascade(
            self.elgamal, public_key, registration_inputs, self.num_mixers, self.proof_rounds,
            executor=ex, pipeline=spec,
        )
        mixed_registrations = [item[0] for item in (registration_cascade.outputs or registration_inputs)]
        # No ballots, or no mixers: the ballot cascade is empty, so it
        # publishes no mixed pairs and nothing is counted.
        plans = (
            plan_tuple_cascade(
                self.elgamal, len(ballot_inputs), len(ballot_inputs[0]), self.num_mixers, self.proof_rounds
            )
            if ballot_inputs
            else []
        )
        tagging = self.tagging if self.tagging is not None else TaggingAuthority.create(
            self.group, self.authority.num_members
        )
        log = EvidenceLog() if self.collect_evidence else None
        with telemetry.span("tally.tag", items=len(mixed_registrations)):
            registration_tags = derive_tags(
                tagging, self.authority, mixed_registrations, False, executor=ex,
                chains=log.registration_tags if log is not None else None,
            )

        boundaries = shard_boundaries(len(ballot_inputs), spec.shard_size)
        mixer_stages = make_mixer_stages(self.elgamal, public_key, plans, boundaries, executor=ex)
        join_stage = _JoinStage(registration_tags)
        votes: List[DecryptedVote] = []
        if mixer_stages:
            stages = mixer_stages + [
                _TagStage(tagging, self.authority, ex, log),
                join_stage,
                _DecryptStage(self.authority, num_options, ex, log),
            ]
            vote_shards = StreamPipeline(
                stages, queue_depth=spec.queue_depth, name="tally", exclusive=isinstance(ex, SerialExecutor)
            ).run(iter_shards(ballot_inputs, spec.shard_size))
            votes = [vote for shard in vote_shards for vote in shard.items]
        ballot_cascade = TupleCascade(stages=[stage.result for stage in mixer_stages])
        self._self_verify(registration_inputs, registration_cascade, ballot_inputs, ballot_cascade, ex)

        filter_result = join_stage.joiner.result()
        return TallyResult(
            counts=aggregate(votes, num_options),
            num_ballots_on_ledger=view.num_ballots,
            num_valid_ballots=len(ballots),
            num_counted=len(filter_result.counted),
            num_discarded=filter_result.discarded + filter_result.duplicate_tags,
            registration_cascade=registration_cascade,
            ballot_cascade=ballot_cascade,
            filter_result=filter_result,
            votes=votes,
            num_options=num_options,
            evidence=build_tally_evidence(self.authority, tagging, log) if log is not None else None,
        )

    # ------------------------------------------------------------------ helpers

    def _self_verify(self, registration_inputs, registration_cascade, ballot_inputs, ballot_cascade, ex) -> None:
        if not self.verify_internally:
            return
        if not verify_tuple_cascade(
            self.elgamal, self.authority.public_key, registration_inputs, registration_cascade, executor=ex
        ):
            raise TallyError("registration mix cascade failed self-verification")
        if ballot_inputs and not verify_tuple_cascade(
            self.elgamal, self.authority.public_key, ballot_inputs, ballot_cascade, executor=ex
        ):
            raise TallyError("ballot mix cascade failed self-verification")


#: Anything the tally can read a board from: the facade, a raw backend, or a view.
Board = Union[BulletinBoard, LedgerBackend, BoardView]


def verify_tally(
    group: Group,
    authority: DistributedKeyGeneration,
    board: Board,
    result: TallyResult,
    election_id: str = "default",
    rotations=None,
    executor: Optional[Executor] = None,
    batch: bool = True,
) -> bool:
    """Universal verification: re-check the published tally against the ledger.

    A bool-returning shim over :func:`repro.audit.checks.audit_tally`: the
    auditor re-derives the mix inputs from the ledger (through the same
    read-only :class:`~repro.ledger.api.BoardView` cursor API the tally
    uses), then executes the full :func:`~repro.audit.checks.
    tally_audit_plan` — chain walks, both mix cascades, the published
    tagging/decryption evidence when the result carries one, and the count
    invariants.  ``batch=True`` selects the batched strategy (shuffle
    openings, tag chains and decryption shares folded into RLC equations);
    ``batch=False`` the eager reference strategy.  Auditors who want the
    failure locus instead of a bool — or another strategy, such as a
    :class:`~repro.audit.api.StreamingVerifier` that cancels at the first
    failed check — call ``audit_tally`` directly and keep the
    :class:`~repro.audit.api.AuditReport`.
    """
    from repro.audit.api import BatchedVerifier, EagerVerifier
    from repro.audit.checks import audit_tally

    ex = resolve_executor(executor)
    if batch:
        verifier = BatchedVerifier(executor=ex)
    else:
        verifier = EagerVerifier(executor=ex)
    return audit_tally(
        group, authority, board, result,
        election_id=election_id, rotations=rotations, verifier=verifier, executor=ex,
    ).ok
