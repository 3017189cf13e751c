"""Chaum–Pedersen proof of discrete-log equality — TRIP's core Σ-protocol.

The kiosk must convince the voter that the public credential tag

    c_pc = (C1, C2) = (g^x, A_pk^x · c_pk)

really encrypts the credential's public key ``c_pk`` under the authority key
``A_pk``.  Equivalently, with ``X = C2 / c_pk``, the kiosk proves knowledge of
``x`` such that ``C1 = g^x`` and ``X = A_pk^x`` — a proof of equality of
discrete logarithms (ZKPoE, Appendix E.1).

* :class:`ChaumPedersenProver` runs the **sound** interactive protocol used
  for real credentials: the commit is fixed before the challenge is known and
  the response requires the witness ``x``.
* :func:`simulate_chaum_pedersen` runs the honest-verifier **simulator** used
  for fake credentials: given the challenge first, it fabricates a transcript
  that verifies although no witness exists (Fig. 9b of the paper).
* :func:`chaum_pedersen_verify` checks a transcript; it accepts real and fake
  transcripts alike — by design, the transcript alone cannot reveal which is
  which.
* :func:`fiat_shamir_prove` / :func:`fiat_shamir_verify` provide the
  non-interactive variant used by the baselines (Swiss Post ballot proofs,
  Civitas credential proofs) and by ballot-wellformedness proofs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.crypto.group import Group, GroupElement
from repro.crypto.hashing import scalar_bytes
from repro.errors import ProtocolError


def _power(base: GroupElement, scalar: int) -> GroupElement:
    """``base ** scalar``, with the group generator on its fixed-base table.

    Statements often use ``g`` as one of their bases (a credential tag's
    ``C1 = g^x``, a tagging member's commitment ``g^{z_i}``); those powers
    go through :meth:`Group.power`, which is bit-identical and uses the warm
    table when one exists.
    """
    group = base.group
    if base == group.generator:
        return group.power(scalar)
    return base ** scalar


@dataclass(frozen=True)
class ChaumPedersenStatement:
    """The public statement: ``C1 = g^x`` and ``X = h^x`` for bases (g, h)."""

    base_g: GroupElement
    base_h: GroupElement
    value_g: GroupElement  # C1
    value_h: GroupElement  # X

    def to_bytes(self) -> bytes:
        return (
            self.base_g.to_bytes()
            + self.base_h.to_bytes()
            + self.value_g.to_bytes()
            + self.value_h.to_bytes()
        )

    @property
    def group(self) -> Group:
        return self.base_g.group


@dataclass(frozen=True)
class ChaumPedersenCommit:
    """The prover's first move ``(Y1, Y2) = (g^y, h^y)``."""

    commit_g: GroupElement
    commit_h: GroupElement

    def to_bytes(self) -> bytes:
        return self.commit_g.to_bytes() + self.commit_h.to_bytes()


@dataclass(frozen=True)
class ChaumPedersenTranscript:
    """A full (statement, commit, challenge, response) transcript.

    Printed on TRIP receipts; verifiable by anyone; silent about whether the
    commit or the challenge was chosen first.
    """

    statement: ChaumPedersenStatement
    commit: ChaumPedersenCommit
    challenge: int
    response: int

    def to_bytes(self) -> bytes:
        return (
            self.statement.to_bytes()
            + self.commit.to_bytes()
            + scalar_bytes(self.challenge)
            + scalar_bytes(self.response)
        )


class ChaumPedersenProver:
    """The sound, interactive prover used when issuing a *real* credential.

    The object enforces the Σ-protocol move order: :meth:`commit` must be
    called before :meth:`respond`, and :meth:`respond` requires the verifier's
    challenge.  A kiosk that wants to cheat cannot use this class — it has to
    use the simulator, which requires the challenge up front, and the voter
    can observe that difference in the physical printing order.
    """

    def __init__(self, statement: ChaumPedersenStatement, witness: int):
        self.statement = statement
        self.witness = witness
        self._nonce: Optional[int] = None
        self._commit: Optional[ChaumPedersenCommit] = None

    def commit(self, nonce: Optional[int] = None) -> ChaumPedersenCommit:
        """First move: choose y and output (g^y, h^y)."""
        if self._commit is not None:
            raise ProtocolError("commit was already produced for this proof")
        group = self.statement.group
        self._nonce = nonce if nonce is not None else group.random_scalar()
        self._commit = ChaumPedersenCommit(
            commit_g=_power(self.statement.base_g, self._nonce),
            commit_h=_power(self.statement.base_h, self._nonce),
        )
        return self._commit

    def respond(self, challenge: int) -> ChaumPedersenTranscript:
        """Third move: r = y − e·x (mod q).  Requires :meth:`commit` first."""
        if self._commit is None or self._nonce is None:
            raise ProtocolError("respond() called before commit(): unsound order")
        group = self.statement.group
        response = (self._nonce - challenge * self.witness) % group.order
        return ChaumPedersenTranscript(
            statement=self.statement,
            commit=self._commit,
            challenge=challenge % group.order,
            response=response,
        )


def simulate_chaum_pedersen(
    statement: ChaumPedersenStatement,
    challenge: int,
    response: Optional[int] = None,
) -> ChaumPedersenTranscript:
    """Honest-verifier simulator: forge a verifying transcript from the challenge.

    Given the challenge ``e`` *before* committing, pick the response ``r`` at
    random and back-compute the commit ``(g^r·C1^e, h^r·X^e)``.  The resulting
    transcript satisfies the verification equations even though no witness is
    known — this is exactly how the kiosk prints fake credentials (Fig. 9b).
    """
    group = statement.group
    r = response if response is not None else group.random_scalar()
    e = challenge % group.order
    commit = ChaumPedersenCommit(
        commit_g=_power(statement.base_g, r) * (statement.value_g ** e),
        commit_h=_power(statement.base_h, r) * (statement.value_h ** e),
    )
    return ChaumPedersenTranscript(statement=statement, commit=commit, challenge=e, response=r)


def chaum_pedersen_verify(transcript: ChaumPedersenTranscript) -> bool:
    """Check the verification equations ``Y1 = g^r·C1^e`` and ``Y2 = h^r·X^e``."""
    statement = transcript.statement
    e = transcript.challenge
    r = transcript.response
    lhs_g = _power(statement.base_g, r) * (statement.value_g ** e)
    lhs_h = _power(statement.base_h, r) * (statement.value_h ** e)
    return lhs_g == transcript.commit.commit_g and lhs_h == transcript.commit.commit_h


# ---------------------------------------------------------------------------
# Non-interactive (Fiat–Shamir) variant
# ---------------------------------------------------------------------------


def fiat_shamir_challenge(statement: ChaumPedersenStatement, commit: ChaumPedersenCommit, context: bytes) -> int:
    return statement.group.hash_to_scalar(
        b"chaum-pedersen-fiat-shamir",
        context,
        statement.to_bytes(),
        commit.to_bytes(),
    )


def fiat_shamir_prove(
    statement: ChaumPedersenStatement,
    witness: int,
    context: bytes = b"",
) -> ChaumPedersenTranscript:
    """A non-interactive proof (challenge = hash of commit).

    Used by baselines and by internal consistency proofs.  TRIP deliberately
    does **not** hand such a proof to the voter for credential realness — a
    NIZK would be transferable to a coercer (§4.3's straw-man).
    """
    prover = ChaumPedersenProver(statement, witness)
    commit = prover.commit()
    challenge = fiat_shamir_challenge(statement, commit, context)
    return prover.respond(challenge)


def fiat_shamir_verify(transcript: ChaumPedersenTranscript, context: bytes = b"") -> bool:
    expected = fiat_shamir_challenge(transcript.statement, transcript.commit, context)
    return transcript.challenge == expected and chaum_pedersen_verify(transcript)
