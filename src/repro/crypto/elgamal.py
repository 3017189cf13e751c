"""ElGamal encryption over an abstract prime-order group.

TRIP encrypts the real credential's public key under the election authority's
collective public key to form the *public credential tag* ``c_pc`` (§4.2,
Appendix E.4).  The same scheme (with exponential message encoding) is used
for ballots in the voting/tallying pipeline and in every baseline system.

The implementation exposes:

* key generation, encryption, decryption;
* re-encryption (used by the mix cascade);
* the multiplicative homomorphism (used for blinding and PETs);
* decryption *shares* with Chaum–Pedersen correctness proofs, so a threshold
  of authority members can jointly decrypt with a publicly verifiable
  transcript — or bare decryption *factors* when nothing will be published.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.crypto.group import Group, GroupElement
from repro.errors import VerificationError

# Optional fixed-base accelerator for ``base ** scalar`` on hot bases (the
# election public key, above all).  Installed by importing
# :mod:`repro.runtime.precompute`; left unset, the reference path runs.
_element_power_hook = None


def set_element_power_hook(hook) -> None:
    """Install (or clear, with ``None``) the fixed-base exponentiation hook."""
    global _element_power_hook
    _element_power_hook = hook


def _power(base: GroupElement, scalar: int) -> GroupElement:
    hook = _element_power_hook
    if hook is not None:
        return hook(base, scalar)
    return base.exponentiate(scalar)


@dataclass(frozen=True)
class ElGamalKeyPair:
    """A private/public ElGamal key pair."""

    secret: int
    public: GroupElement

    @property
    def group(self) -> Group:
        return self.public.group


@dataclass(frozen=True)
class ElGamalCiphertext:
    """An ElGamal ciphertext ``(c1, c2) = (g^r, pk^r · m)``."""

    c1: GroupElement
    c2: GroupElement

    @property
    def group(self) -> Group:
        return self.c1.group

    def to_bytes(self) -> bytes:
        return self.c1.to_bytes() + self.c2.to_bytes()

    def multiply(self, other: "ElGamalCiphertext") -> "ElGamalCiphertext":
        """Homomorphic combination: encrypts the product of the plaintexts."""
        return ElGamalCiphertext(self.c1 * other.c1, self.c2 * other.c2)

    def exponentiate(self, scalar: int) -> "ElGamalCiphertext":
        """Raise the plaintext to ``scalar`` (used for blinding and PETs)."""
        return ElGamalCiphertext(self.c1 ** scalar, self.c2 ** scalar)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ElGamalCiphertext)
            and self.c1 == other.c1
            and self.c2 == other.c2
        )

    def __hash__(self) -> int:
        return hash((self.c1, self.c2))


@dataclass(frozen=True)
class DecryptionShare:
    """One authority member's partial decryption ``c1^sk_i`` with a proof."""

    share: GroupElement
    commitment_g: GroupElement
    commitment_c1: GroupElement
    response: int


class ElGamal:
    """ElGamal over a :class:`~repro.crypto.group.Group`."""

    def __init__(self, group: Group):
        self.group = group

    # Key management ---------------------------------------------------------

    def keygen(self, secret: Optional[int] = None) -> ElGamalKeyPair:
        sk = secret if secret is not None else self.group.random_scalar()
        return ElGamalKeyPair(secret=sk, public=self.group.power(sk))

    # Core operations ---------------------------------------------------------

    def encrypt(
        self,
        public_key: GroupElement,
        message: GroupElement,
        randomness: Optional[int] = None,
    ) -> ElGamalCiphertext:
        r = randomness if randomness is not None else self.group.random_scalar()
        return ElGamalCiphertext(self.group.power(r), _power(public_key, r) * message)

    def decrypt(self, secret_key: int, ciphertext: ElGamalCiphertext) -> GroupElement:
        return ciphertext.c2 * (ciphertext.c1 ** secret_key).inverse()

    def encrypt_int(
        self,
        public_key: GroupElement,
        value: int,
        randomness: Optional[int] = None,
    ) -> ElGamalCiphertext:
        """Exponential ElGamal: encrypt g**value (homomorphic in the exponent)."""
        return self.encrypt(public_key, self.group.encode_int(value), randomness)

    def decrypt_int(self, secret_key: int, ciphertext: ElGamalCiphertext, max_value: int = 10_000) -> int:
        return self.group.decode_int(self.decrypt(secret_key, ciphertext), max_value)

    def reencrypt(
        self,
        public_key: GroupElement,
        ciphertext: ElGamalCiphertext,
        randomness: Optional[int] = None,
    ) -> ElGamalCiphertext:
        """Refresh the randomness of a ciphertext without knowing the plaintext."""
        r = randomness if randomness is not None else self.group.random_scalar()
        return ElGamalCiphertext(
            ciphertext.c1 * self.group.power(r),
            ciphertext.c2 * _power(public_key, r),
        )

    def encrypt_identity(self, public_key: GroupElement, randomness: Optional[int] = None) -> ElGamalCiphertext:
        """An encryption of the identity element (a "zero" ciphertext)."""
        return self.encrypt(public_key, self.group.identity, randomness)

    # Threshold decryption -----------------------------------------------------

    def decryption_factor(self, secret_share: int, ciphertext: ElGamalCiphertext) -> GroupElement:
        """One member's decryption factor ``c1^sk_i``, without a proof.

        All a tally that neither checks nor publishes shares needs: one
        exponentiation, where a proven share adds ``c1^w`` and ``g^w``.
        """
        return ciphertext.c1 ** secret_share

    def decryption_share(
        self,
        secret_share: int,
        ciphertext: ElGamalCiphertext,
        public_share: Optional[GroupElement] = None,
    ) -> DecryptionShare:
        """Produce ``c1^sk_i`` with a Chaum–Pedersen proof of correctness.

        The proof shows log_g(pk_i) == log_c1(share), i.e. the member used the
        same secret it committed to at DKG time.  ``public_share`` is the
        member's published ``g^sk_i``; pass it when known, it is recomputed
        otherwise.
        """
        group = self.group
        w = group.random_scalar()
        commitment_g = group.power(w)
        commitment_c1 = ciphertext.c1 ** w
        share = self.decryption_factor(secret_share, ciphertext)
        if public_share is None:
            public_share = group.power(secret_share)
        challenge = group.hash_to_scalar(
            b"elgamal-decryption-share",
            public_share.to_bytes(),
            share.to_bytes(),
            commitment_g.to_bytes(),
            commitment_c1.to_bytes(),
            ciphertext.to_bytes(),
        )
        response = (w + challenge * secret_share) % group.order
        return DecryptionShare(share, commitment_g, commitment_c1, response)

    def verify_decryption_share(
        self,
        public_share: GroupElement,
        ciphertext: ElGamalCiphertext,
        share: DecryptionShare,
    ) -> bool:
        group = self.group
        challenge = group.hash_to_scalar(
            b"elgamal-decryption-share",
            public_share.to_bytes(),
            share.share.to_bytes(),
            share.commitment_g.to_bytes(),
            share.commitment_c1.to_bytes(),
            ciphertext.to_bytes(),
        )
        lhs_g = group.power(share.response)
        rhs_g = share.commitment_g * (public_share ** challenge)
        lhs_c1 = ciphertext.c1 ** share.response
        rhs_c1 = share.commitment_c1 * (share.share ** challenge)
        return lhs_g == rhs_g and lhs_c1 == rhs_c1

    def combine_decryption_shares(
        self,
        ciphertext: ElGamalCiphertext,
        public_shares: Sequence[GroupElement],
        shares: Sequence[DecryptionShare],
        verify: bool = True,
    ) -> GroupElement:
        """Combine additive decryption shares into the plaintext.

        With additive key sharing (the DKG in :mod:`repro.crypto.dkg`), the
        full decryption factor is the product of all members' ``c1^sk_i``.
        """
        if len(public_shares) != len(shares):
            raise ValueError("mismatched share lists")
        if verify and len(shares) > 1:
            # Fold every member's two proof equations into one RLC product
            # (Bellare–Garay–Rabin small exponents); only on rejection fall
            # back to per-share checks to name the offending member.
            from repro.runtime.batch import batch_decryption_share_verify

            items = [(public_share, ciphertext, share) for public_share, share in zip(public_shares, shares)]
            if not batch_decryption_share_verify(items):
                for public_share, share in zip(public_shares, shares):
                    if not self.verify_decryption_share(public_share, ciphertext, share):
                        raise VerificationError("invalid decryption share")
                raise VerificationError("decryption share batch check failed")
            verify = False
        if verify:
            for public_share, share in zip(public_shares, shares):
                if not self.verify_decryption_share(public_share, ciphertext, share):
                    raise VerificationError("invalid decryption share")
        return self.combine_decryption_factors(ciphertext, [share.share for share in shares])

    def combine_decryption_factors(
        self, ciphertext: ElGamalCiphertext, factors: Sequence[GroupElement]
    ) -> GroupElement:
        """Strip every member's ``c1^sk_i`` off ``c2``: the plaintext."""
        product = self.group.identity
        for factor in factors:
            product = product * factor
        return ciphertext.c2 * product.inverse()
