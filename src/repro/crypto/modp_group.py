"""Multiplicative (Schnorr) subgroups of Z_p* as a :class:`~repro.crypto.group.Group`.

Two roles in the reproduction:

* ``modp_group_2048`` / ``modp_group_3072`` model the "large-modulus
  primitives" the Civitas implementation uses (§7.3 of the paper attributes a
  large part of Civitas' slowness to this choice versus elliptic curves).
* ``testing_group`` is a small, fast, **insecure** group used to keep the unit
  tests quick.  Its parameters are clearly labelled and must never be used
  outside tests.

A Schnorr group is the order-``q`` subgroup of Z_p* where ``p = 2q·r + 1``.
We use safe primes (``p = 2q + 1``) so every quadratic residue generates the
subgroup, which makes hashing to the group trivial (square the hash).
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Any, List, Sequence, Tuple

from repro.crypto import bigint
from repro.crypto.group import Group, GroupElement
from repro.crypto.multiexp import GroupOps, execute_plan, plan_multi_exponentiation

#: Below this subgroup-order size, CPython's native ``pow`` beats any
#: Python-level multi-exponentiation (interpreter overhead dominates small
#: bigint arithmetic), so `multi_exponentiate` stays on the naive per-term
#: loop.  Mirrors ``repro.runtime.precompute.MIN_ORDER_BITS``.
MULTIEXP_MIN_ORDER_BITS = 192


class ModPElement(GroupElement):
    """An element of a Schnorr subgroup, stored as an integer mod p.

    The integer type is the group's big-integer backend value
    (:mod:`repro.crypto.bigint`): plain ``int`` by default, ``gmpy2.mpz``
    when the gmpy2 backend is active.  Both hash and compare identically and
    encode to the same canonical bytes.
    """

    __slots__ = ("_value", "_group")

    def __init__(self, value: int, group: "ModPGroup"):
        # ``modulus`` is a backend value, so the reduction also converts
        # plain-int inputs into the backend's representation.
        self._value = value % group.modulus
        self._group = group

    @property
    def value(self) -> int:
        return self._value

    @property
    def group(self) -> "ModPGroup":
        return self._group

    def operate(self, other: GroupElement) -> "ModPElement":
        if not isinstance(other, ModPElement) or other._group is not self._group:
            raise TypeError("cannot combine elements from different groups")
        return ModPElement((self._value * other._value) % self._group.modulus, self._group)

    def exponentiate(self, scalar: int) -> "ModPElement":
        group = self._group
        return ModPElement(
            group._backend.powmod(self._value, scalar % group.order, group.modulus), group
        )

    def inverse(self) -> "ModPElement":
        return ModPElement(self._group._backend.invert(self._value, self._group.modulus), self._group)

    def to_bytes(self) -> bytes:
        return int(self._value).to_bytes(self._group.element_bytes, "big")

    def __reduce__(self):
        # Normalise to a plain int for transport: a pickled element must
        # unpickle in processes whose bigint backend differs (a cluster may
        # mix gmpy2 and pure-python workers).
        return (ModPElement, (int(self._value), self._group))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ModPElement)
            and other._group is self._group
            and other._value == self._value
        )

    def __hash__(self) -> int:
        return hash((id(self._group), self._value))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ModPElement({self._value:#x})"


class ModPGroup(Group):
    """The order-q subgroup of Z_p* for a safe prime p = 2q + 1.

    Arithmetic runs on the process-wide big-integer backend
    (:func:`repro.crypto.bigint.active_backend`): the modulus and all element
    values are backend values, and exponentiation/inversion route through the
    backend's ``powmod``/``invert``.  The backend is captured at construction
    time, which is why switching backends requires rebuilding the group
    singletons (see :func:`repro.crypto.bigint.set_active_backend`).
    """

    def __init__(self, name: str, modulus: int, order: int, generator: int):
        self.name = name
        self._backend = bigint.active_backend()
        self.modulus = self._backend.convert(modulus)
        self._order = order
        self.element_bytes = (int(modulus).bit_length() + 7) // 8
        self._generator = ModPElement(generator, self)
        self._identity = ModPElement(1, self)
        if self._backend.powmod(self._generator.value, order, self.modulus) != 1:
            raise ValueError("generator does not have the declared order")

    @property
    def order(self) -> int:
        return self._order

    @property
    def generator(self) -> ModPElement:
        return self._generator

    @property
    def identity(self) -> ModPElement:
        return self._identity

    def element(self, value: int) -> ModPElement:
        """Wrap a raw integer (assumed to be a subgroup member)."""
        return ModPElement(value, self)

    def element_from_bytes(self, data: bytes) -> ModPElement:
        value = int.from_bytes(data, "big")
        if not 1 <= value < self.modulus:
            raise ValueError("encoded value outside the field")
        return ModPElement(value, self)

    def hash_to_element(self, data: bytes) -> ModPElement:
        """Hash into the subgroup by squaring a field element derived from data."""
        digest = hashlib.sha512(data).digest()
        candidate = int.from_bytes(digest, "big") % self.modulus
        if candidate == 0:
            candidate = 1
        return ModPElement(self._backend.powmod(candidate, 2, self.modulus), self)

    def is_member(self, element: ModPElement) -> bool:
        """Subgroup membership test: x^q == 1 mod p."""
        return self._backend.powmod(element.value, self._order, self.modulus) == 1

    def _multi_exponentiate_terms(
        self, terms: Sequence[Tuple[GroupElement, int]]
    ) -> ModPElement:
        """Straus/Pippenger over raw residues with backend-native inner ops.

        Runs the kernels on bare backend integers rather than
        :class:`ModPElement` wrappers (no per-step object churn), advances
        the shared squaring chain with one native ``powmod(acc, 2**k, p)``
        instead of ``k`` interpreted squarings, and feeds the planner cost
        constants calibrated for CPython bigints: a native full
        exponentiation costs ≈0.87·|q| mulmod-units at 2048 bits (less at
        smaller sizes, interpolated below), a squaring ≈0.8 of a
        multiplication, a modular inverse ≈25.

        Below :data:`MULTIEXP_MIN_ORDER_BITS` the naive native-pow loop is
        unbeatable from Python, so small (toy/test) groups keep it.
        """
        modulus = self.modulus
        backend = self._backend
        bits = self._order.bit_length()
        if bits < MULTIEXP_MIN_ORDER_BITS:
            accumulator = self._identity
            for base, scalar in terms:
                accumulator = accumulator.operate(base.exponentiate(scalar))
            return accumulator
        values: List[Any] = [base.value for base, _ in terms]
        scalars = [scalar for _, scalar in terms]
        max_bits = max(scalar.bit_length() for scalar in scalars)
        ops = GroupOps(
            identity=backend.convert(1),
            multiply=lambda a, b: (a * b) % modulus,
            advance=lambda a, k: backend.powmod(a, 1 << k, modulus),
            invert=lambda a: backend.invert(a, modulus),
        )
        # Native pow's advantage over interpreted mulmod grows as operands
        # shrink (C loop vs. bytecode): ≈0.87·bits at 2048 bits, roughly
        # 0.3·bits around 256 bits.  Linear interpolation is plenty — the
        # planner only needs the naive/Straus/Pippenger ordering right.
        exponentiate_cost = max_bits * (0.3 + 0.57 * min(1.0, modulus.bit_length() / 2048))
        plan = plan_multi_exponentiation(
            len(terms),
            max_bits,
            exponentiate_cost=exponentiate_cost,
            square_cost=0.8,
            invert_cost=25.0,
        )
        result = execute_plan(
            ops,
            values,
            scalars,
            plan,
            lambda value, scalar: backend.powmod(value, scalar, modulus),
        )
        return ModPElement(result, self)

    def __reduce__(self):
        # Groups are compared by identity (``is``) in element operations, so
        # pickling — e.g. shipping work to a :class:`ProcessExecutor` worker —
        # must resolve back to the per-process canonical instance for these
        # parameters rather than construct a fresh object.  Parameters are
        # normalised to plain ints so the payload is backend-independent.
        return (
            _group_from_params,
            (self.name, int(self.modulus), self._order, int(self._generator.value)),
        )


# ---------------------------------------------------------------------------
# Parameter presets
# ---------------------------------------------------------------------------

# RFC 3526 MODP group 14 (2048-bit) prime.  It is not a safe prime of the form
# 2q+1 with prime q for the full group, but (p-1)/2 is prime for this modulus,
# so the quadratic-residue subgroup has prime order (p-1)/2.
_RFC3526_2048_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)

# RFC 3526 MODP group 15 (3072-bit) prime.
_RFC3526_3072_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AAAC42DAD33170D04507A33"
    "A85521ABDF1CBA64ECFB850458DBEF0A8AEA71575D060C7DB3970F85A6E1E4C7"
    "ABF5AE8CDB0933D71E8C94E04A25619DCEE3D2261AD2EE6BF12FFA06D98A0864"
    "D87602733EC86A64521F2B18177B200CBBE117577A615D6C770988C0BAD946E2"
    "08E24FA074E5AB3143DB5BFCE0FD108E4B82D120A93AD2CAFFFFFFFFFFFFFFFF",
    16,
)

# A 256-bit Schnorr group with a safe prime, generated offline.  Used as the
# "elliptic-curve-equivalent small group" when Ed25519 is too slow for a given
# workload; its exponent size (≈255 bits) matches the paper's curve order.
_SAFE_256_P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF72EF
_SAFE_256_Q = (_SAFE_256_P - 1) // 2

# Small toy parameters for tests: p = 2q+1 with q prime (63-bit p).  NOT SECURE.
_TOY_P = 9223372036854771239
_TOY_Q = (_TOY_P - 1) // 2


def _quadratic_residue_generator(p: int) -> int:
    """Return a generator of the quadratic-residue subgroup of Z_p*."""
    return pow(2, 2, p) if pow(2, (p - 1) // 2, p) != 1 else 2


@lru_cache(maxsize=None)
def _group_from_params(name: str, modulus: int, order: int, generator: int) -> ModPGroup:
    """The canonical (per-process) group instance for a parameter set.

    Both the preset factories below and :meth:`ModPGroup.__reduce__` resolve
    through this cache, so elements that round-trip through pickle (process
    executors) land back on the same group object as locally created ones.
    """
    return ModPGroup(name, modulus, order, generator)


@lru_cache(maxsize=None)
def modp_group_2048() -> ModPGroup:
    """The 2048-bit "Civitas-style" large-modulus group."""
    p = _RFC3526_2048_P
    q = (p - 1) // 2
    return _group_from_params("modp-2048", p, q, _quadratic_residue_generator(p))


@lru_cache(maxsize=None)
def modp_group_3072() -> ModPGroup:
    """A 3072-bit large-modulus group (higher-security Civitas setting)."""
    p = _RFC3526_3072_P
    q = (p - 1) // 2
    return _group_from_params("modp-3072", p, q, _quadratic_residue_generator(p))


@lru_cache(maxsize=None)
def modp_group_256() -> ModPGroup:
    """A 256-bit safe-prime group whose exponent size matches edwards25519."""
    if not _is_probable_prime(_SAFE_256_Q) or not _is_probable_prime(_SAFE_256_P):
        raise RuntimeError("256-bit preset parameters are not prime")  # pragma: no cover
    return _group_from_params("modp-256", _SAFE_256_P, _SAFE_256_Q, _quadratic_residue_generator(_SAFE_256_P))


@lru_cache(maxsize=None)
def testing_group() -> ModPGroup:
    """A tiny, fast, **insecure** group for unit tests only."""
    if not _is_probable_prime(_TOY_Q) or not _is_probable_prime(_TOY_P):
        raise RuntimeError("testing group parameters are not prime")  # pragma: no cover
    return _group_from_params("modp-toy-INSECURE", _TOY_P, _TOY_Q, _quadratic_residue_generator(_TOY_P))


# Test modules import this factory by name, and its name starts with "test",
# so pytest would otherwise collect it as a test function.
testing_group.__test__ = False  # type: ignore[attr-defined]


def _reset_group_caches() -> None:
    """Drop the canonical group instances (bigint backend switched).

    Registered with :func:`repro.crypto.bigint.register_reset_hook`; groups
    constructed after a backend switch must capture the new backend, and the
    cached singletons hold the old one.
    """
    _group_from_params.cache_clear()
    modp_group_2048.cache_clear()
    modp_group_3072.cache_clear()
    modp_group_256.cache_clear()
    testing_group.cache_clear()


bigint.register_reset_hook(_reset_group_caches)


def _is_probable_prime(n: int, rounds: int = 20) -> bool:
    """Miller–Rabin primality test (deterministic witnesses + random rounds)."""
    if n < 2:
        return False
    small_primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    for p in small_primes:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    import random

    # Witnesses are drawn from an RNG seeded by the candidate itself: the
    # same n always gets the same witness set, so a primality verdict is
    # replayable across processes and schedules (REP002).  Soundness is
    # unchanged — Miller-Rabin only needs witnesses the adversary cannot
    # choose *after* seeing n, and group moduli here are fixed constants.
    rng = random.Random(n)
    witnesses = small_primes + [rng.randrange(2, n - 1) for _ in range(rounds)]
    for a in witnesses:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True
