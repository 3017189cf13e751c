"""Pluggable big-integer arithmetic backends for the mod-p groups.

CPython's arbitrary-precision integers are correct but leave a lot of raw
speed on the table for the 2048/3072-bit moduli the large-group benchmarks
run on: `gmpy2 <https://pypi.org/project/gmpy2/>`_ (GMP under the hood)
multiplies and exponentiates the same numbers several times faster.  This
module is the seam that lets :class:`~repro.crypto.modp_group.ModPGroup` use
either implementation without the rest of the stack noticing:

* the **python** backend is plain ``int`` arithmetic — always available, the
  reference semantics;
* the **gmpy2** backend stores element values as ``gmpy2.mpz`` and routes
  exponentiation through ``gmpy2.powmod``.  It is an optional dependency
  (``pip install repro-votegral[native]``); requesting it without the
  package installed raises :class:`BigIntError`.

Backend choice is a **per-process acceleration detail, never a protocol
parameter**: every element's canonical byte encoding, every hash, every
published transcript is bit-identical across backends (``mpz`` round-trips
exactly through ``int``), which the cross-backend test matrix pins down.  A
cluster can therefore mix workers with and without gmpy2 freely.

Selection:

* the ``REPRO_BIGINT`` environment variable (``auto`` | ``python`` |
  ``gmpy2``) picks the backend for the whole process, resolved lazily on
  first use and inherited by forked/spawned workers;
* ``auto`` (the default) uses gmpy2 when importable, else pure Python;
* :attr:`repro.election.config.ElectionConfig.bigint_spec` validates the
  same grammar per election — it never silently switches a live process
  (groups already constructed keep their arithmetic), it only *checks* that
  the requested backend is the active one and fails loudly otherwise.

Tests that genuinely need to switch backends mid-process use
:func:`set_active_backend`, which clears the registered group/table caches
so later group constructions pick up the new arithmetic.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.errors import ReproError

#: Environment variable consulted (once, lazily) for the process-wide backend.
ENV_VAR = "REPRO_BIGINT"

#: The spec value meaning "fastest available backend".
AUTO = "auto"


class BigIntError(ReproError):
    """A big-integer backend was requested but cannot be used."""


@dataclass(frozen=True)
class BigIntBackend:
    """One big-integer arithmetic implementation.

    ``convert`` maps a Python ``int`` into the backend's value type (values
    support ``*``, ``%``, ``==``, ``hash`` and ``int()`` round-tripping);
    ``powmod``/``invert`` are the two operations whose native implementations
    carry almost all of the speedup.  ``jacobi(a, n)`` is the Jacobi symbol
    for odd positive ``n`` (-1, 0 or 1): against a safe prime it decides
    quadratic-residue-subgroup membership for a fraction of the cost of
    ``powmod(a, q, p)``.
    """

    name: str
    convert: Callable[[int], Any]
    powmod: Callable[[Any, int, Any], Any]
    invert: Callable[[Any, Any], Any]
    jacobi: Callable[[Any, Any], int]


def jacobi(a: int, n: int) -> int:
    """The Jacobi symbol ``(a/n)`` for odd ``n > 0``, in pure Python.

    The binary algorithm: strip factors of two (each flips the sign when
    ``n ≡ 3, 5 (mod 8)``), swap by quadratic reciprocity (flipping when both
    are ``≡ 3 (mod 4)``), reduce, repeat.  Whole runs of trailing zeros
    come off in one shift; a 2048-bit symbol costs about a millisecond,
    against tens of milliseconds for ``pow(a, (n - 1) // 2, n)``.
    """
    if n <= 0 or not n & 1:
        raise ValueError("the Jacobi symbol needs an odd positive modulus")
    a %= n
    result = 1
    while a:
        zeros = (a & -a).bit_length() - 1
        a >>= zeros
        if zeros & 1 and n & 7 in (3, 5):
            result = -result
        if a & n & 3 == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


def _python_backend() -> BigIntBackend:
    return BigIntBackend(
        name="python",
        convert=int,
        powmod=pow,
        invert=lambda value, modulus: pow(value, -1, modulus),
        jacobi=jacobi,
    )


def _gmpy2_backend() -> BigIntBackend:
    try:
        import gmpy2
    except ImportError as exc:  # pragma: no cover - exercised only without gmpy2
        raise BigIntError(
            "the gmpy2 big-integer backend was requested but gmpy2 is not "
            "installed (pip install gmpy2, or use REPRO_BIGINT=python)"
        ) from exc
    return BigIntBackend(
        name="gmpy2",
        convert=gmpy2.mpz,
        powmod=gmpy2.powmod,
        invert=gmpy2.invert,
        jacobi=gmpy2.jacobi,
    )


_FACTORIES: "dict[str, Callable[[], BigIntBackend]]" = {
    "python": _python_backend,
    "gmpy2": _gmpy2_backend,
}


def available_backends() -> List[str]:
    """Backend names that would resolve successfully in this process."""
    names = ["python"]
    try:
        import gmpy2  # noqa: F401
    except ImportError:
        pass
    else:
        names.append("gmpy2")
    return names


def resolve_backend(spec: str = AUTO) -> BigIntBackend:
    """Instantiate the backend for ``spec`` (``auto``/``python``/``gmpy2``).

    ``auto`` prefers gmpy2 when importable and silently falls back to pure
    Python; an explicit name is honoured exactly or raises
    :class:`BigIntError`.
    """
    name = (spec or AUTO).strip().lower()
    if name == AUTO:
        try:
            return _gmpy2_backend()
        except BigIntError:
            return _python_backend()
    factory = _FACTORIES.get(name)
    if factory is None:
        raise BigIntError(
            f"unknown bigint backend {spec!r} (expected one of: auto, python, gmpy2)"
        )
    return factory()


_active: Optional[BigIntBackend] = None

# Callables that drop caches keyed to the previous backend's group instances
# (the mod-p group singletons, fixed-base tables).  Registered by the modules
# that own those caches so this module stays import-cycle free.
_reset_hooks: List[Callable[[], None]] = []


def register_reset_hook(hook: Callable[[], None]) -> None:
    """Register a cache-clearing callback invoked by :func:`set_active_backend`."""
    _reset_hooks.append(hook)


def active_backend() -> BigIntBackend:
    """The process-wide backend, resolved from ``REPRO_BIGINT`` on first use."""
    global _active
    if _active is None:
        _active = resolve_backend(os.environ.get(ENV_VAR, AUTO))
    return _active


def set_active_backend(spec: str) -> str:
    """Switch the process-wide backend; returns the previous backend's name.

    Clears every registered group/table cache so groups constructed *after*
    the switch use the new arithmetic.  Elements created before the switch
    keep their old group instances (mixing them with new ones raises the
    usual cross-group :class:`TypeError`), so this is a test/tooling hook —
    production processes select the backend once, via ``REPRO_BIGINT``,
    before any group exists.
    """
    global _active
    previous = active_backend().name
    _active = resolve_backend(spec)
    for hook in _reset_hooks:
        hook()
    return previous


def require(spec: str) -> BigIntBackend:
    """Validate an election's ``bigint_spec`` against the active backend.

    ``auto`` accepts whatever is active.  An explicit ``python``/``gmpy2``
    must *match* the active backend: arithmetic backends are fixed per
    process (group singletons and precomputed tables are built on one value
    type), so a mismatch means the environment was not set up as the config
    demands — fail loudly with the fix rather than silently running slower
    or half-switched.
    """
    name = (spec or AUTO).strip().lower()
    if name == AUTO:
        return active_backend()
    if name not in _FACTORIES:
        raise BigIntError(
            f"unknown bigint backend {spec!r} (expected one of: auto, python, gmpy2)"
        )
    active = active_backend()
    if active.name != name:
        raise BigIntError(
            f"bigint_spec={name!r} but this process resolved the "
            f"{active.name!r} backend; set {ENV_VAR}={name} in the "
            "environment before the first group is constructed"
        )
    return active
