"""Tests for the pluggable big-integer backend (:mod:`repro.crypto.bigint`).

Backend *selection* semantics are tested in-process (they never mutate the
active backend).  Backend *switching* — which rebuilds the cached group
singletons — runs in subprocesses so the session-scoped group fixtures of
the rest of the suite are never invalidated.  The gmpy2 bit-identity matrix
leg only runs where gmpy2 is installed (CI's optional-deps job).
"""

import os
import random
import subprocess
import sys

import pytest

from repro.crypto import bigint

HAS_GMPY2 = "gmpy2" in bigint.available_backends()


def _run(code: str, **env: str) -> str:
    environment = dict(os.environ)
    environment.pop(bigint.ENV_VAR, None)
    environment["PYTHONPATH"] = "src"
    environment.update(env)
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=environment,
        cwd=os.path.join(os.path.dirname(__file__), "..", ".."),
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


# A deterministic transcript covering the operations a tally exercises:
# exponentiation, multiplication, inversion, hashing into the group,
# multi-exponentiation and canonical byte encoding.  Printed as a hex
# fingerprint so backend runs can be compared byte-for-byte.
_FINGERPRINT_CODE = """
import hashlib
from repro.crypto.bigint import active_backend
from repro.crypto.modp_group import modp_group_2048

group = modp_group_2048()
h = hashlib.sha256()
element = group.power(0xDEADBEEF)
h.update(element.to_bytes())
h.update(element.inverse().to_bytes())
h.update(group.hash_to_element(b"bit-identity").to_bytes())
bases = [group.power(3 + i) for i in range(8)]
scalars = [(-1) ** i * (0x1234567 << i) for i in range(8)]
h.update(group.multi_exponentiate(bases, scalars).to_bytes())
print(active_backend().name, h.hexdigest())
"""


class TestSelection:
    def test_python_backend_always_available(self):
        assert "python" in bigint.available_backends()

    def test_resolve_auto_returns_some_backend(self):
        assert bigint.resolve_backend("auto").name in ("python", "gmpy2")

    def test_resolve_unknown_name_raises(self):
        with pytest.raises(bigint.BigIntError):
            bigint.resolve_backend("gmp")

    def test_resolve_gmpy2_without_package_raises(self):
        if HAS_GMPY2:
            pytest.skip("gmpy2 installed; the failure path is not reachable")
        with pytest.raises(bigint.BigIntError):
            bigint.resolve_backend("gmpy2")

    def test_require_auto_accepts_active(self):
        assert bigint.require("auto").name == bigint.active_backend().name

    def test_require_matching_name_accepts(self):
        assert bigint.require(bigint.active_backend().name) is not None

    def test_require_mismatch_raises_with_remediation(self):
        active = bigint.active_backend().name
        other = "gmpy2" if active == "python" else "python"
        with pytest.raises(bigint.BigIntError, match=bigint.ENV_VAR):
            bigint.require(other)

    def test_require_unknown_name_raises(self):
        with pytest.raises(bigint.BigIntError):
            bigint.require("fastest")


class TestEnvSelection:
    def test_env_var_selects_python(self):
        out = _run(
            "from repro.crypto.bigint import active_backend; print(active_backend().name)",
            REPRO_BIGINT="python",
        )
        assert out == "python"

    def test_default_is_auto(self):
        out = _run("from repro.crypto.bigint import active_backend; print(active_backend().name)")
        assert out == ("gmpy2" if HAS_GMPY2 else "python")


class TestSwitching:
    def test_switch_rebuilds_group_singletons(self):
        # Same-name switch still runs the reset hooks, so this needs no
        # optional dependency to pin the rebuild contract.
        out = _run(
            "from repro.crypto import bigint\n"
            "from repro.crypto.modp_group import testing_group\n"
            "before = testing_group()\n"
            "element = before.power(7)\n"
            "previous = bigint.set_active_backend('python')\n"
            "after = testing_group()\n"
            "print(previous, before is after, element.to_bytes() == after.power(7).to_bytes())",
            REPRO_BIGINT="python",
        )
        assert out == "python False True"


class TestBitIdentity:
    def test_python_fingerprint_is_deterministic(self):
        first = _run(_FINGERPRINT_CODE, REPRO_BIGINT="python")
        second = _run(_FINGERPRINT_CODE, REPRO_BIGINT="python")
        assert first == second and first.startswith("python ")

    @pytest.mark.skipif(not HAS_GMPY2, reason="gmpy2 not installed")
    def test_gmpy2_transcripts_bit_identical_to_python(self):
        python_out = _run(_FINGERPRINT_CODE, REPRO_BIGINT="python")
        gmpy2_out = _run(_FINGERPRINT_CODE, REPRO_BIGINT="gmpy2")
        assert python_out.split()[1] == gmpy2_out.split()[1]
        assert gmpy2_out.startswith("gmpy2 ")

    @pytest.mark.skipif(not HAS_GMPY2, reason="gmpy2 not installed")
    def test_mpz_values_hash_and_roundtrip_like_int(self):
        import gmpy2

        value = 2**2047 + 12345
        assert hash(gmpy2.mpz(value)) == hash(value)
        assert int(gmpy2.mpz(value)) == value


def _jacobi_by_definition(a: int, n: int) -> int:
    """The Jacobi symbol as the product of Legendre symbols (Euler's criterion)."""
    result, remaining, factor = 1, n, 3
    while remaining > 1:
        if remaining % factor == 0:
            remaining //= factor
            legendre = pow(a, (factor - 1) // 2, factor)
            result *= -1 if legendre == factor - 1 else legendre
        else:
            factor += 2
    return result


class TestJacobi:
    def test_matches_definition_on_small_moduli(self):
        for n in range(1, 160, 2):
            for a in range(-3, 2 * n):
                assert bigint.jacobi(a, n) == _jacobi_by_definition(a, n), (a, n)

    def test_rejects_even_or_non_positive_modulus(self):
        for n in (0, -3, 8):
            with pytest.raises(ValueError):
                bigint.jacobi(3, n)

    def test_decides_residuosity_modulo_a_2048_bit_safe_prime(self):
        from repro.crypto.modp_group import modp_group_2048

        group = modp_group_2048()
        p, q = int(group.modulus), group.order
        rng = random.Random(2048)
        for _ in range(8):
            value = rng.randrange(1, p)
            assert (bigint.jacobi(value, p) == 1) == (pow(value, q, p) == 1)

    @pytest.mark.skipif(not HAS_GMPY2, reason="gmpy2 not installed")
    def test_backends_agree(self):
        python, native = bigint.resolve_backend("python"), bigint.resolve_backend("gmpy2")
        modulus = 2**2203 - 1  # a Mersenne prime; any odd modulus will do
        for value in [0, 1, 2, modulus - 1, 3**1000, 7**777 + 5, 2**2047 + 12345]:
            expected = python.jacobi(value, modulus)
            assert native.jacobi(native.convert(value), native.convert(modulus)) == expected
            assert native.jacobi(value, 3 * 5 * 7 * 11) == python.jacobi(value, 3 * 5 * 7 * 11)
