"""Tests specific to the mod-p Schnorr-group backend."""

import pytest

from repro.crypto.modp_group import (
    ModPGroup,
    modp_group_2048,
    modp_group_256,
    testing_group,
    _is_probable_prime,
)


class TestParameters:
    def test_testing_group_is_safe_prime(self):
        group = testing_group()
        assert _is_probable_prime(group.modulus)
        assert _is_probable_prime(group.order)
        assert group.modulus == 2 * group.order + 1

    def test_256_bit_group_is_safe_prime(self):
        group = modp_group_256()
        assert group.modulus.bit_length() == 256
        assert _is_probable_prime(group.order)

    def test_2048_bit_group_parameters(self):
        group = modp_group_2048()
        assert group.modulus.bit_length() == 2048
        assert group.modulus == 2 * group.order + 1

    def test_groups_are_cached_singletons(self):
        assert testing_group() is testing_group()

    def test_generator_is_quadratic_residue(self):
        group = testing_group()
        assert pow(group.generator.value, group.order, group.modulus) == 1


class TestMembership:
    def test_generated_elements_are_members(self):
        group = testing_group()
        for _ in range(10):
            assert group.is_member(group.power(group.random_scalar()))

    def test_non_member_detected(self):
        group = testing_group()
        # A generator of the full group Z_p* is not in the order-q subgroup.
        candidate = 7
        while pow(candidate, group.order, group.modulus) == 1:
            candidate += 1
        assert not group.is_member(group.element(candidate))

    @pytest.mark.parametrize("factory", [testing_group, modp_group_256, modp_group_2048])
    def test_jacobi_membership_agrees_with_order_test(self, factory):
        group = factory()
        for _ in range(4):
            member = group.power(group.random_scalar())
            negated = group.element(group.modulus - member.value)
            for element in (member, negated):
                expected = pow(int(element.value), group.order, int(group.modulus)) == 1
                assert group.is_member(element) == expected
            assert group.is_member(member) and not group.is_member(negated)
        assert not group.is_member(group.element(0))

    def test_modulus_must_be_a_safe_prime(self):
        group = testing_group()
        with pytest.raises(ValueError, match="safe prime"):
            ModPGroup("not-safe", group.modulus, group.order - 2, 4)

    def test_element_from_bytes_rejects_out_of_range(self):
        group = testing_group()
        too_large = (group.modulus + 5).to_bytes(group.element_bytes + 1, "big")
        with pytest.raises(ValueError):
            group.element_from_bytes(too_large)

    def test_cross_group_operation_rejected(self):
        a = testing_group().power(3)
        b = modp_group_256().power(3)
        with pytest.raises(TypeError):
            a.operate(b)


class TestPrimalityHelper:
    @pytest.mark.parametrize("prime", [2, 3, 5, 97, 104729, 2**61 - 1])
    def test_accepts_primes(self, prime):
        assert _is_probable_prime(prime)

    @pytest.mark.parametrize("composite", [0, 1, 4, 100, 561, 2**61 - 3])
    def test_rejects_composites(self, composite):
        assert not _is_probable_prime(composite)
