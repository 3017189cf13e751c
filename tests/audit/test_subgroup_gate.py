"""The batch folds refuse bases outside the prime-order subgroup.

Every mod-p group here is the quadratic-residue subgroup of Z_p* for a safe
prime p, so ``p - x`` (that is, ``-x``) is a non-member whenever ``x`` is a
member.  The RLC weights are odd, so two sign flips in one product cancel:
without a membership gate the ``shuffle-round`` fold accepts a batch whose
reference predicates reject (Boyd–Pavlovski, ASIACRYPT 2000).  With the
gate, a fold holding a non-member rejects, bisection hands the affected
checks to their reference predicates, and the batched verdicts equal the
eager ones check for check.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.audit.kinds import chunk_verdicts, get_kind
from repro.crypto.elgamal import ElGamal
from repro.crypto.modp_group import modp_group_256, testing_group
from repro.runtime.batch import batch_reencryption_verify
from repro.tally.mixnet import (
    check_round_mapping,
    round_mapping_items,
    round_mapping_sides,
    shuffle_tuples_with_proof,
)

GROUPS = {"toy": testing_group, "modp-256": modp_group_256}


def _negate(element):
    group = element.group
    return group.element(group.modulus - element.value)


def _flip_c1(item):
    """The tuple with its first ciphertext's ``c1`` replaced by ``-c1``."""
    first, *rest = item
    return (replace(first, c1=_negate(first.c1)), *rest)


@pytest.fixture(params=sorted(GROUPS))
def shuffle_rounds(request):
    """Three honest ``shuffle-round`` evidence tuples over one public key."""
    group = GROUPS[request.param]()
    elgamal = ElGamal(group)
    public_key = elgamal.keygen().public
    inputs = [
        (elgamal.encrypt_int(public_key, value), elgamal.encrypt_int(public_key, value + 1))
        for value in range(3)
    ]
    shuffle = shuffle_tuples_with_proof(elgamal, public_key, inputs, rounds=3)
    evidences = []
    for round_ in shuffle.rounds:
        sources, targets = round_mapping_sides(inputs, shuffle.outputs, round_)
        evidences.append((elgamal, public_key, tuple(sources), tuple(targets), round_.opening))
    return evidences


def _flip_targets(evidence, positions):
    elgamal, public_key, sources, targets, opening = evidence
    flipped = tuple(_flip_c1(item) if index in positions else item for index, item in enumerate(targets))
    return (elgamal, public_key, sources, flipped, opening)


def _flip_pair(evidence, position):
    """Flip one target *and* the source it maps from: the reference accepts."""
    elgamal, public_key, sources, targets, opening = evidence
    source_index = opening.permutation[position]
    sources = tuple(_flip_c1(item) if index == source_index else item for index, item in enumerate(sources))
    targets = tuple(_flip_c1(item) if index == position else item for index, item in enumerate(targets))
    return (elgamal, public_key, sources, targets, opening)


def _reference(kind, evidences):
    return [bool(kind.verify_one(*evidence)) for evidence in evidences]


def test_honest_rounds_pass(shuffle_rounds):
    kind = get_kind("shuffle-round")
    assert chunk_verdicts(kind, shuffle_rounds) == [True, True, True]


def test_two_flipped_targets_in_one_round(shuffle_rounds):
    kind = get_kind("shuffle-round")
    evidences = list(shuffle_rounds)
    evidences[1] = _flip_targets(evidences[1], {0, 1})
    expected = _reference(kind, evidences)
    assert expected == [True, False, True]
    assert chunk_verdicts(kind, evidences) == expected


def test_flipped_targets_in_two_rounds(shuffle_rounds):
    kind = get_kind("shuffle-round")
    evidences = list(shuffle_rounds)
    evidences[0] = _flip_targets(evidences[0], {2})
    evidences[2] = _flip_targets(evidences[2], {0})
    expected = _reference(kind, evidences)
    assert expected == [False, True, False]
    assert chunk_verdicts(kind, evidences) == expected


def test_non_member_the_reference_accepts_still_passes(shuffle_rounds):
    kind = get_kind("shuffle-round")
    evidences = list(shuffle_rounds)
    evidences[0] = _flip_pair(evidences[0], 1)
    assert _reference(kind, evidences) == [True, True, True]
    assert chunk_verdicts(kind, evidences) == [True, True, True]
    elgamal, public_key, sources, targets, opening = evidences[0]
    assert not batch_reencryption_verify(elgamal, public_key, round_mapping_items(sources, targets, opening))
    assert check_round_mapping(elgamal, public_key, sources, targets, opening, batch=True)


def test_fold_rejects_cancelling_flips(shuffle_rounds):
    elgamal, public_key, sources, targets, opening = _flip_targets(shuffle_rounds[0], {0, 1})
    items = round_mapping_items(sources, targets, opening)
    assert not batch_reencryption_verify(elgamal, public_key, items)
    assert not check_round_mapping(elgamal, public_key, sources, targets, opening, batch=True)
