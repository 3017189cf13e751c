"""The exact exponentiation budget of the tally's tag and decrypt phases.

Exponentiations are the cost of a tally (§7.3), and every one the tag and
decrypt phases make is accounted for here, with ``n`` authority members:

=========  ==========================================  ======================
evidence   per tag (registration or ballot)            per counted vote
=========  ==========================================  ======================
off        ``3n`` full-width, 0 generator powers        ``n`` full-width
on         ``6n`` full-width, ``3n`` generator powers   ``2n`` + ``n``
=========  ==========================================  ======================

Off: per member, one blinding exponentiation per ciphertext component and
one bare decryption factor.  On: per member, the two components' blinding,
two tagging proofs (a variable-base and a generator commitment each) and a
proven decryption share (its factor, ``c1^w`` and ``g^w``).  The counts are
exact on both schedules and for a group with and without fixed-base tables,
so any exponentiation computed twice or thrown away fails this test.
"""

from __future__ import annotations

import functools
import threading
from collections import Counter

import pytest

from repro.bench.workloads import tally_workload
from repro.crypto.group import Group
from repro.crypto.modp_group import ModPElement, modp_group_256, testing_group
from repro.runtime.pipeline import PipelineSpec
from repro.runtime.precompute import FixedBaseTable
from repro.tally import decrypt as tally_decrypt
from repro.tally import filter as tally_filter
from repro.tally import pipeline as tally_pipeline
from repro.tally.pipeline import TallyPipeline

NUM_VOTERS = 3
NUM_MEMBERS = 3

#: (full-width, generator powers) per member, per tag and per counted vote.
BUDGET = {
    False: {"tag": (3, 0), "decrypt": (1, 0)},
    True: {"tag": (6, 3), "decrypt": (2, 1)},
}

SCHEDULES = {
    "serial": None,
    "stream": PipelineSpec(streaming=True, shard_size=2, queue_depth=2),
}

GROUPS = {"toy": testing_group, "modp-256": modp_group_256}


class _ExpCounter:
    """Counts top-level exponentiations per (phase, kind), per thread.

    A call nested inside another counted call (the generator's own
    exponentiation or table lookup inside :meth:`Group.power`) is charged
    to the outer call only.
    """

    def __init__(self):
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def count(self, kind, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = self._local
            phase = getattr(local, "phase", None)
            if phase is None or getattr(local, "busy", False):
                return fn(*args, **kwargs)
            local.busy = True
            try:
                return fn(*args, **kwargs)
            finally:
                local.busy = False
                with self._lock:
                    self.counts[phase, kind] += 1

        return wrapper

    def phase(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._local.phase = name
            try:
                return fn(*args, **kwargs)
            finally:
                self._local.phase = None

        return wrapper


@pytest.fixture()
def counter(monkeypatch):
    counter = _ExpCounter()
    monkeypatch.setattr(ModPElement, "exponentiate", counter.count("full", ModPElement.exponentiate))
    monkeypatch.setattr(Group, "power", counter.count("generator", Group.power))
    monkeypatch.setattr(FixedBaseTable, "power", counter.count("table", FixedBaseTable.power))
    derive_tags = counter.phase("tag", tally_filter.derive_tags)
    decrypt_ciphertexts = counter.phase("decrypt", tally_decrypt.decrypt_ciphertexts)
    for module in (tally_filter, tally_pipeline):
        monkeypatch.setattr(module, "derive_tags", derive_tags)
    for module in (tally_decrypt, tally_pipeline):
        monkeypatch.setattr(module, "decrypt_ciphertexts", decrypt_ciphertexts)
    return counter


@pytest.mark.parametrize("group_name", sorted(GROUPS))
@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@pytest.mark.parametrize("evidence", [False, True], ids=["evidence-off", "evidence-on"])
def test_tag_and_decrypt_budget_is_exact(counter, group_name, schedule, evidence):
    group = GROUPS[group_name]()
    authority, board = tally_workload(group, NUM_VOTERS, num_options=2, num_authority_members=NUM_MEMBERS)
    result = TallyPipeline(
        group=group,
        authority=authority,
        num_mixers=2,
        proof_rounds=2,
        pipeline=SCHEDULES[schedule],
        collect_evidence=evidence,
    ).run(board, 2)
    board.close()

    tags = len(result.filter_result.registration_tags) + len(result.filter_result.ballot_tags)
    assert (tags, result.num_counted) == (2 * NUM_VOTERS, NUM_VOTERS)
    (tag_full, tag_generator), (vote_full, vote_generator) = (
        BUDGET[evidence]["tag"], BUDGET[evidence]["decrypt"]
    )
    n = NUM_MEMBERS
    expected = {
        ("tag", "full"): tag_full * n * tags,
        ("tag", "generator"): tag_generator * n * tags,
        ("decrypt", "full"): vote_full * n * result.num_counted,
        ("decrypt", "generator"): vote_generator * n * result.num_counted,
    }
    assert +counter.counts == +Counter(expected)
    assert (result.evidence is not None) == evidence
