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
exact under every shard geometry of the tally's one schedule (``serial``:
one shard holding every item; ``stream``: the other geometries of the
``pipeline_geometries`` fixture) and for a group with and without
fixed-base tables, so any exponentiation computed twice or thrown away
fails this test.

The default (batched) audit of an evidence tally makes no full-width
exponentiation at all: every proof equation lands in a multi-exponentiation.
That holds with a crafted ballot on the board too: the tally drops a ballot
holding an element outside the subgroup as it reads the ledger, so no
non-member reaches the mix and sends a fold to its reference checks.
"""

from __future__ import annotations

import functools
import threading
from collections import Counter

import pytest

from repro.audit.checks import audit_tally
from repro.bench.workloads import tally_workload
from repro.crypto.elgamal import ElGamal, ElGamalCiphertext
from repro.crypto.group import Group
from repro.crypto.hashing import sha256
from repro.crypto.modp_group import ModPElement, modp_group_256, testing_group
from repro.crypto.schnorr import schnorr_keygen, schnorr_sign
from repro.ledger.records import BallotRecord
from repro.runtime.batch import verify_signatures
from repro.runtime.precompute import FixedBaseTable
from repro.tally import decrypt as tally_decrypt
from repro.tally import filter as tally_filter
from repro.tally import pipeline as tally_pipeline
from repro.tally.pipeline import TallyPipeline, _ballot_signature_items, valid_ballot_page

NUM_VOTERS = 3
NUM_MEMBERS = 3

#: (full-width, generator powers) per member, per tag and per counted vote.
BUDGET = {
    False: {"tag": (3, 0), "decrypt": (1, 0)},
    True: {"tag": (6, 3), "decrypt": (2, 1)},
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
@pytest.mark.parametrize("schedule", ["serial", "stream"])
@pytest.mark.parametrize("evidence", [False, True], ids=["evidence-off", "evidence-on"])
def test_tag_and_decrypt_budget_is_exact(counter, pipeline_geometries, group_name, schedule, evidence):
    group = GROUPS[group_name]()
    authority, board = tally_workload(group, NUM_VOTERS, num_options=2, num_authority_members=NUM_MEMBERS)
    one_shard, *streamed = pipeline_geometries
    for spec in [one_shard] if schedule == "serial" else streamed:
        counter.counts.clear()
        result = TallyPipeline(
            group=group,
            authority=authority,
            num_mixers=2,
            proof_rounds=2,
            pipeline=spec,
            collect_evidence=evidence,
        ).run(board, 2)

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
        assert +counter.counts == +Counter(expected), f"geometry {spec}"
        assert (result.evidence is not None) == evidence
    board.close()


@pytest.fixture()
def audit_counter(monkeypatch):
    """Counts the audit's top-level exponentiations, with perfbench's nesting rule.

    Exponentiations inside a multi-exponentiation (the naive per-term loop
    small groups use) are charged to the multi-exponentiation.
    """
    counter = _ExpCounter()
    monkeypatch.setattr(ModPElement, "exponentiate", counter.count("full", ModPElement.exponentiate))
    monkeypatch.setattr(Group, "power", counter.count("generator", Group.power))
    monkeypatch.setattr(FixedBaseTable, "power", counter.count("table", FixedBaseTable.power))
    monkeypatch.setattr(Group, "multi_exponentiate", counter.count("multiexp", Group.multi_exponentiate))
    return counter


def _non_member_ballot(group, public_key) -> BallotRecord:
    """A correctly signed ballot (fake credential) whose ``c1`` is ``-c1``.

    ``-x`` is outside the quadratic-residue subgroup, and every re-encryption
    of the ballot keeps it outside.
    """
    credential = schnorr_keygen(group)
    honest = ElGamal(group).encrypt_int(public_key, 0)
    ciphertext = ElGamalCiphertext(group.element(group.modulus - honest.c1.value), honest.c2)
    message = sha256(b"ballot", b"default", ciphertext.to_bytes(), credential.public.to_bytes())
    return BallotRecord(credential.public, ciphertext.c1, ciphertext.c2, schnorr_sign(credential, message))


@pytest.mark.parametrize("crafted", [False, True], ids=["honest", "non-member-ballot"])
@pytest.mark.parametrize("group_name", sorted(GROUPS))
def test_default_audit_makes_no_variable_base_exponentiation(audit_counter, group_name, crafted):
    """The default audit folds every proof equation: no full-width or generator power.

    The eager reference exponentiates every proof-equation term; the batched
    fold replaces them with multi-exponentiations, and both report the same
    outcomes.  A signed ballot with a non-member ``c1`` is dropped before
    the mix, so it costs the audit no fallback to the reference checks.
    """
    group = GROUPS[group_name]()
    authority, board = tally_workload(group, NUM_VOTERS, num_options=2, num_authority_members=NUM_MEMBERS)
    if crafted:
        record = _non_member_ballot(group, authority.public_key)
        assert verify_signatures(_ballot_signature_items([record])) == [True]
        assert valid_ballot_page([record]) == []
        board.post_ballot(record)
    result = TallyPipeline(
        group=group, authority=authority, num_mixers=2, proof_rounds=2, collect_evidence=True
    ).run(board, 2)
    assert result.num_valid_ballots == NUM_VOTERS
    audit = audit_counter.phase("audit", audit_tally)
    reports, counts = {}, {}
    for strategy in (None, "eager"):
        audit_counter.counts.clear()
        reports[strategy] = audit(group, authority, board, result, verifier=strategy)
        counts[strategy] = +audit_counter.counts
    board.close()

    assert reports[None].strategy == "batched" and reports[None].ok
    assert reports[None].fingerprint() == reports["eager"].fingerprint()
    assert reports[None].counts_by_kind()["decryption-share"][0] > 0
    assert counts[None]["audit", "full"] == 0
    assert counts[None]["audit", "generator"] == 0
    assert counts[None]["audit", "multiexp"] > 0
    assert counts["eager"]["audit", "full"] > 0
