"""Tally-verification strategy comparison: eager vs batched vs streaming.

The :mod:`repro.audit` batched strategy folds Schnorr signatures, shuffle
openings, tagging chains and decryption shares into random-linear-combination
products, trading full-width exponentiations for ``|w|``-bit ones.  That
trade only pays where exponent width dominates — i.e. at production group
sizes — so this bench runs the full tally-verification workload (cascade
openings + published tagging/decryption evidence) over the 2048-bit
large-modulus group the paper's cost model targets.

CI runs this as a smoke test with three gates:

* every strategy accepts the honest election, with bit-identical
  :class:`~repro.audit.api.AuditReport` outcomes (correctness before speed);
* the batched strategy verifies at least ``REQUIRED_SPEEDUP``× faster than
  the eager reference;
* the streaming strategy is not slower than eager (it runs the same folds,
  sharded).
"""

from __future__ import annotations

import time

from repro.audit.api import BatchedVerifier, EagerVerifier, StreamingVerifier
from repro.audit.checks import tally_audit_plan
from repro.bench.harness import ResultTable, emit_bench_json, format_seconds
from repro.bench.workloads import tally_workload
from repro.crypto.modp_group import modp_group_2048
from repro.tally.pipeline import TallyPipeline

NUM_VOTERS = 6
NUM_MEMBERS = 3
NUM_MIXERS = 2
PROOF_ROUNDS = 2
#: Required advantage of the batched strategy over eager (CI gate).
REQUIRED_SPEEDUP = 3.0


def test_batched_verification_outpaces_eager():
    group = modp_group_2048()
    authority, board = tally_workload(group, NUM_VOTERS, num_authority_members=NUM_MEMBERS)
    pipeline = TallyPipeline(
        group,
        authority,
        num_mixers=NUM_MIXERS,
        proof_rounds=PROOF_ROUNDS,
        collect_evidence=True,
    )
    result = pipeline.run(board, 2, "default")

    plan = tally_audit_plan(group, authority, board, result)
    timings = {}
    reports = {}
    for label, verifier in (
        ("eager", EagerVerifier()),
        ("batched", BatchedVerifier()),
        ("stream", StreamingVerifier()),
    ):
        start = time.perf_counter()
        reports[label] = verifier.run(plan)
        timings[label] = time.perf_counter() - start

    table = ResultTable(
        title=f"Tally verification, {NUM_VOTERS} voters, 2048-bit group ({len(plan)} checks)",
        columns=["strategy", "wall clock", "speedup vs eager"],
    )
    for label, seconds in timings.items():
        table.add_row(label, format_seconds(seconds), f"{timings['eager'] / seconds:.2f}x")
    table.print()

    # Correctness before speed: every strategy accepts, with identical outcomes.
    for label, report in reports.items():
        assert report.ok, f"{label} rejected an honest election: {report.summary()}"
    assert len({report.fingerprint() for report in reports.values()}) == 1

    batched_speedup = timings["eager"] / timings["batched"]
    stream_speedup = timings["eager"] / timings["stream"]
    emit_bench_json(
        "verify",
        {
            "num_voters": NUM_VOTERS,
            "num_checks": len(plan),
            "eager_seconds": timings["eager"],
            "batched_seconds": timings["batched"],
            "stream_seconds": timings["stream"],
            "batched_speedup": batched_speedup,
            "stream_speedup": stream_speedup,
            "required_speedup": REQUIRED_SPEEDUP,
        },
    )
    assert batched_speedup >= REQUIRED_SPEEDUP, (
        f"batched verification only {batched_speedup:.2f}× faster than eager "
        f"(required ≥ {REQUIRED_SPEEDUP}×)"
    )
    assert stream_speedup >= 1.0, (
        f"streaming verification regressed below eager ({stream_speedup:.2f}×)"
    )
