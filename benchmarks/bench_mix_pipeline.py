"""Streaming vs reference mix cascade — the pipelining overlap benchmark.

The reference cascade (``tuple_mix_cascade``) is a chain of barriers: mixer *i+1* waits for mixer *i*
to finish its main output **and** all of its shadow shuffles.  The streaming
cascade (``repro.runtime.pipeline``) hands mixer *i*'s main output shards
downstream as they complete and computes the shadow proofs — ``rounds/(rounds
+ 1)`` of each mixer's work — concurrently with the next mixer.

This bench runs both schedules over the 2048-bit group (where per-item cost
dominates scheduling overhead) on a ≥3-mixer cascade, pinned to one seeded
randomness tape so the two cascades are **bit-identical** and the comparison
is purely about scheduling.  CI gates on it:

* always: the streamed schedule must not regress the serial wall clock
  (small tolerance for queue overhead on single-CPU runners);
* with ≥4 CPUs (the PR 1 gating convention): the streamed schedule must be
  strictly faster, because stage overlap then has real cores to land on.

Machine-readable results go to ``BENCH_mix_pipeline.json`` when
``REPRO_BENCH_JSON_DIR`` is set (uploaded as a CI artifact).
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

from repro.bench.harness import emit_bench_json, format_seconds, speedup_table
from repro.crypto.elgamal import ElGamal
from repro.crypto.group import Group
from repro.crypto.modp_group import modp_group_2048
from repro.runtime.executor import ProcessExecutor, SerialExecutor, available_workers
from repro.runtime.pipeline import PipelineSpec
from repro.tally import mixnet
from repro.tally.mixnet import streaming_tuple_mix_cascade, tuple_mix_cascade, verify_tuple_cascade

NUM_ITEMS = 10
NUM_MIXERS = 3
PROOF_ROUNDS = 2
SHARD_SIZE = 2
QUEUE_DEPTH = 2
#: Queue/thread overhead allowance for runners without spare cores.
NO_REGRESSION_TOLERANCE = 1.05
#: Strict-speedup gate applies at this CPU count (same convention as PR 1).
MIN_CPUS_FOR_SPEEDUP = 4
#: Best-of-N timing: enough repeats that the strict CI gate measures the
#: schedule, not shared-runner noise.
REPEATS = 3


@contextmanager
def _seeded_tape(seed: int):
    """Pin the output-shaping randomness so both schedules mix identically."""
    rng = random.Random(seed)
    original_scalar = Group.random_scalar
    original_permutation = mixnet.random_permutation
    Group.random_scalar = lambda self: rng.randrange(1, self.order)
    mixnet.random_permutation = lambda n: rng.sample(range(n), n)
    try:
        yield
    finally:
        Group.random_scalar = original_scalar
        mixnet.random_permutation = original_permutation


def _inputs(group, elgamal, public_key):
    return [
        (
            elgamal.encrypt(public_key, group.power(index + 1)),
            elgamal.encrypt(public_key, group.power(index + 2)),
        )
        for index in range(NUM_ITEMS)
    ]


def _best_of(repeats, fn):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_streaming_cascade_overlap(benchmark):
    group = modp_group_2048()
    elgamal = ElGamal(group)
    secret = group.random_scalar()
    public_key = group.power(secret)
    inputs = _inputs(group, elgamal, public_key)

    cpus = available_workers()
    executor = ProcessExecutor(num_workers=MIN_CPUS_FOR_SPEEDUP) if cpus >= MIN_CPUS_FOR_SPEEDUP else SerialExecutor()
    executor.warm()
    spec = PipelineSpec(shard_size=SHARD_SIZE, queue_depth=QUEUE_DEPTH)

    def serial_run():
        with _seeded_tape(0xCA5CADE):
            return tuple_mix_cascade(
                elgamal, public_key, inputs, NUM_MIXERS, PROOF_ROUNDS, executor=executor
            )

    def streamed_run():
        with _seeded_tape(0xCA5CADE):
            return streaming_tuple_mix_cascade(
                elgamal, public_key, inputs, NUM_MIXERS, PROOF_ROUNDS, executor=executor, pipeline=spec
            )

    serial_seconds, serial_cascade = _best_of(REPEATS, serial_run)
    streamed_seconds, streamed_cascade = _best_of(REPEATS, streamed_run)

    # Same tape -> the streamed transcript is bit-identical, proofs included.
    assert streamed_cascade == serial_cascade
    assert verify_tuple_cascade(elgamal, public_key, inputs, streamed_cascade, executor=executor)

    timings = {"serial-schedule": serial_seconds, "streamed-schedule": streamed_seconds}
    speedup_table(
        f"Mix cascade scheduling — {NUM_MIXERS} mixers, {PROOF_ROUNDS} shadow rounds, "
        f"{NUM_ITEMS} ballots, modp-2048, executor={executor.name}",
        "serial-schedule",
        timings,
    ).print()
    print(
        f"cpus={cpus} shard={SHARD_SIZE} depth={QUEUE_DEPTH} "
        f"serial={format_seconds(serial_seconds)} streamed={format_seconds(streamed_seconds)}"
    )
    emit_bench_json(
        "mix_pipeline",
        {
            "cpus": cpus,
            "executor": executor.name,
            "num_items": NUM_ITEMS,
            "num_mixers": NUM_MIXERS,
            "proof_rounds": PROOF_ROUNDS,
            "shard_size": SHARD_SIZE,
            "queue_depth": QUEUE_DEPTH,
            "serial_seconds": serial_seconds,
            "streamed_seconds": streamed_seconds,
            "speedup": serial_seconds / streamed_seconds if streamed_seconds else None,
            "bit_identical": True,
        },
    )

    # No-regression gate: pipelining must never cost wall clock (beyond queue
    # noise on starved runners) ...
    assert streamed_seconds <= serial_seconds * NO_REGRESSION_TOLERANCE, (
        f"streamed {streamed_seconds:.3f}s vs serial {serial_seconds:.3f}s"
    )
    # ... and with real cores available, overlap must win outright.
    if cpus >= MIN_CPUS_FOR_SPEEDUP:
        assert streamed_seconds < serial_seconds, (
            f"expected strict speedup on {cpus} CPUs: "
            f"streamed {streamed_seconds:.3f}s vs serial {serial_seconds:.3f}s"
        )

    executor.close()
