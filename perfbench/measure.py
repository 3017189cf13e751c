"""What one benchmark run collects: samples, phases, operation outcomes, checks."""

from __future__ import annotations

import math
import random
import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Set, Tuple

#: Set-ups per run; ``setup_s`` reports their median.  The in-process
#: election's set-up takes a fraction of a second, so it gets more trials.
SETUP_TRIALS = 3
ELECTION_SETUP_TRIALS = 9

#: The four phases per-phase exponentiation counts are reported for.
PHASES = ("registration", "vote", "tally", "audit")

#: Whole-run operations (measured once, or repeated and reported by median);
#: every other operation is a request that ``wait_s`` counts once per call.
RUN_OPS = ("tally_s", "audit_s")


def p50(samples: List[float]) -> float:
    return statistics.median(samples)


def p90(samples: List[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


class Run:
    """Samples (in seconds) and outcomes of one workload run.

    ``op`` records one timed operation.  A failed operation (an error, a
    refused request) misses every latency limit, so its latency sample is
    infinite.  A failed correctness ``check`` makes the run incorrect and
    counts all of its operations as failed.
    """

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.failures: List[str] = []
        self.phases: List[Tuple[str, float, float]] = []
        self.info: Dict[str, float] = {}
        self._ops: Set[str] = set()

    @property
    def correct(self) -> bool:
        return not self.problems

    def sample(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def op(self, metric: str, seconds: float, ok: bool = True, problem: str = "") -> None:
        """One operation that took ``seconds``, succeeded or not."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(problem or f"{metric} failed")
        self._ops.add(metric)
        self.sample(metric, seconds if ok else math.inf)

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    def wait_s(self) -> float:
        """The typical total time callers waited on the run's timed operations.

        Each kind of request counts as its call count times its median
        latency, so a short burst of slow calls moves it little; a
        whole-run operation (:data:`RUN_OPS`) counts once at its median.
        """
        total = 0.0
        for metric in self._ops:
            samples = self.samples[metric]
            finite = [value for value in samples if value != math.inf]
            if finite:
                calls = 1 if metric in RUN_OPS else len(samples)
                total += calls * statistics.median(finite)
        return total

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.phases.append((name, start, time.perf_counter()))

    def failed_total(self) -> int:
        return self.failed if self.correct else self.attempted


def timed(fn, *args, **kwargs) -> Tuple[object, float]:
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def calibrate(seed: int) -> Dict[str, float]:
    """Milliseconds for one variable-base modp-2048 and one Ed25519 exponentiation.

    Diagnostic only: a reader compares these across runs to tell a slower
    machine from a slower program.  No metric is divided by them.
    """
    from repro.crypto.ed25519 import ed25519_group
    from repro.crypto.modp_group import modp_group_2048

    rng = random.Random(seed)
    result: Dict[str, float] = {}
    for name, group, rounds in (
        ("calib.modexp_2048_ms", modp_group_2048(), 15),
        ("calib.ed25519_mul_ms", ed25519_group(), 61),
    ):
        base = group.generator.exponentiate(rng.randrange(1, group.order))
        times = []
        for _ in range(rounds):
            scalar = rng.randrange(1, group.order)
            start = time.perf_counter()
            base.exponentiate(scalar)
            times.append((time.perf_counter() - start) * 1e3)
        result[name] = statistics.median(times)
    return result
