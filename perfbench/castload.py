"""The ``cast-gateway`` workload: casts through a live gateway process.

The gateway runs as its own process (``python -m repro.gateway --group
ed25519 --telemetry off``, default governor envelope).  This process is the
only load generator and holds at most :data:`CONNECTIONS` keep-alive
connections.  Set-up registers :data:`VOTERS` voters over HTTP and builds a
pool of distinct ballots, none sent twice.  Three timed legs follow:

1. open-loop single-ballot casts at :data:`LOW_RATE`;
2. open-loop single-ballot casts at :data:`HIGH_RATE`, about two thirds of
   what one connection sustains in a closed loop (about 230/s on a 2-CPU
   box), so casts often overlap and both connections carry them, yet well
   below what two connections sustain (about 370/s, 280/s when the host
   runs slow), so the backlog a host stall leaves drains quickly.  At 300/s
   the leg saturated in slow periods, and at 200/s a stall once left a
   backlog for most of the leg: either way its latency swung several-fold
   between runs;
3. closed-loop bulk casts of :data:`BULK_BATCH` ballots per request.

An open-loop cast is timed from when it was due, so a stalled generator
shows as latency; how late the generator sent is reported separately.  The
election is then closed, tallied and audited over HTTP.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.crypto.elgamal import ElGamal
from repro.crypto.schnorr import SigningKeyPair, schnorr_sign
from repro.errors import GatewayError
from repro.gateway.client import CastingSession, GatewayClient, RateLimited
from repro.gateway.schemas import BallotWire, ballot_to_wire
from repro.voting.ballot import Ballot

from measure import SETUP_TRIALS, Run, timed

ELECTION = "perfbench"
VOTERS = 8
OPTIONS = 3
CONNECTIONS = 2
LOW_RATE = 50.0
HIGH_RATE = 150.0
BULK_BATCH = 32
POOL_CHUNKS = 8
GATEWAY_ARGS = ("--group", "ed25519", "--telemetry", "off")
START_TIMEOUT_S = 60.0


@dataclasses.dataclass(frozen=True)
class PoolBallot:
    wire: BallotWire
    credential: bytes
    real: bool
    choice: int


class Gateway:
    """One gateway process on an ephemeral loopback port."""

    def __init__(self, root: str, span_dump: Optional[str] = None) -> None:
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        if span_dump is None:
            command = [sys.executable, "-m", "repro.gateway", *GATEWAY_ARGS]
        else:
            launcher = os.path.join(root, "perfbench", "gateway_launcher.py")
            command = [sys.executable, launcher, span_dump, *GATEWAY_ARGS]
        self.process = subprocess.Popen(command, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.process.stdout], [], [], START_TIMEOUT_S)
        line = self.process.stdout.readline() if ready else ""
        if not line.startswith("gateway listening on"):
            self.stop()
            raise RuntimeError(f"gateway did not start: {line!r}")
        self.port = int(line.strip().rsplit(":", 1)[1])

    def stop(self) -> None:
        """SIGTERM (the gateway drains, then exits 0) and wait for the exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()


def cast_gateway(run: Run, seed: int, seconds: float, root: str, span_dump: Optional[str]) -> None:
    rng = random.Random(seed)
    # The two open-loop legs take 0.4·seconds each; the bulk leg sends
    # 2.4·seconds requests, about 0.1·seconds at the rate measured here.
    n_low = max(20, round(LOW_RATE * 0.4 * seconds))
    n_high = max(20, round(HIGH_RATE * 0.4 * seconds))
    n_bulk = max(4, round(2.4 * seconds)) * BULK_BATCH
    gateway: Optional[Gateway] = None
    client: Optional[GatewayClient] = None
    run.info["gateway.shed"] = 0
    try:
        # Set-up = launch + create + register, several times (the median is
        # reported), then one ballot pool for the last gateway.
        trials = []
        for trial in range(SETUP_TRIALS):
            if gateway is not None:
                client.close()
                gateway.stop()
            start = time.perf_counter()
            gateway = Gateway(root, span_dump)
            client = GatewayClient(port=gateway.port, client_id="setup")
            client.create_election(ELECTION, num_voters=VOTERS, num_options=OPTIONS, num_authority_members=3)
            session = CastingSession(client, ELECTION)
            with run.phase("registration") if trial == SETUP_TRIALS - 1 else contextlib.nullcontext():
                for index in range(VOTERS):
                    _, elapsed = timed(session.register, f"voter-{index:04d}")
                    run.sample("http_registration_s", elapsed)
            trials.append(time.perf_counter() - start)
        pool, pool_seconds = _ballot_pool(session, rng, n_low + n_high + n_bulk)
        run.sample("setup_s", statistics.median(trials) + pool_seconds)

        accepted: List[Tuple[int, PoolBallot]] = []
        with run.phase("vote"):
            for leg, rate, ballots in (
                ("low", LOW_RATE, pool[:n_low]),
                ("high", HIGH_RATE, pool[n_low:n_low + n_high]),
            ):
                with run.phase(leg):
                    accepted += _open_loop(run, gateway.port, leg, rate, ballots)
            with run.phase("bulk"):
                accepted += _bulk(run, gateway.port, pool[n_low + n_high:])

        closed = client.close_election(ELECTION)
        seqs = [seq for seq, _ in accepted]
        run.check(len(set(seqs)) == len(seqs), "the gateway returned a ledger sequence number twice")
        run.check(
            closed.num_ballots == len(accepted),
            f"ledger holds {closed.num_ballots} ballots after close, {len(accepted)} casts were accepted",
        )
        # Epilogue: the gateway's own tally and audit check that every
        # admitted ballot is a valid, countable ballot.  They are timed and
        # printed, but are not operations of this workload's load.
        with run.phase("tally"):
            tally, elapsed = timed(client.tally, ELECTION)
            run.sample("tally_s", elapsed)
        with run.phase("audit"):
            report, elapsed = timed(client.audit_report, ELECTION)
            run.sample("audit_s", elapsed)
        expected = _expected_counts(accepted)
        counts = {int(option): count for option, count in tally.counts.items()}
        run.check(counts == expected, f"tally counts {counts} != last real ballots {expected}")
        run.check(report.ok, f"audit failed: {report.failures}")
    finally:
        if client is not None:
            client.close()
        if gateway is not None:
            gateway.stop()


def _ballot_pool(session: CastingSession, rng: random.Random, count: int) -> Tuple[List[PoolBallot], float]:
    """``count`` distinct signed ballots from the credentials registration returned.

    Each is exactly what ``CastingSession.make_ballot_wire`` puts on the wire:
    an ElGamal encryption of the choice under the authority key, signed with
    the credential over ``Ballot.signed_message``.  The wire ballot carries no
    well-formedness or key proof, so the pool skips computing them.

    The pool is built in :data:`POOL_CHUNKS` chunks; the build time returned
    is ``count`` times the median per-ballot time of a chunk.
    """
    info = session.refresh()
    group = session.group
    authority_key = group.element_from_bytes(info.authority_public_key)
    elgamal = ElGamal(group)
    keys = [
        (SigningKeyPair(secret=credential.secret_key, public=group.element_from_bytes(credential.public_key)), credential.is_real)
        for credentials in session.credentials.values()
        for credential in credentials
    ]
    pool: List[PoolBallot] = []
    per_ballot = []
    for chunk in range(POOL_CHUNKS):
        size = count * (chunk + 1) // POOL_CHUNKS - len(pool)
        start = time.perf_counter()
        for _ in range(size):
            pool.append(_pool_ballot(elgamal, authority_key, keys, rng))
        per_ballot.append((time.perf_counter() - start) / max(1, size))
    return pool, count * statistics.median(per_ballot)


def _pool_ballot(elgamal: ElGamal, authority_key, keys, rng: random.Random) -> PoolBallot:
    key, real = keys[rng.randrange(len(keys))]
    choice = rng.randrange(OPTIONS)
    draft = Ballot(
        ciphertext=elgamal.encrypt_int(authority_key, choice),
        credential_public_key=key.public,
        signature=None,
        wellformedness=None,
        key_proof=None,
        election_id=ELECTION,
    )
    signed = dataclasses.replace(draft, signature=schnorr_sign(key, draft.signed_message()))
    return PoolBallot(ballot_to_wire(signed.to_record()), key.public.to_bytes(), real, choice)


def _open_loop(run: Run, port: int, leg: str, rate: float, ballots: List[PoolBallot]) -> List[Tuple[int, PoolBallot]]:
    """Cast ``ballots[i]`` when it falls due, at ``start + i / rate``, timed from then."""
    start = time.perf_counter() + 0.05  # the first cast falls due once both connections are up

    def send(client: GatewayClient, i: int):
        due = start + i / rate
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        late = time.perf_counter() - due
        return (late,) + _cast(client, [ballots[i].wire], since=due)

    outcomes, _ = _drive(port, leg, len(ballots), send)
    accepted = []
    for ballot, (late, latency, seqs, error) in zip(ballots, outcomes):
        run.sample(f"gen_late_{leg}_s", late)
        ok = error is None and len(seqs) == 1
        run.op(f"cast_{leg}_s", latency, ok=ok, problem="" if ok else _failure(run, error))
        accepted += [(seq, ballot) for seq in seqs]
    return accepted


def _bulk(run: Run, port: int, ballots: List[PoolBallot]) -> List[Tuple[int, PoolBallot]]:
    """Closed loop: each connection sends its next batch as soon as the last returns."""
    batches = [ballots[i:i + BULK_BATCH] for i in range(0, len(ballots), BULK_BATCH)]

    def send(client: GatewayClient, i: int):
        return _cast(client, [ballot.wire for ballot in batches[i]], since=time.perf_counter())

    outcomes, elapsed = _drive(port, "bulk", len(batches), send)
    accepted = []
    for batch, (seconds, seqs, error) in zip(batches, outcomes):
        ok = error is None and len(seqs) == len(batch)
        run.op("bulk_request_s", seconds, ok=ok, problem="" if ok else _failure(run, error))
        accepted += list(zip(seqs, batch))
    run.sample("cast_bulk_per_s", len(accepted) / elapsed)
    return accepted


def _cast(client: GatewayClient, wires: List[BallotWire], since: float):
    """(seconds since ``since``, ledger sequence numbers, error or None) of one cast request."""
    try:
        seqs = client.cast_ballots(ELECTION, wires).ledger_seqs
        return time.perf_counter() - since, seqs, None
    except GatewayError as error:
        return time.perf_counter() - since, [], error


def _drive(port: int, leg: str, count: int, send) -> Tuple[list, float]:
    """Run ``send(client, i)`` for every ``i < count`` over :data:`CONNECTIONS` connections.

    Each keep-alive connection takes the next index as soon as it is free.
    Returns the results in index order and the elapsed seconds.
    """
    lock = threading.Lock()
    indices = iter(range(count))
    outcomes: list = [None] * count

    def connection(index: int) -> None:
        client = GatewayClient(port=port, client_id=f"{leg}-{index}")
        try:
            while True:
                with lock:
                    i = next(indices, None)
                if i is None:
                    return
                outcomes[i] = send(client, i)
        finally:
            client.close()

    threads = [threading.Thread(target=connection, args=(index,)) for index in range(CONNECTIONS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
        if thread.is_alive():
            raise RuntimeError("a load-generator connection did not finish")
    return outcomes, time.perf_counter() - start


def _failure(run: Run, error: Optional[GatewayError]) -> str:
    """Describe a failed cast; a 429/503 also counts as shed."""
    if error is None:
        return "cast accepted a different number of ballots than it sent"
    if isinstance(error, RateLimited):
        run.info["gateway.shed"] += 1
    return f"cast refused: {error}"


def _expected_counts(accepted: List[Tuple[int, PoolBallot]]) -> Dict[int, int]:
    """Last write wins per credential; only real credentials count."""
    latest: Dict[bytes, PoolBallot] = {}
    for _, ballot in sorted(accepted, key=lambda item: item[0]):
        latest[ballot.credential] = ballot
    counts = {option: 0 for option in range(OPTIONS)}
    for ballot in latest.values():
        if ballot.real:
            counts[ballot.choice] += 1
    return counts
