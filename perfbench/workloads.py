"""The two in-process workloads: a full Ed25519 election and a modp-2048 tally.

Both drive the program only through its public API, on the ``serial``
executor, with the reference tally shape: 3 authority members, 2 mixers,
2 proof rounds.
"""

from __future__ import annotations

import random
import time

from repro.audit.checks import audit_election, audit_tally
from repro.bench.workloads import tally_workload
from repro.crypto.ed25519 import ed25519_group
from repro.crypto.modp_group import modp_group_2048
from repro.election.config import ElectionConfig
from repro.election.pipeline import VotegralElection
from repro.errors import ReproError
from repro.peripherals.hardware import hardware_profile
from repro.registration.protocol import RegistrationSession
from repro.registration.voter import Voter
from repro.runtime.executor import executor_from_spec
from repro.runtime.pipeline import pipeline_from_spec
from repro.tally.pipeline import TallyPipeline
from repro.voting.client import VotingClient

from measure import ELECTION_SETUP_TRIALS, SETUP_TRIALS, Run, timed

ELECTION_VOTERS = 100
ELECTION_OPTIONS = 3
AUDIT_REPEATS = 3
TALLY_VOTERS = 4
TALLY_OPTIONS = 2
EVIDENCE_KINDS = ("ciphertext-tag-chain", "decryption-share")


def election_ed25519(run: Run, seed: int) -> None:
    """setup → registration → voting → tally (verify off) → audit, on Ed25519.

    Registration and voting run the same loops as
    ``VotegralElection.run_registration`` / ``run_voting`` so each
    ``RegistrationSession.register`` and each cast is timed on its own.
    """
    rng = random.Random(seed)
    config = ElectionConfig(
        num_voters=ELECTION_VOTERS,
        num_options=ELECTION_OPTIONS,
        num_authority_members=3,
        num_mixers=2,
        proof_rounds=2,
        fake_credentials_per_voter=1,
        group_factory=ed25519_group,
        election_id="perfbench",
    )
    election = None
    for _ in range(ELECTION_SETUP_TRIALS):
        if election is not None:
            election.close()
        start = time.perf_counter()
        election = VotegralElection(config)
        election.run_setup()
        run.sample("setup_s", time.perf_counter() - start)
    try:
        _run_election(run, rng, config, election)
    finally:
        election.close()


def _run_election(run: Run, rng: random.Random, config: ElectionConfig, election: VotegralElection) -> None:
    setup = election.setup
    with run.phase("registration"):
        session = RegistrationSession(setup=setup, profile=hardware_profile(config.hardware_profile))
        for voter_id in config.voter_ids():
            voter = Voter(voter_id, num_fake_credentials=config.fake_credentials_per_voter)
            try:
                outcome, seconds = timed(session.register, voter)
            except ReproError as error:
                run.op("registration_s", 0.0, ok=False, problem=f"register {voter_id}: {error!r}")
                continue
            run.op("registration_s", seconds, ok=outcome.all_activated, problem=f"{voter_id}: a credential did not activate")
            election.outcomes.append(outcome)
            client = VotingClient(
                group=election.group, board=setup.board, authority_public_key=setup.authority_public_key
            )
            for report in outcome.activation_reports:
                if report.success and report.credential is not None:
                    client.add_credential(report.credential)
            election.clients[voter_id] = client

    choices = {voter_id: rng.randrange(config.num_options) for voter_id in config.voter_ids()}
    with run.phase("vote"):
        for voter_id, client in election.clients.items():
            _cast(run, client.cast_real, choices[voter_id], config)
            if client.fake_credentials() and rng.randrange(1000) < 500:
                _cast(run, client.cast_fake, rng.randrange(config.num_options), config)

    with run.phase("tally"):
        result, seconds = timed(election.run_tally, verify=False)
        run.op("tally_s", seconds)
    # The audit only reads the board, so it is repeated and ``audit_s`` is
    # the median; only the first run falls in the traced "audit" phase.
    for repeat in range(AUDIT_REPEATS):
        with run.phase("audit" if repeat == 0 else "audit-repeat"):
            report, seconds = timed(
                audit_election,
                setup.board,
                config,
                authority=setup.authority,
                result=result,
                kiosk_public_keys=setup.registrar.kiosk_public_keys,
                executor=election.executor,
            )
            run.op("audit_s", seconds)
            run.check(report.ok, f"audit failed: {report.summary()}")

    intended = {option: 0 for option in range(config.num_options)}
    for choice in choices.values():
        intended[choice] += 1
    run.check(result.counts == intended, f"counts {result.counts} != intended {intended}")
    run.check(result.num_counted == config.num_voters, f"counted {result.num_counted} of {config.num_voters} voters")


def _cast(run: Run, cast, choice: int, config: ElectionConfig) -> None:
    try:
        _, seconds = timed(cast, choice, config.num_options, election_id=config.election_id)
    except ReproError as error:
        run.op("vote_s", 0.0, ok=False, problem=f"cast: {error!r}")
        return
    run.op("vote_s", seconds)


def tally_modp2048(run: Run, seed: int) -> None:
    """The §7.3 large-modulus tally: streaming schedule, evidence on, then the audit.

    ``tally_workload`` draws the four voters' choices inside the program, so
    the seed does not reach them; the shape and every count checked here are
    fixed.
    """
    group = modp_group_2048()
    board = None
    for _ in range(SETUP_TRIALS):
        if board is not None:
            board.close()
        start = time.perf_counter()
        authority, board = tally_workload(
            group, TALLY_VOTERS, num_options=TALLY_OPTIONS, num_authority_members=3
        )
        run.sample("setup_s", time.perf_counter() - start)
    executor = executor_from_spec("serial")
    try:
        with run.phase("tally"):
            pipeline = TallyPipeline(
                group=group,
                authority=authority,
                num_mixers=2,
                proof_rounds=2,
                executor=executor,
                pipeline=pipeline_from_spec("stream"),
                collect_evidence=True,
            )
            result, seconds = timed(pipeline.run, board, TALLY_OPTIONS)
            run.op("tally_s", seconds)
        with run.phase("audit"):
            report, seconds = timed(audit_tally, group, authority, board, result, executor=executor)
            run.op("audit_s", seconds)
            run.check(report.ok, f"audit failed: {report.summary()}")
    finally:
        executor.close()
        board.close()

    kinds = report.counts_by_kind()
    run.check(all(kind in kinds for kind in EVIDENCE_KINDS), f"evidence checks missing: {sorted(kinds)}")
    run.check(result.evidence is not None, "tally published no evidence")
    run.check(result.num_counted == TALLY_VOTERS, f"counted {result.num_counted} of {TALLY_VOTERS} voters")
    run.check(sum(result.counts.values()) == TALLY_VOTERS, f"counts {result.counts} do not sum to {TALLY_VOTERS}")
