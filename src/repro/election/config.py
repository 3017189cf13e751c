"""Election configuration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro import telemetry
from repro.audit.api import DEFAULT_AUDIT_SPEC, Verifier, verifier_from_spec
from repro.crypto import bigint
from repro.crypto.group import Group
from repro.crypto.modp_group import testing_group
from repro.ledger.api import LedgerBackend, board_from_spec
from repro.ledger.bulletin_board import BulletinBoard
from repro.runtime.executor import Executor, executor_from_spec
from repro.runtime.pipeline import PipelineSpec, pipeline_from_spec


@dataclass
class ElectionConfig:
    """Parameters of a simulated Votegral election.

    The defaults favour fast simulation (toy group, few proof rounds); the
    benchmarks override ``group`` with Ed25519 or the 2048-bit group and raise
    ``proof_rounds`` when measuring realistic costs.

    ``executor_spec`` selects the :mod:`repro.runtime` backend the tally's
    parallel stages run on — ``"serial"`` (default), ``"thread[:N]"`` or
    ``"process[:N]"`` with ``N`` workers (defaulting to the CPUs available);
    the multi-node forms ``"cluster:N"`` (auto-spawn ``N`` loopback worker
    subprocesses — tests, CI, benchmarks) and
    ``"remote:host:port[,host:port…]"`` (listen for
    ``python -m repro.cluster.worker`` daemons, authenticated by the
    ``REPRO_CLUSTER_SECRET`` signed hello) dispatch the same shards to
    :mod:`repro.cluster` workers on other processes or machines.  Every
    backend produces bit-identical results; only the wall clock moves.

    ``board_spec`` selects the :mod:`repro.ledger` backend the bulletin board
    stores its three sub-ledgers on — ``"memory"`` (default, thread-safe
    in-process), ``"sqlite[:path]"`` (persistent) or ``"batched[:N[:inner]]"``
    (write-behind ingestion batching; see
    :func:`repro.ledger.api.board_from_spec`).  Every backend accepts the
    same append commands and produces bit-identical hash chains; only
    ingestion latency and durability move.

    ``pipeline_spec`` sets the shard geometry of the tally's one dataflow
    schedule, in which ballot shards flow through the signature check, all
    mixers, tagging, the join and decryption concurrently —
    ``"stream[:shard_size[:queue_depth]]"``, or ``"serial"`` (default: one
    shard holding every ballot, so each phase runs to completion; see
    :func:`repro.runtime.pipeline.pipeline_from_spec`).  Every geometry
    publishes bit-identical results; only the wall clock moves.

    ``audit_spec`` selects the :mod:`repro.audit` verification strategy —
    ``"batched[:chunk]"`` (default, :data:`~repro.audit.api.DEFAULT_AUDIT_SPEC`:
    same-kind checks folded into RLC batch equations,
    bisected on failure to exact per-check verdicts), ``"eager"`` (reference
    one-by-one checking), ``"stream[:shard[:depth]]"`` (check shards with
    first-failure cancellation) or ``"dist[:shard]"`` (contiguous check
    shards shipped one task each over the configured executor — with a
    cluster ``executor_spec`` the shards verify on remote workers and merge
    into one report).  Every strategy produces bit-identical
    :class:`~repro.audit.api.AuditReport` outcomes; only the wall clock (and
    how soon a corrupted transcript stops the audit) moves.

    ``audit_evidence`` makes the tally publish tagging-chain and
    decryption-share transcripts (:class:`repro.audit.evidence.TallyEvidence`)
    on its result, so external auditors can re-check filtering and decryption.
    The tally then makes every tag and decryption with its proofs, in the
    same pass — about twice the tag/decrypt exponentiations, hence opt-in.

    ``telemetry_spec`` selects the :mod:`repro.telemetry` observability sink
    — ``"off"`` (default: every span and counter is a no-op), ``"mem"``
    (buffer events in process memory; read them back through
    :func:`repro.telemetry.snapshot`) or ``"jsonl:<path>"`` (append one JSON
    event per line, summarizable with ``python -m repro.telemetry summarize``).
    Cluster executors propagate collection to their workers automatically
    (worker spans ride back on RESULT frames), and process pools re-attach
    through the ``REPRO_TELEMETRY`` environment variable.  Telemetry never
    changes results; it only records where the wall clock went.

    ``gateway_spec`` optionally exposes the election over HTTP through
    :mod:`repro.gateway` — ``"off"`` (default: no network surface),
    ``"serve"`` (loopback, ephemeral port), ``"serve:8080"`` or
    ``"serve:0.0.0.0:8080"``.  :meth:`make_gateway` builds (but does not
    start) a :class:`repro.gateway.routes.GatewayServer` whose tenants reuse
    this config's board, executor and audit specs; ``python -m repro.gateway``
    is the standalone CLI over the same machinery.

    ``bigint_spec`` pins the :mod:`repro.crypto.bigint` arithmetic backend
    the mod-p groups must be running on — ``"auto"`` (default: whatever the
    process resolved, gmpy2 when importable else pure Python), ``"python"``
    or ``"gmpy2"``.  Unlike the other specs this one does not *construct*
    anything: backends are process-wide (selected once via the
    ``REPRO_BIGINT`` environment variable before the first group exists), so
    :meth:`make_group` merely validates that the active backend matches and
    raises :class:`~repro.crypto.bigint.BigIntError` on a mismatch instead
    of silently running on the wrong arithmetic.  Every backend produces
    bit-identical transcripts; only the wall clock moves.

    The spec grammars above are the whole deployment surface of a simulated
    election; ``docs/architecture.md`` maps the subsystems they select
    between and ``docs/performance.md`` explains which knob moves which
    benchmark.
    """

    num_voters: int = 10
    num_options: int = 2
    num_authority_members: int = 4
    num_mixers: int = 4
    proof_rounds: int = 4
    envelopes_per_voter: int = 3
    fake_credentials_per_voter: int = 1
    election_id: str = "default"
    hardware_profile: str = "H1"
    group_factory: Callable[[], Group] = testing_group
    executor_spec: str = "serial"
    board_spec: str = "memory"
    pipeline_spec: str = "serial"
    audit_spec: str = DEFAULT_AUDIT_SPEC
    audit_evidence: bool = False
    telemetry_spec: str = "off"
    bigint_spec: str = "auto"
    gateway_spec: str = "off"

    def voter_ids(self) -> List[str]:
        width = max(4, len(str(self.num_voters)))
        return [f"voter-{index:0{width}d}" for index in range(self.num_voters)]

    def make_group(self) -> Group:
        # Fail loudly *before* building the group if the election demands a
        # specific bigint backend this process did not resolve.
        bigint.require(self.bigint_spec)
        return self.group_factory()

    def make_telemetry(self) -> None:
        """Attach the configured telemetry sink for this process.

        The default ``"off"`` deliberately leaves ambient state alone, so a
        caller who attached a sink directly (or through ``REPRO_TELEMETRY``)
        is not silently disconnected by constructing a default config.
        """
        if self.telemetry_spec and self.telemetry_spec != "off":
            telemetry.configure(self.telemetry_spec)

    def make_executor(self) -> Executor:
        executor = executor_from_spec(self.executor_spec)
        # Remote executors advertise warm work in their WELCOME frames; give
        # them this election's group so enrolling workers precompute the
        # generator table before their first shard (unpicklable factories —
        # e.g. a lambda — are dropped by set_warm, never fatal).
        set_warm = getattr(executor, "set_warm", None)
        if callable(set_warm):
            set_warm(groups=[self.group_factory])
        return executor

    def make_pipeline(self) -> PipelineSpec:
        return pipeline_from_spec(self.pipeline_spec)

    def make_verifier(self, executor: Optional[Executor] = None) -> "Verifier":
        return verifier_from_spec(self.audit_spec, executor=executor)

    def make_board_backend(self, group: Optional[Group] = None) -> LedgerBackend:
        return board_from_spec(self.board_spec, group=group)

    def make_board(self, group: Optional[Group] = None) -> BulletinBoard:
        return BulletinBoard(self.make_board_backend(group=group))

    def make_gateway(self):
        """Build (not start) the HTTP gateway selected by ``gateway_spec``.

        Returns ``None`` for ``"off"``; otherwise a
        :class:`repro.gateway.routes.GatewayServer` whose tenants are
        provisioned with this config's board/executor/audit specs and group.
        Imported lazily — an election that never serves HTTP never pays for
        the gateway package.
        """
        from repro.gateway.routes import server_from_spec
        from repro.gateway.service import service_from_config

        if (self.gateway_spec or "off").strip().lower() == "off":
            return None
        return server_from_spec(self.gateway_spec, service_from_config(self))
