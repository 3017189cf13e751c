"""repro.audit — the unified, strategy-pluggable verification API.

Every proof obligation in the system is a typed :class:`Check` collected
into an :class:`AuditPlan` and executed by a pluggable :class:`Verifier`:

* ``eager`` — reference one-by-one semantics;
* ``batched`` (the default, :data:`DEFAULT_AUDIT_SPEC`) — same-kind checks
  folded into random-linear-combination batch equations
  (:mod:`repro.runtime.batch`), bisected on rejection;
* ``stream`` — check shards riding :mod:`repro.runtime.pipeline` with
  first-failure cancellation;
* ``dist`` — contiguous check shards shipped one task each over the
  executor surface (remote workers, under a :mod:`repro.cluster`
  executor) and merged back into one report.

Every strategy returns a structured :class:`AuditReport` (per-check
outcomes, failure locus, counts, timings) whose outcomes are bit-identical
across strategies; the legacy ``verify_*`` entry points remain as
bool-returning shims over this API.  Select a strategy per election via
``ElectionConfig.audit_spec``; audit a whole election with
:func:`audit_election` or ``python -m repro.audit``.
"""

from repro.audit.api import (
    AUDIT_API_VERSION,
    DEFAULT_AUDIT_SPEC,
    AuditPlan,
    AuditReport,
    BatchedVerifier,
    Check,
    CheckResult,
    CheckStatus,
    DistributedVerifier,
    EagerVerifier,
    StreamingVerifier,
    Verifier,
    verifier_from_spec,
)
from repro.audit.checks import (
    audit_election,
    audit_tally,
    ballot_checks,
    cascade_checks,
    chain_checks,
    decryption_checks,
    evidence_checks,
    registration_record_checks,
    rotation_checks,
    tally_audit_plan,
)
from repro.audit.evidence import (
    DecryptionTranscript,
    EvidenceLog,
    TagChainEvidence,
    TallyEvidence,
    build_tally_evidence,
    decryption_transcript,
    tag_chain_evidence,
)
from repro.audit.kinds import CheckKind, get_kind, register_kind

__all__ = [
    "AUDIT_API_VERSION",
    "DEFAULT_AUDIT_SPEC",
    "AuditPlan",
    "AuditReport",
    "BatchedVerifier",
    "Check",
    "CheckKind",
    "CheckResult",
    "CheckStatus",
    "DecryptionTranscript",
    "DistributedVerifier",
    "EagerVerifier",
    "EvidenceLog",
    "StreamingVerifier",
    "TagChainEvidence",
    "TallyEvidence",
    "Verifier",
    "audit_election",
    "audit_tally",
    "ballot_checks",
    "build_tally_evidence",
    "cascade_checks",
    "chain_checks",
    "decryption_checks",
    "decryption_transcript",
    "evidence_checks",
    "get_kind",
    "register_kind",
    "registration_record_checks",
    "rotation_checks",
    "tag_chain_evidence",
    "tally_audit_plan",
    "verifier_from_spec",
]
