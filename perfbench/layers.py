"""Per-layer metrics of the traced run, computed from its spans.

:data:`PER_LAYER` is the fixed list every traced run reports, on every
workload; a layer that does no work on a workload reports 0.  Each entry
names the end-to-end metric it should move (see README.md).
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

from measure import PHASES, Run, p90
from tracing import Span, self_times

LAYERS = ("crypto", "registration", "voting", "ledger", "runtime", "tally", "audit", "gateway")
CRYPTO_COUNTS = (
    ("exp_var", "crypto.exp_var"),
    ("exp_fixed", "crypto.exp_fixed"),
    ("multiexp", "crypto.multiexp"),
)
REGISTRATION_STEPS = ("check_in", "authorize", "real_credential", "fake_credential", "check_out", "activate")
TALLY_STEPS = ("sig_check", "mix", "filter", "decrypt", "evidence")
AUDIT_KINDS = (
    "batch-chain", "chaum-pedersen", "ciphertext-tag-chain", "decryption-share", "dlog", "ledger-chain",
    "predicate", "schnorr", "shuffle-coins", "shuffle-round", "tag-chain", "wellformedness",
)

# (name, unit, better)
PER_LAYER: List[Tuple[str, str, str]] = (
    [
        (f"crypto.{phase}.{metric}", unit, "lower")
        for phase in PHASES
        for metric, unit in (
            ("exp_var", "count"), ("exp_fixed", "count"), ("multiexp", "count"),
            ("multiexp_terms", "count"), ("exp_busy_s", "s"),
        )
    ]
    + [(f"registration.{step}_s", "s", "lower") for step in REGISTRATION_STEPS]
    + [
        ("voting.make_ballot_s", "s", "lower"),
        ("ledger.append_s", "s", "lower"),
        ("ledger.read_page_s", "s", "lower"),
        ("ledger.batch_append_s", "s", "lower"),
        ("ledger.batch_size", "count", "higher"),
        ("runtime.stream_run_s", "s", "lower"),
        ("runtime.fanout_calls", "count", "lower"),
        ("runtime.fanout_s", "s", "lower"),
        ("runtime.sigverify_s", "s", "lower"),
    ]
    + [(f"tally.{step}_s", "s", "lower") for step in TALLY_STEPS]
    + [
        ("audit.plan_s", "s", "lower"),
        ("audit.verify_s", "s", "lower"),
        ("audit.checks", "count", "higher"),
    ]
    + [(f"audit.checks.{kind}", "count", "higher") for kind in AUDIT_KINDS]
    + [
        ("gateway.decode_s", "s", "lower"),
        ("gateway.cast_s", "s", "lower"),
        ("gateway.window_wait_s", "s", "lower"),
        ("gateway.shed", "count", "lower"),
        ("gen.late_ms", "ms", "lower"),
        ("calib.modexp_2048_ms", "ms", "lower"),
        ("calib.ed25519_mul_ms", "ms", "lower"),
    ]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [
        ("trace.spans", "count", "lower"),
        ("traced.setup_s", "s", "lower"),
        ("traced.wait_s", "s", "lower"),
    ]
)


def _window(run: Run, name: str) -> Tuple[float, float]:
    for phase, start, end in run.phases:
        if phase == name:
            return start, end
    return 0.0, 0.0


def _phase_of(start: float, run: Run) -> str:
    for phase, lo, hi in run.phases:
        if phase in PHASES and lo <= start < hi:
            return phase
    return "other"


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def layer_metrics(run: Run, spans: Sequence[Span]) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced run."""
    values: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
    phase = {span[0]: _phase_of(span[3], run) for span in spans}
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span[2], []).append(span)

    def named(name: str, in_phase: str = "") -> List[Span]:
        return [span for span in by_name.get(name, ()) if not in_phase or phase[span[0]] == in_phase]

    def total(name: str, in_phase: str = "") -> float:
        return sum(end - start for _, _, _, start, end, _ in named(name, in_phase))

    # crypto: counts and busy time per phase
    for p in PHASES:
        for metric, name in CRYPTO_COUNTS:
            values[f"crypto.{p}.{metric}"] = len(named(name, p))
        values[f"crypto.{p}.multiexp_terms"] = sum(span[5]["terms"] for span in named("crypto.multiexp", p))
        values[f"crypto.{p}.exp_busy_s"] = sum(total(name, p) for _, name in CRYPTO_COUNTS)

    # registration: per session, the Fig. 4 sub-tasks
    sessions = len(named("registration.session"))
    for step in REGISTRATION_STEPS:
        values[f"registration.{step}_s"] = _mean(total(f"registration.{step}"), sessions)

    values["voting.make_ballot_s"] = _mean(total("voting.make_ballot"), len(named("voting.make_ballot")))

    # ledger
    for metric, name in (("append_s", "ledger.append"), ("read_page_s", "ledger.read_page"),
                         ("batch_append_s", "ledger.batch_append")):
        values[f"ledger.{metric}"] = _mean(total(name), len(named(name)))
    batches = named("ledger.batch_append")
    values["ledger.batch_size"] = _mean(sum(span[5]["size"] for span in batches), len(batches))

    # runtime and tally, in the tally phase
    values["runtime.stream_run_s"] = total("runtime.stream_run", "tally")
    values["runtime.fanout_calls"] = len(named("runtime.fanout", "tally"))
    values["runtime.fanout_s"] = total("runtime.fanout", "tally")
    values["runtime.sigverify_s"] = total("runtime.sigverify", "tally")
    for step in TALLY_STEPS:
        values[f"tally.{step}_s"] = total(f"tally.{step}", "tally")

    # audit: planning is the audit call minus its verifier run
    verify = named("audit.verify", "audit")
    values["audit.verify_s"] = sum(end - start for _, _, _, start, end, _ in verify)
    values["audit.plan_s"] = max(0.0, total("audit.run", "audit") - values["audit.verify_s"])
    for span in verify:
        for kind, count in span[5]["kinds"].items():
            values["audit.checks"] += count
            if f"audit.checks.{kind}" in values:
                values[f"audit.checks.{kind}"] += count

    _gateway_metrics(run, values, named)

    for key in ("calib.modexp_2048_ms", "calib.ed25519_mul_ms", "gateway.shed"):
        values[key] = run.info.get(key, 0.0)
    late = run.samples.get("gen_late_low_s", []) + run.samples.get("gen_late_high_s", [])
    values["gen.late_ms"] = p90(late) * 1e3 if late else 0.0

    # self time per layer, over the four timed phases
    own = self_times(spans)
    for span in spans:
        if phase[span[0]] in PHASES:
            layer = span[2].split(".", 1)[0]
            if layer in LAYERS:
                values[f"{layer}.self_s"] += own[span[0]]
    values["trace.spans"] = len(spans)
    for metric in ("setup_s", "wait_s"):
        values[f"traced.{metric}"] = statistics.median(run.samples[metric])
    return values


def _gateway_metrics(run: Run, values: Dict[str, float], named) -> None:
    """Decode and cast cost per ballot, and how long a single cast waits for its batch."""
    vote_lo, vote_hi = _window(run, "vote")
    casts = [span for span in named("gateway.cast") if vote_lo <= span[3] < vote_hi]
    if not casts:
        return
    ballots = sum(span[5]["ballots"] for span in casts)
    decodes = [span for span in named("gateway.decode") if vote_lo <= span[3] < vote_hi]
    values["gateway.decode_s"] = _mean(sum(end - start for _, _, _, start, end, _ in decodes), ballots)

    singles = [span for span in casts if span[5]["ballots"] == 1]
    single_ids = {span[0] for span in singles}
    decode_in_singles = sum(end - start for _, parent, _, start, end, _ in decodes if parent in single_ids)
    cast_time = sum(end - start for _, _, _, start, end, _ in singles)
    values["gateway.cast_s"] = _mean(cast_time, len(singles))
    # The append share of a single cast: batch-append time per ballot over
    # the two single-ballot legs.
    appended = append_time = 0.0
    for leg in ("low", "high"):
        lo, hi = _window(run, leg)
        for span in named("ledger.batch_append"):
            if lo <= span[3] < hi:
                appended += span[5]["size"]
                append_time += span[4] - span[3]
    per_ballot_append = _mean(append_time, int(appended))
    values["gateway.window_wait_s"] = max(
        0.0, _mean(cast_time - decode_in_singles, len(singles)) - per_ballot_append
    )
