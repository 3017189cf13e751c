"""In-memory span recorder and the timing wrappers of the traced run.

The traced run (``--trace 1``) replaces a fixed list of the program's public
functions with thin wrappers that record one span per call: name, start, end,
the span that was current when the call began, and a few attributes.  Only
the traced run imports this module, so untraced runs execute the program
unmodified.

Spans stay in memory and are summarised (or dumped as JSON) when the run
ends.  A span's *self time* is its duration minus the part of that interval
its child spans cover (see :func:`self_times`).

Exponentiation counting follows one rule: a call nested inside another
counted call (``GroupElement.exponentiate`` under ``Group.multi_exponentiate``,
say) is charged to the outer call only, so each operation is counted once.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

# One span: (id, parent id, name, start, end, attrs-or-None).  Times are
# ``time.perf_counter`` readings, which on Linux share one clock across
# processes, so the gateway's spans line up with the load generator's.
Span = Tuple[int, int, str, float, float, Optional[Dict[str, Any]]]

_current: "contextvars.ContextVar[int]" = contextvars.ContextVar("perfbench_span", default=0)

Attrs = Callable[..., Dict[str, Any]]


class Recorder:
    """Collects spans from every thread and task of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._names: Dict[int, str] = {}
        self._crypto = threading.local()

    def wrap(self, name: str, fn: Callable, attrs: Optional[Attrs] = None) -> Callable:
        """A wrapper recording one span per call.

        ``attrs(result, *args, **kwargs)`` gives the span's attributes
        (``result`` is ``None`` when the call raised).  A call made while a
        span of the same name is current (a facade delegating to its
        backend) records nothing of its own.
        """
        names = self._names

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = _current.get()
            if names.get(parent) == name:
                return fn(*args, **kwargs)
            span_id = next(self._ids)
            names[span_id] = name
            token = _current.set(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                _current.reset(token)
                self.spans.append(
                    (span_id, parent, name, start, end, attrs(result, *args, **kwargs) if attrs else None)
                )

        return wrapper

    def wrap_async(self, name: str, fn: Callable, attrs: Optional[Attrs] = None) -> Callable:
        """:meth:`wrap` for a coroutine function; the span covers every await."""

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            parent = _current.get()
            span_id = next(self._ids)
            token = _current.set(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = await fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                _current.reset(token)
                self.spans.append(
                    (span_id, parent, name, start, end, attrs(result, *args, **kwargs) if attrs else None)
                )

        return wrapper

    def wrap_crypto(self, name: str, fn: Callable, terms: bool = False) -> Callable:
        """Count and time top-level group operations; nested ones pass through.

        With ``terms``, the wrapped call is ``multi_exponentiate(bases, scalars)``
        and its span records the number of bases.
        """
        local = self._crypto

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if getattr(local, "busy", False):
                return fn(*args, **kwargs)
            local.busy = True
            span_id = next(self._ids)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                local.busy = False
                self.spans.append(
                    (span_id, _current.get(), name, start, end, {"terms": len(args[1])} if terms else None)
                )

        return wrapper


def _patch_function(module: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
    """Replace ``module.attr`` in every loaded module that bound it by name."""
    original = getattr(module, attr)
    wrapper = make(original)
    for loaded in list(sys.modules.values()):
        namespace = getattr(loaded, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for key, value in list(namespace.items()):
            if value is original:
                setattr(loaded, key, wrapper)


def _batch_size(result, self, records, *args, **kwargs) -> Dict[str, Any]:
    return {"size": len(records)}


def _checks_by_kind(report, self, plan) -> Dict[str, Any]:
    counts = report.counts_by_kind() if report is not None else {}
    return {"kinds": {kind: passed + failed for kind, (passed, failed) in counts.items()}}


def _cast_size(result, self, client_key, request) -> Dict[str, Any]:
    return {"client": client_key, "ballots": len(request.ballots)}


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    from repro.audit import checks as audit_checks
    from repro.audit import evidence as audit_evidence
    from repro.audit.api import Verifier
    from repro.crypto.ed25519 import Ed25519Element
    from repro.crypto.group import Group
    from repro.crypto.modp_group import ModPElement
    from repro.gateway import schemas as gateway_schemas
    from repro.gateway.schemas import CastRequest, Schema
    from repro.gateway.service import ElectionTenant
    from repro.ledger.backends.batched import BatchedBoard
    from repro.ledger.backends.memory import MemoryBackend
    from repro.registration.kiosk import Kiosk
    from repro.registration.official import RegistrationOfficial
    from repro.registration.protocol import RegistrationSession
    from repro.registration.vsd import VoterSupportingDevice
    from repro.runtime import batch as runtime_batch
    from repro.runtime.executor import Executor
    from repro.runtime.pipeline import StreamPipeline
    from repro.runtime.precompute import FixedBaseTable
    from repro.tally import decrypt as tally_decrypt
    from repro.tally import filter as tally_filter
    from repro.tally import mixnet as tally_mixnet
    from repro.tally.pipeline import TallyPipeline
    from repro.voting import ballot as voting_ballot
    from repro.voting.client import VotingClient

    r = recorder

    def method(owner: type, attr: str, name: str, **options) -> None:
        setattr(owner, attr, r.wrap(name, owner.__dict__[attr], **options))

    def function(module: Any, attr: str, name: str) -> None:
        _patch_function(module, attr, lambda fn: r.wrap(name, fn))

    # crypto (+ runtime.precompute tables)
    for element in (Ed25519Element, ModPElement):
        element.exponentiate = r.wrap_crypto("crypto.exp_var", element.exponentiate)
    FixedBaseTable.power = r.wrap_crypto("crypto.exp_fixed", FixedBaseTable.power)
    Group.multi_exponentiate = r.wrap_crypto("crypto.multiexp", Group.multi_exponentiate, terms=True)

    # registration: one session and its Fig. 4 sub-tasks
    method(RegistrationSession, "register", "registration.session")
    method(RegistrationOfficial, "check_in", "registration.check_in")
    method(Kiosk, "authorize", "registration.authorize")
    method(Kiosk, "begin_real_credential", "registration.real_credential")
    method(Kiosk, "complete_real_credential", "registration.real_credential")
    method(Kiosk, "create_fake_credential", "registration.fake_credential")
    method(RegistrationOfficial, "check_out", "registration.check_out")
    method(VoterSupportingDevice, "activate", "registration.activate")

    # voting
    function(voting_ballot, "make_ballot", "voting.make_ballot")
    method(VotingClient, "cast", "voting.cast")

    # ledger
    for backend in (MemoryBackend, BatchedBoard):
        method(backend, "append_ballot", "ledger.append")
        method(backend, "read_ballots", "ledger.read_page")
    method(BatchedBoard, "append_ballots", "ledger.batch_append", attrs=_batch_size)
    method(BatchedBoard, "try_append_ballots", "ledger.batch_append", attrs=_batch_size)
    method(BatchedBoard, "flush", "ledger.flush")

    # runtime
    _install_stream_pipeline(r, StreamPipeline)
    method(Executor, "map", "runtime.fanout")
    method(Executor, "starmap", "runtime.fanout")
    function(runtime_batch, "verify_signatures", "runtime.sigverify")

    # tally
    method(TallyPipeline, "run", "tally.run")
    method(TallyPipeline, "_valid_ballots", "tally.sig_check")
    function(tally_mixnet, "tuple_mix_cascade", "tally.mix")
    function(tally_mixnet, "streaming_tuple_mix_cascade", "tally.mix")
    function(tally_filter, "filter_ballots", "tally.filter")
    function(tally_decrypt, "decrypt_votes", "tally.decrypt")
    function(audit_evidence, "build_tally_evidence", "tally.evidence")

    # audit
    function(audit_checks, "audit_election", "audit.run")
    function(audit_checks, "audit_tally", "audit.run")
    method(Verifier, "run", "audit.verify", attrs=_checks_by_kind)

    # gateway
    CastRequest.from_json = classmethod(r.wrap("gateway.decode", Schema.__dict__["from_json"].__func__))
    function(gateway_schemas, "ballot_from_wire", "gateway.decode")
    ElectionTenant.cast = r.wrap_async("gateway.cast", ElectionTenant.cast, attrs=_cast_size)


def _install_stream_pipeline(recorder: Recorder, pipeline_class: type) -> None:
    """Time ``StreamPipeline.run`` and parent its stage threads' spans under it.

    Stage threads are plain ``threading.Thread`` objects, which start with an
    empty context; their two thread bodies are wrapped only to re-enter the
    span of the ``run`` call that started them.
    """
    run = pipeline_class.run

    @functools.wraps(run)
    def stamped_run(self, *args, **kwargs):
        self._perfbench_parent = _current.get()
        return run(self, *args, **kwargs)

    def thread_body(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def body(self, *args, **kwargs):
            token = _current.set(self._perfbench_parent)
            try:
                return fn(self, *args, **kwargs)
            finally:
                _current.reset(token)

        return body

    pipeline_class.run = recorder.wrap("runtime.stream_run", stamped_run)
    pipeline_class._work = thread_body(pipeline_class._work)
    pipeline_class._feed = thread_body(pipeline_class._feed)



# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _span_id, parent, _name, start, end, _attrs in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    result: Dict[int, float] = {}
    for span_id, _parent, _name, start, end, _attrs in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span_id] = (end - start) - covered
    return result
