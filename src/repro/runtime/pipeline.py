"""Streaming shard pipeline: a bounded-queue stage scheduler.

The tally's heavy phases form a linear dataflow — read ballot shards off the
ledger, push them through ``num_mixers`` shuffle stages, derive blinded tags,
join against the registration tags, decrypt the survivors.
:class:`StreamPipeline` runs every stage in its own thread, connected by
bounded FIFO queues, so stage *i+1* works on shard *k* while stage *i* works
on shard *k+1* — the classic producer/consumer pipelining that hides
per-stage latency behind overlap.  The tally has this one schedule; its
geometry (:class:`PipelineSpec`) only sets how finely the stream is cut.
With one shard holding every item it degenerates to the serial schedule,
each phase running to completion before the next starts.

Design points:

* **Shards, not items.**  The unit of flow is a :class:`Shard` — an indexed
  batch of work items.  Batching amortizes queue overhead and gives each
  stage a chunk big enough to fan out over its :class:`~repro.runtime.
  executor.Executor`; the pipeline composes with the executor layer rather
  than replacing it (stage threads overlap, executors parallelize within a
  stage's shard).  That composition includes the multi-node backend: a
  :class:`~repro.cluster.executor.RemoteExecutor` handed to stages is
  safe to share — its coordinator multiplexes concurrent task groups from
  several stage threads — so a streaming cascade's mixers can each fan
  their shard across the same worker fleet.
* **Backpressure.**  Every inter-stage queue is bounded by ``queue_depth``
  shards; a fast producer blocks instead of buffering the whole stream, so
  memory stays proportional to ``num_stages × queue_depth × shard_size``.
* **Order preservation.**  Queues are FIFO and stages emit in order, so the
  sink observes shards in index order; :class:`ShardReassembler` helps
  stages whose work completes out of order (a shuffle scatters source items
  across output positions) release contiguous shards as soon as they are
  whole.
* **Error propagation and cancellation.**  The first exception raised by any
  stage (or the source, or the consumer callback) cancels the whole
  pipeline: every blocked put/get is woken, every worker thread joins, and
  :meth:`StreamPipeline.run` re-raises the original exception unchanged.  A
  consumer can also end the stream early by raising :class:`StopPipeline`
  (used by streaming verification to stop on the first failed check).
* **Post-stream finalization.**  A stage's :meth:`Stage.finalize` runs
  *after* its end-of-stream marker has been handed downstream, so expensive
  side-products (a mixer's shadow shuffles and proof) overlap with
  downstream consumption of the main output instead of serializing the
  cascade.
* **Exclusive compute.**  Overlap only pays when stages compute elsewhere
  (a worker pool, a cluster).  When every stage computes in the calling
  process, an ``exclusive`` pipeline lets one stage compute at a time, so
  its threads hand off at shard boundaries instead of contending for the
  GIL.

The scheduler is deliberately deterministic from the outside: given the same
source shards and stages, the collected output is identical regardless of
thread interleaving — schedule-dependent behaviour is confined to wall-clock
and is exactly what the CI stress job shakes out with randomized shard and
queue sizes.
"""

from __future__ import annotations

import abc
import collections
import contextlib
import sys
import threading
from dataclasses import dataclass
from typing import Any, Callable, Deque, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.runtime.executor import Executor
from repro.runtime.sharding import parallel_map

#: Items per shard for a ``"stream"`` spec that does not say otherwise.
DEFAULT_SHARD_SIZE = 32

#: Bound (in shards) on every inter-stage queue for a ``"stream"`` spec
#: that does not say otherwise, and for a :class:`StreamPipeline` built directly.
DEFAULT_QUEUE_DEPTH = 4


class StopPipeline(Exception):
    """Raised by a consumer callback to cancel the rest of the stream cleanly.

    Stages must not raise this; it is the *sink's* way of saying "I have seen
    enough" (e.g. a verification pipeline stopping at the first failure).
    """


class _Cancelled(Exception):
    """Internal: a queue operation or compute step observed the cancel event."""


class _Channel:
    """A bounded FIFO between two pipeline threads.

    A blocked ``put`` or ``get`` sleeps until the other side moves or
    :meth:`wake` reports a cancellation — it never polls, so an idle stage
    thread costs nothing while the others compute.
    """

    def __init__(self, maxsize: int, cancelled: threading.Event):
        self._items: Deque[Any] = collections.deque()
        self._maxsize = maxsize
        self._cancelled = cancelled
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)

    def put(self, item: Any) -> Tuple[bool, int]:
        """Append ``item``, blocking while full; returns (blocked, depth after)."""
        blocked = False
        with self._lock:
            while True:
                if self._cancelled.is_set():
                    raise _Cancelled()
                if len(self._items) < self._maxsize:
                    break
                blocked = True
                self._not_full.wait()
            self._items.append(item)
            self._not_empty.notify()
            return blocked, len(self._items)

    def get(self) -> Any:
        """Pop the oldest item, blocking while empty."""
        with self._lock:
            while True:
                if self._cancelled.is_set():
                    raise _Cancelled()
                if self._items:
                    break
                self._not_empty.wait()
            item = self._items.popleft()
            self._not_full.notify()
            return item

    def wake(self) -> None:
        """Wake every blocked ``put`` and ``get``; call after setting the cancel event."""
        with self._lock:
            self._not_empty.notify_all()
            self._not_full.notify_all()


@dataclass(frozen=True)
class Shard:
    """An indexed batch of work items flowing through the pipeline."""

    index: int
    items: List[Any]

    def __len__(self) -> int:
        return len(self.items)


def shard_boundaries(total: int, shard_size: int) -> List[Tuple[int, int]]:
    """The ``[start, end)`` ranges covered by each shard of a ``total``-item stream."""
    if shard_size < 1:
        raise ValueError("shard size must be >= 1")
    return [(start, min(start + shard_size, total)) for start in range(0, total, shard_size)]


def iter_shards(items: Sequence[Any], shard_size: int) -> Iterator[Shard]:
    """Split ``items`` into contiguous :class:`Shard`s of at most ``shard_size``."""
    for index, (start, end) in enumerate(shard_boundaries(len(items), shard_size)):
        yield Shard(index=index, items=list(items[start:end]))


class Stage(abc.ABC):
    """One stage of a :class:`StreamPipeline`.

    The scheduler calls, in order and from a single dedicated thread:
    ``process(shard)`` for every input shard; ``finish()`` once the input
    stream ends (emit any buffered tail shards); then — after the stage's
    end-of-stream marker has been handed downstream — ``finalize()`` for
    post-stream work whose results leave through a side channel (e.g. a
    mixer's proof).  ``process``/``finish`` yield output shards; a stage must
    emit shards in index order (use :class:`ShardReassembler` when work
    completes out of order).
    """

    name: str = "stage"

    #: Bound by the scheduler before the run starts; long-running ``finalize``
    #: implementations should poll :meth:`should_abort` between work units so
    #: a failure elsewhere in the pipeline does not wait on doomed work.
    _should_abort: Callable[[], bool] = staticmethod(lambda: False)

    def bind_abort(self, should_abort: Callable[[], bool]) -> None:
        self._should_abort = should_abort

    def should_abort(self) -> bool:
        """Has the pipeline been cancelled (error or :class:`StopPipeline`)?"""
        return self._should_abort()

    @abc.abstractmethod
    def process(self, shard: Shard) -> Iterable[Shard]:
        """Consume one input shard; yield zero or more output shards."""

    def finish(self) -> Iterable[Shard]:
        """Input stream ended: yield any remaining output shards."""
        return ()

    def finalize(self) -> None:
        """Post-stream hook, run after downstream has the end-of-stream marker."""


class MapStage(Stage):
    """A stateless 1:1 stage: apply ``fn`` to every item of every shard.

    ``fn`` runs through :func:`repro.runtime.sharding.parallel_map`, so a
    thread/process executor parallelizes *within* the shard while the
    pipeline overlaps *across* stages.  ``fn`` must be module-level when the
    executor is process-backed (pickling).
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        executor: Optional[Executor] = None,
        name: Optional[str] = None,
        chunksize: Optional[int] = None,
    ):
        self.fn = fn
        self.executor = executor
        self.chunksize = chunksize
        self.name = name or getattr(fn, "__name__", "map")

    def process(self, shard: Shard) -> Iterable[Shard]:
        yield Shard(shard.index, parallel_map(self.fn, shard.items, executor=self.executor, chunksize=self.chunksize))


class ShardReassembler:
    """Order-preserving reassembly of out-of-order item completions.

    Built from the stream's shard boundaries; :meth:`add` records a completed
    item at an absolute position and returns every shard that became both
    complete and next-in-order.  Used by stages (like a shuffle) whose output
    positions fill in scattered order but must leave in stream order.
    """

    def __init__(self, boundaries: Sequence[Tuple[int, int]]):
        self._boundaries = list(boundaries)
        total = self._boundaries[-1][1] if self._boundaries else 0
        self._slots: List[Any] = [None] * total
        self._missing = [end - start for start, end in self._boundaries]
        self._shard_of = [0] * total
        for index, (start, end) in enumerate(self._boundaries):
            for position in range(start, end):
                self._shard_of[position] = index
        self._next_shard = 0

    def add(self, position: int, value: Any) -> List[Shard]:
        """Record ``value`` at ``position``; return newly releasable shards."""
        self._slots[position] = value
        shard_index = self._shard_of[position]
        self._missing[shard_index] -= 1
        released: List[Shard] = []
        while self._next_shard < len(self._boundaries) and self._missing[self._next_shard] == 0:
            start, end = self._boundaries[self._next_shard]
            released.append(Shard(self._next_shard, self._slots[start:end]))
            self._next_shard += 1
        return released

    @property
    def pending_shards(self) -> int:
        """How many shards have not been released yet."""
        return len(self._boundaries) - self._next_shard


class StreamPipeline:
    """A linear chain of :class:`Stage`s connected by bounded queues.

    With ``exclusive``, at most one stage computes at a time (while its
    ``process``/``finish`` generator advances or its ``finalize`` runs) —
    the source and the queue hand-offs still overlap.  Use it when every
    stage computes in the calling process (a serial executor): overlapping
    such stages only makes their threads contend for the GIL, which leaves
    the CPU idle at every forced switch.
    """

    def __init__(
        self,
        stages: Sequence[Stage],
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        name: str = "pipeline",
        exclusive: bool = False,
    ):
        if not stages:
            raise ValueError("a pipeline needs at least one stage")
        if queue_depth < 1:
            raise ValueError("queue depth must be >= 1")
        self.stages = list(stages)
        self.queue_depth = queue_depth
        self.name = name
        self._cancel = threading.Event()
        self._channels: List[_Channel] = []
        self._error_lock = threading.Lock()
        self._error: Optional[BaseException] = None
        self._ran = False
        #: Held while a stage computes (``exclusive``), never across a queue
        #: operation, so a stage blocked on a full queue cannot starve the
        #: stage downstream of it.
        self._compute_token: Any = threading.Lock() if exclusive else contextlib.nullcontext()
        #: The caller's trace context, captured by :meth:`run`.  Stage and
        #: source threads start context-clean (plain ``threading.Thread``),
        #: so each attaches this explicitly — stage spans then parent under
        #: the tally span that drove the pipeline, not a fresh trace apiece.
        self._context: Optional[telemetry.TraceContext] = None

    # ------------------------------------------------------------------ internals

    def _cancel_all(self) -> None:
        """Set the cancel event and wake every thread blocked on a channel."""
        self._cancel.set()
        for channel in self._channels:
            channel.wake()

    def _record_error(self, exc: BaseException) -> None:
        with self._error_lock:
            if self._error is None:
                self._error = exc
        self._cancel_all()

    def _put(self, channel: _Channel, item: Any, label: Optional[str] = None) -> None:
        blocked, depth = channel.put(item)
        if label is not None and telemetry.enabled():
            if blocked:
                # Count each put that blocked at least once: a high stall
                # count on one queue names the slow stage downstream of it.
                telemetry.counter("pipeline.backpressure.stalls", pipeline=self.name, queue=label)
            # Sampled depth after our put; the snapshot keeps the
            # high-water mark, i.e. how close the queue came to its bound.
            telemetry.gauge("pipeline.queue.depth", depth, pipeline=self.name, queue=label)

    def _compute(self, produced: Iterable[Shard]) -> Iterator[Shard]:
        """Step a stage's output generator, holding the compute token while it runs."""
        shards = iter(produced)
        while True:
            with self._compute_token:
                if self._cancel.is_set():
                    raise _Cancelled()
                shard = next(shards, None)
            if shard is None:
                return
            yield shard

    def _feed(self, source: Iterable[Shard], out: _Channel, sentinel: object) -> None:
        token = telemetry.attach(self._context) if self._context is not None else None
        try:
            for shard in source:
                self._put(out, shard, "source")
            self._put(out, sentinel)
        except _Cancelled:
            pass
        except BaseException as exc:  # noqa: BLE001 - propagated to run()
            self._record_error(exc)
        finally:
            if token is not None:
                telemetry.detach(token)

    def _work(self, stage: Stage, inbox: _Channel, out: _Channel, sentinel: object) -> None:
        token = telemetry.attach(self._context) if self._context is not None else None
        try:
            while True:
                item = inbox.get()
                if item is sentinel:
                    with telemetry.span("pipeline.finish", pipeline=self.name, stage=stage.name):
                        for shard in self._compute(stage.finish()):
                            self._put(out, shard, stage.name)
                    self._put(out, sentinel)
                    # Post-stream work runs with downstream already unblocked:
                    # this is what lets a mixer compute its shadow proof while
                    # the next mixer consumes the main output.  Skipped when
                    # the pipeline is already dead.
                    if not self._cancel.is_set():
                        with telemetry.span("pipeline.finalize", pipeline=self.name, stage=stage.name):
                            with self._compute_token:
                                stage.finalize()
                    return
                # The span covers shard service time *including* any blocked
                # put downstream (and, if exclusive, any wait for the compute
                # token) — stalls are separated out by the
                # pipeline.backpressure.stalls counter on the outbound queue.
                with telemetry.span(
                    "pipeline.stage",
                    pipeline=self.name,
                    stage=stage.name,
                    shard=item.index,
                    items=len(item),
                ):
                    for shard in self._compute(stage.process(item)):
                        self._put(out, shard, stage.name)
        except _Cancelled:
            pass
        except BaseException as exc:  # noqa: BLE001 - propagated to run()
            self._record_error(exc)
        finally:
            if token is not None:
                telemetry.detach(token)

    # ------------------------------------------------------------------ running

    def run(
        self,
        source: Iterable[Shard],
        consume: Optional[Callable[[Shard], None]] = None,
    ) -> List[Shard]:
        """Drive ``source`` through every stage; return the sink's shards in order.

        ``consume`` is called in the caller's thread for every output shard as
        it arrives; raising :class:`StopPipeline` from it cancels the rest of
        the stream and returns the shards collected so far.  Any other
        exception — from a stage, the source, or ``consume`` — cancels the
        pipeline and re-raises once every worker thread has exited.

        A pipeline instance is single-use: ``run`` may only be called once.
        """
        if self._ran:
            raise RuntimeError("a StreamPipeline instance can only run once")
        self._ran = True
        self._context = telemetry.current_context() if telemetry.enabled() else None
        for stage in self.stages:
            stage.bind_abort(self._cancel.is_set)
        sentinel = object()
        queues = [_Channel(self.queue_depth, self._cancel) for _ in range(len(self.stages) + 1)]
        self._channels = queues
        threads = [
            threading.Thread(
                target=self._feed, args=(source, queues[0], sentinel), name=f"{self.name}-source", daemon=True
            )
        ]
        threads += [
            threading.Thread(
                target=self._work,
                args=(stage, queues[i], queues[i + 1], sentinel),
                name=f"{self.name}-{i}-{stage.name}",
                daemon=True,
            )
            for i, stage in enumerate(self.stages)
        ]
        for thread in threads:
            thread.start()

        collected: List[Shard] = []
        stopped = False
        try:
            while True:
                item = queues[-1].get()
                if item is sentinel:
                    break
                collected.append(item)
                if consume is not None:
                    consume(item)
        except StopPipeline:
            stopped = True
            self._cancel_all()
        except _Cancelled:
            pass
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            self._record_error(exc)
        finally:
            # Wake anything still blocked, then wait for every thread: stage
            # finalize() work is part of the pipeline's contract, so run()
            # only returns once all side-channel results are in place.
            if self._error is not None or stopped:
                self._cancel_all()
            for thread in threads:
                thread.join()
        if self._error is not None:
            raise self._error
        return collected


# ---------------------------------------------------------------------------
# Spec parsing (mirrors executor_from_spec / board_from_spec)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineSpec:
    """How the tally's dataflow is cut into shards.

    Shards of ``shard_size`` items flow through the stages concurrently, with
    every inter-stage queue bounded at ``queue_depth`` shards.  The default —
    one shard holding the whole stream, queue depth 1 — is the serial
    schedule: each stage receives all of its input at once, so the phases
    run one after another.  Every geometry publishes bit-identical output;
    only the wall clock moves.
    """

    shard_size: int = sys.maxsize
    queue_depth: int = 1

    def __post_init__(self) -> None:
        if self.shard_size < 1:
            raise ValueError("pipeline shard size must be >= 1")
        if self.queue_depth < 1:
            raise ValueError("pipeline queue depth must be >= 1")


def pipeline_from_spec(spec: Optional[str]) -> PipelineSpec:
    """Build a :class:`PipelineSpec` from a config string.

    Accepted forms: ``"serial"`` (the default: one shard, queue depth 1) and
    ``"stream"``, ``"stream:<shard_size>"``,
    ``"stream:<shard_size>:<queue_depth>"``.
    """
    text = (spec or "serial").strip().lower()
    kind, _, rest = text.partition(":")
    if kind in ("serial", "off"):
        if rest:
            raise ValueError(f"the serial pipeline takes no parameters: {spec!r}")
        return PipelineSpec()
    if kind != "stream":
        raise ValueError(f"unknown pipeline spec {spec!r}; expected 'serial' or 'stream[:shard[:depth]]'")
    size_text, _, depth_text = rest.partition(":")
    try:
        shard_size = int(size_text) if size_text else DEFAULT_SHARD_SIZE
        queue_depth = int(depth_text) if depth_text else DEFAULT_QUEUE_DEPTH
    except ValueError as exc:
        raise ValueError(f"invalid pipeline spec {spec!r}") from exc
    return PipelineSpec(shard_size=shard_size, queue_depth=queue_depth)
