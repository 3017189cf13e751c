"""Cursor-native work feeds: the ledger cursor API as a cluster work queue.

The ROADMAP's design point for the multi-node tally was that *board
sharding and worker placement stay independent*: the ledger's cursor-paged
``read_ballots(since, limit)`` reads are already the natural unit of
distribution, so a remote tally worker consumes exactly the shards any
local reader would — no board-side partitioning, no worker-side state.

This module supplies that feed:

* :class:`CursorAckTracker` — bookkeeping for at-least-once page dispatch:
  every page is keyed by the cursor region it covered, results may arrive
  out of order (or twice, after a reassignment), and the *acked cursor*
  watermark only advances over a contiguous prefix of completed pages.
  Everything at/before the watermark is durably processed; a coordinator
  restart could resume reading at ``acked_cursor`` without re-shipping
  completed work.
* :func:`cluster_valid_ballots` — the remote-executor branch of
  :meth:`repro.tally.pipeline.TallyPipeline._valid_ballots`: stream the
  ballot ledger page by page, ship each page as **one task** to a remote
  worker (batched signature verification runs worker-side), ack by cursor
  as results land, and hand back the valid records in ledger order for
  the caller to deduplicate.  Output is bit-identical to the local read:
  verification verdicts are deterministic and pages reassemble in cursor
  order regardless of completion order.

The audit layer's counterpart lives in :class:`repro.audit.api.
DistributedVerifier` — audit *plans* are picklable, so check shards ride
the same executor surface without a cursor (a plan is finite and ordered
already); this module stays ledger-specific.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.ledger.api import BoardView, Cursor, GENESIS_CURSOR
from repro.ledger.records import BallotRecord


def _check_page(records: Sequence[BallotRecord]) -> List[BallotRecord]:
    """Check one ledger page's ballots (runs on a worker).

    Module-level and deterministic: the RLC batch verifier's verdicts do
    not depend on its coefficients, so a reassigned page re-executes to
    the same record list and at-least-once delivery stays bit-identical.
    """
    from repro.tally.pipeline import valid_ballot_page

    return valid_ballot_page(records)


class CursorAckTracker:
    """Contiguous-prefix acknowledgement over cursor-keyed pages.

    ``register`` declares the pages in read order (each with the cursor the
    *next* read would resume from); ``ack`` marks one complete.  The
    watermark :attr:`acked_cursor` is the resume cursor of the last page in
    the fully-acknowledged prefix — pages acked out of order park until the
    gap before them closes, exactly like TCP cumulative ACKs.
    """

    def __init__(self, start: Cursor = GENESIS_CURSOR) -> None:
        self._lock = threading.Lock()
        self._next_cursors: List[Cursor] = []
        self._acked: List[bool] = []
        self._prefix = 0
        self._start = start

    def register(self, next_cursor: Cursor) -> int:
        """Declare the next page (in read order); returns its page index."""
        with self._lock:
            self._next_cursors.append(next_cursor)
            self._acked.append(False)
            return len(self._next_cursors) - 1

    def ack(self, index: int) -> Cursor:
        """Mark page ``index`` processed; returns the (possibly advanced) watermark."""
        with self._lock:
            self._acked[index] = True
            while self._prefix < len(self._acked) and self._acked[self._prefix]:
                self._prefix += 1
            return self.acked_cursor_locked()

    def acked_cursor_locked(self) -> Cursor:
        return self._next_cursors[self._prefix - 1] if self._prefix else self._start

    @property
    def acked_cursor(self) -> Cursor:
        """Everything before this cursor has been processed (contiguously)."""
        with self._lock:
            return self.acked_cursor_locked()

    @property
    def num_pending(self) -> int:
        with self._lock:
            return len(self._acked) - sum(self._acked)


def cluster_valid_ballots(
    view: BoardView,
    election_id: str,
    executor: Any,
    page_size: int = 1024,
    since: Cursor = GENESIS_CURSOR,
    on_ack: Optional[Callable[[Cursor], None]] = None,
) -> Tuple[List[BallotRecord], CursorAckTracker]:
    """Signature-check the ballot ledger on remote workers, one task per page.

    Pages stream off the cursor API in read order and each becomes a single
    ``call`` task (so one ledger page maps to one wire frame and one
    worker-side batched verification).  Dispatch is **windowed and double
    buffered**: while one window of pages (a few per worker slot) verifies
    on the workers, the caller reads the next window off the cursor — reads
    overlap remote verification, and the coordinator's footprint stays
    proportional to two windows, not the ledger.
    ``on_ack`` observes the watermark as it advances.  Returns the valid
    records in ledger order — **not** deduplicated; the caller owns dedup
    exactly as on the local path — plus the tracker, whose final watermark
    equals the last page's resume cursor (guaranteed by the time this
    returns: result callbacks complete before each window's dispatch does).
    """
    tracker = CursorAckTracker(start=since)
    valid: List[BallotRecord] = []
    window = max(1, int(getattr(executor, "num_workers", 1) or 1)) * 4
    window_args: List[Tuple[Sequence[BallotRecord]]] = []
    window_indices: List[int] = []
    in_flight: Optional[Tuple[threading.Thread, dict]] = None

    def _dispatch(args: List[Tuple], indices: List[int]) -> Tuple[threading.Thread, dict]:
        """Ship one window from a helper thread (the coordinator multiplexes
        concurrent groups), so the caller keeps reading cursor pages while
        the previous window verifies on the workers — double buffering."""
        outcome: dict = {}

        def _on_result(position: int, _value: Any) -> None:
            watermark = tracker.ack(indices[position])
            if on_ack is not None:
                on_ack(watermark)

        def _run() -> None:
            try:
                outcome["results"] = executor.submit_calls(
                    _check_page, args, on_result=_on_result
                )
            except BaseException as exc:  # noqa: BLE001 - re-raised by _collect
                outcome["error"] = exc

        thread = threading.Thread(target=_run, name="cluster-feed-dispatch", daemon=True)
        thread.start()
        return thread, outcome

    def _collect(flight: Tuple[threading.Thread, dict]) -> None:
        thread, outcome = flight
        thread.join()
        if "error" in outcome:
            raise outcome["error"]
        for page_records in outcome["results"]:
            valid.extend(page_records)

    for page in view.iter_ballot_pages(election_id=election_id, page_size=page_size, since=since):
        window_indices.append(tracker.register(page.next_cursor))
        window_args.append((page.records,))
        if len(window_args) >= window:
            if in_flight is not None:
                _collect(in_flight)
            in_flight = _dispatch(window_args, window_indices)
            window_args, window_indices = [], []
    if in_flight is not None:
        _collect(in_flight)
    if window_args:
        _collect(_dispatch(window_args, window_indices))
    return valid, tracker


def supports_cursor_tasks(executor: Any) -> bool:
    """Does this executor dispatch cursor-page tasks (i.e. is it remote)?"""
    return callable(getattr(executor, "submit_calls", None))
