"""Structured per-call tracing: the audit log of every LLM "worker response".

The paper's declarative-crowdsourcing framing treats each LLM call as one
crowd worker's answer; this module is the corresponding audit trail.  A
:class:`Tracer` hangs off a :class:`~repro.core.session.PromptSession` and
records one :class:`TraceRecord` per call issued through the session —
whoever triggered it (an operator's unit task, a retry attempt, a
validation-sample probe) and whatever happened to it (cache hit, parse
failure, taxonomy exception).

Records live in a bounded, thread-safe ring buffer, so tracing is always on
without ever growing without bound, and are flushed best-effort into the
durable :class:`~repro.store.Store` (``traces`` table) when the session has
one — a store failure can never sink the call that was being traced.

Attribution works through a :mod:`contextvars` label: the engine wraps each
operator run in :func:`trace_label` (``operator="sort:pairwise"``) and each
pipeline step in ``step=<name>``, and the :class:`~repro.core.executor.
BatchExecutor` propagates the ambient context into its worker threads, so a
record knows which step and strategy it served no matter which thread issued
the call.
"""

from __future__ import annotations

import contextvars
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Any, Iterator, Sequence
from uuid import uuid4

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store import Store

#: Default ring-buffer capacity: enough for every call of a large pipeline
#: run while bounding memory (records carry full prompt/response text so
#: traces stay replayable).
DEFAULT_CAPACITY = 4096

#: How many unflushed records accumulate before a best-effort store flush.
DEFAULT_FLUSH_EVERY = 32


@dataclass(frozen=True)
class TraceLabels:
    """The ambient attribution labels a call is recorded under."""

    step: str | None = None
    operator: str | None = None


_LABELS: contextvars.ContextVar[TraceLabels] = contextvars.ContextVar(
    "repro_trace_labels", default=TraceLabels()
)


def current_labels() -> TraceLabels:
    """The labels calls issued from this context are attributed to."""
    return _LABELS.get()


@contextmanager
def trace_label(
    *, step: str | None = None, operator: str | None = None
) -> Iterator[TraceLabels]:
    """Attribute calls made inside the block to ``step``/``operator``.

    Unset fields inherit the enclosing label, so a pipeline step label set
    by the scheduler survives the engine nesting an operator label inside.
    """
    current = _LABELS.get()
    merged = TraceLabels(
        step=step if step is not None else current.step,
        operator=operator if operator is not None else current.operator,
    )
    token = _LABELS.set(merged)
    try:
        yield merged
    finally:
        _LABELS.reset(token)


@dataclass
class TraceRecord:
    """One structured record of one LLM call issued through a session.

    Attributes:
        call_id: monotonically increasing id within the tracer.
        step: pipeline step name the call served, when known.
        operator: ``"<operation>:<strategy>"`` label of the operator run the
            call served, when known (the same label the planner's call
            ratios and latency percentiles are keyed by).
        model: model the call was issued against.
        temperature: sampling temperature of the call.
        prompt: the full prompt text (what makes traces replayable).
        response_text: the full response text; ``None`` when the call raised.
        prompt_tokens / completion_tokens: token counts of the call.
        cost: dollars charged for the call under the session's cost model.
        duration_ms: wall-clock duration via ``time.perf_counter`` (batch
            dispatches record the per-response share of the batch duration).
        cache_hit: whether the response came from the response cache.
        attempt: retry attempt index (0 = first try); annotated post-hoc by
            the retry wrapper.
        parse_ok: validator/parse outcome when one applied (``None`` = no
            validator saw the response).
        error: exception class name (the :class:`~repro.exceptions.ReproError`
            taxonomy, normally) when the call raised; ``None`` on success.
        finish_reason / confidence: carried from the response for replay
            fidelity (confidence drives ensemble voting).
        span_id: id of the call's span in the session's span tree, linking
            the flat trace log into the pipeline→wave→step hierarchy.
    """

    call_id: int
    step: str | None = None
    operator: str | None = None
    model: str = ""
    temperature: float = 0.0
    prompt: str = ""
    response_text: str | None = None
    prompt_tokens: int = 0
    completion_tokens: int = 0
    cost: float = 0.0
    duration_ms: float = 0.0
    cache_hit: bool = False
    attempt: int = 0
    parse_ok: bool | None = None
    error: str | None = None
    finish_reason: str = "stop"
    confidence: float = 1.0
    span_id: int | None = None

    def to_dict(self) -> dict[str, Any]:
        """A plain-dict view (JSON-shaped; what the store persists)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TraceRecord":
        known = {f.name for f in fields(cls)}
        return cls(**{key: value for key, value in data.items() if key in known})


class Tracer:
    """A thread-safe ring buffer of :class:`TraceRecord` objects.

    Args:
        capacity: maximum records retained; older records are evicted FIFO.
        store: optional durable :class:`~repro.store.Store`; records are
            flushed into its ``traces`` table best-effort (failures are
            swallowed — tracing must never sink the traced call).
        flush_every: how many unflushed records trigger an automatic flush.
        on_drop: optional callback invoked with the drop count each time the
            ring evicts records that never reached the store (the session
            wires this to the ``trace_records_dropped_total`` counter);
            called outside the tracer lock, and its failures are swallowed.
    """

    def __init__(
        self,
        *,
        capacity: int = DEFAULT_CAPACITY,
        store: "Store | None" = None,
        flush_every: int = DEFAULT_FLUSH_EVERY,
        on_drop: Any | None = None,
    ) -> None:
        if capacity <= 0:
            raise ConfigurationError("capacity must be positive")
        if flush_every <= 0:
            raise ConfigurationError("flush_every must be positive")
        self.capacity = capacity
        self.store = store
        self.flush_every = flush_every
        self.on_drop = on_drop
        #: Distinguishes this tracer's rows from other sessions sharing the
        #: same store file.
        self.origin = uuid4().hex
        self._lock = threading.Lock()
        self._records: OrderedDict[int, TraceRecord] = OrderedDict()
        self._next_id = 0
        self._dirty: set[int] = set()
        self._dropped = 0

    # -- recording ----------------------------------------------------------------

    def record(self, **traced: Any) -> TraceRecord:
        """Append one record; labels default from the ambient trace context."""
        labels = current_labels()
        traced.setdefault("step", labels.step)
        traced.setdefault("operator", labels.operator)
        with self._lock:
            call_id = self._next_id
            self._next_id += 1
            record = TraceRecord(call_id=call_id, **traced)
            self._records[call_id] = record
            self._dirty.add(call_id)
            drops = 0
            while len(self._records) > self.capacity:
                evicted_id, _ = self._records.popitem(last=False)
                # Only an unflushed record is lost; without a store nothing
                # is ever flushed, so there every eviction counts.
                if evicted_id in self._dirty:
                    self._dirty.discard(evicted_id)
                    self._dropped += 1
                    drops += 1
            should_flush = len(self._dirty) >= self.flush_every
        if drops and self.on_drop is not None:
            try:
                self.on_drop(drops)
            except Exception:
                pass
        if should_flush:
            self.flush()
        return record

    def annotate(self, call_id: int, **updates: Any) -> bool:
        """Amend a record post-hoc (retry attempt index, parse outcome).

        Returns whether the record was still in the buffer.  Amended records
        are re-flushed on the next :meth:`flush` (the store upserts by id).
        """
        with self._lock:
            record = self._records.get(call_id)
            if record is None:
                return False
            for key, value in updates.items():
                setattr(record, key, value)
            self._dirty.add(call_id)
            return True

    # -- inspection ---------------------------------------------------------------

    def records(self) -> list[TraceRecord]:
        """A snapshot (copies) of the buffered records, oldest first."""
        with self._lock:
            return [replace(record) for record in self._records.values()]

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    @property
    def dropped(self) -> int:
        """How many records the ring evicted before they reached the store."""
        with self._lock:
            return self._dropped

    def clear(self) -> None:
        """Drop every buffered record (the store's rows are untouched)."""
        with self._lock:
            self._records.clear()
            self._dirty.clear()

    def summarize_records(self) -> dict[str, Any]:
        """A lock-consistent aggregate of the buffered records.

        Computed in one pass while holding the tracer's lock — no record
        copies, no torn reads — so a concurrent request handler (the
        service's usage endpoint) can call this while worker threads keep
        recording.  The shape matches the module-level
        :func:`summarize_records`, plus the ring's ``dropped`` count so an
        aggregate over an overflowing buffer is recognisable as partial.
        """
        with self._lock:
            summary = _aggregate(self._records.values())
            summary["dropped"] = self._dropped
        return summary

    # -- persistence --------------------------------------------------------------

    def flush(self) -> int:
        """Best-effort write of unflushed records to the store.

        Returns how many records were written; 0 when there is no store or
        the write failed (the records stay marked dirty for the next try —
        a locked database or full disk must never sink the traced call).
        """
        if self.store is None:
            return 0
        with self._lock:
            pending = [replace(self._records[i]) for i in sorted(self._dirty)]
            if not pending:
                return 0
        try:
            self.store.save_trace_records(pending, origin=self.origin)
        except Exception:
            return 0
        with self._lock:
            self._dirty.difference_update(record.call_id for record in pending)
        return len(pending)


def _aggregate(records: Any) -> dict[str, Any]:
    """Single-pass aggregation over an iterable of records."""
    total = 0
    hits = 0
    errors = 0
    cost = 0.0
    duration_ms = 0.0
    for record in records:
        total += 1
        if record.cache_hit:
            hits += 1
        if record.error is not None:
            errors += 1
        cost += record.cost
        duration_ms += record.duration_ms
    return {
        "calls": total,
        "cache_hits": hits,
        "cache_hit_rate": hits / total if total else 0.0,
        "errors": errors,
        "cost": cost,
        "duration_ms": duration_ms,
    }


def summarize_records(records: Sequence[TraceRecord]) -> dict[str, Any]:
    """Aggregate view of a batch of records (used by docs/examples/tests)."""
    return _aggregate(records)
