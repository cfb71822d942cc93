"""Per-layer spans recorded from outside the program.

:class:`SpanLog` wraps the public entry points of each ``repro`` package
(class methods in place, module functions at the sites that import them)
and records one span per call: ``(id, parent id, name, start, end)``.  The
parent travels in a ``ContextVar``; the program copies context into its
worker threads and asyncio tasks, so spans nest across both.

Spans stay in memory while a repetition runs.  :func:`analyze` then turns
them into self times (a span's duration minus the union of its children's
intervals), per-layer busy time (the union of the layer's intervals) and
counts.  Nothing is installed unless a traced run asks for it, and
:meth:`SpanLog.uninstall` restores every original attribute.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any

CURRENT = contextvars.ContextVar("perfbench_span", default=0)
# Names of the open spans that count units, so that a layer wrapping itself
# (an operator's cache in front of the session's cache) counts a request once.
COUNTING = contextvars.ContextVar("perfbench_counting", default=frozenset())

# Layers, in report order.  A span name's first dotted part is its layer.
LAYERS = (
    "query", "planner", "physical", "workflow", "engine", "operators", "executor",
    "governor", "session", "cache", "simulated", "transport", "tokenizer",
    "proxies", "embeddings", "index", "consistency", "store", "trace", "obs",
    "service",
)

_MATCH_GRAPH = (
    "add_node", "add_match", "add_non_match", "has_match_edge", "has_non_match",
    "connected", "components", "transitive_matches", "conflicts",
)


def _batch_units(args, kwargs) -> int:
    prompts = args[1] if len(args) > 1 else kwargs.get("prompts", ())
    return len(prompts)


def _one(args, kwargs) -> int:
    return 1


def _route(args) -> str:
    scope = args[1]
    if scope.get("type") != "http":
        return "service.request.lifespan"
    method, path = scope.get("method", ""), scope.get("path", "")
    if path == "/v1/pipelines":
        return "service.request.submit"
    if path == "/v1/pipelines/quote":
        return "service.request.quote"
    if path.startswith("/v1/jobs/"):
        return "service.request.events" if path.endswith("/events") else "service.request.status"
    if path.startswith("/v1/tenants/"):
        return "service.request.usage"
    if path == "/metrics":
        return "service.request.metrics"
    return f"service.request.{method.lower() or 'other'}"


class SpanLog:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.units: Counter = Counter()
        self.counters: Counter = Counter()
        self.queue_marks: dict[str, dict[str, float]] = defaultdict(dict)
        self.governors: set = set()
        self.tracers: set = set()
        self._ids = itertools.count(1)
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording --------------------------------------------------------------

    def clear(self) -> None:
        self.spans = []
        self.units = Counter()
        self.counters = Counter()
        self.queue_marks = defaultdict(dict)
        self.governors = set()
        self.tracers = set()

    @contextlib.contextmanager
    def root(self):
        """Open the span every span of one measured repetition hangs off."""
        sid = next(self._ids)
        parent = CURRENT.get()
        token = CURRENT.set(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            CURRENT.reset(token)
            self.spans.append((sid, parent, "root", start, end))

    def _count(self, name, units, args, kwargs):
        """Count ``units`` unless an enclosing span of ``name`` already did."""
        counting = COUNTING.get()
        if name in counting:
            return None
        self.units[name] += units(args, kwargs)
        return COUNTING.set(counting | {name})

    def _sync(self, name, fn, units=None, after=None, name_of=None):
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name if name_of is None else name_of(args)
            sid = next(ids)
            parent = CURRENT.get()
            token = CURRENT.set(sid)
            counted = self._count(span_name, units, args, kwargs) if units is not None else None
            before = after[0](args) if after is not None else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                CURRENT.reset(token)
                if counted is not None:
                    COUNTING.reset(counted)
                self.spans.append((sid, parent, span_name, start, end))
            if after is not None:
                after[1](self, args, result, before)
            return result

        return wrapper

    def _async(self, name, fn, units=None, name_of=None):
        ids = self._ids

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            span_name = name if name_of is None else name_of(args)
            sid = next(ids)
            parent = CURRENT.get()
            token = CURRENT.set(sid)
            counted = self._count(span_name, units, args, kwargs) if units is not None else None
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                CURRENT.reset(token)
                if counted is not None:
                    COUNTING.reset(counted)
                self.spans.append((sid, parent, span_name, start, end))

        return wrapper

    def _admit(self, fn):
        """Time only the entry of the governor's admission context manager."""
        log = self

        class TimedEntry:
            def __init__(self, manager):
                self.manager = manager

            def _record(self, start):
                log.spans.append((next(log._ids), CURRENT.get(), "governor.admit", start, time.perf_counter()))

            def __enter__(self):
                start = time.perf_counter()
                try:
                    return self.manager.__enter__()
                finally:
                    self._record(start)

            def __exit__(self, *exc):
                return self.manager.__exit__(*exc)

            async def __aenter__(self):
                start = time.perf_counter()
                try:
                    return await self.manager.__aenter__()
                finally:
                    self._record(start)

            async def __aexit__(self, *exc):
                return await self.manager.__aexit__(*exc)

        @functools.wraps(fn)
        def wrapper(governor, *args, **kwargs):
            log.governors.add(governor)
            return TimedEntry(fn(governor, *args, **kwargs))

        return wrapper

    # -- installation -----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, module: str, owner: str | None, attr: str, name: str, **options) -> None:
        target = importlib.import_module(module)
        holder = getattr(target, owner) if owner else target
        original = getattr(holder, attr)
        if inspect.iscoroutinefunction(original):
            wrapped = self._async(name, original, **options)
        else:
            wrapped = self._sync(name, original, **options)
        self._patch(holder, attr, wrapped)

    def install(self) -> None:
        """Wrap every layer's entry points."""
        wrap = self._wrap
        wrap("repro.query.dataset", "Dataset", "compile", "query.compile")
        wrap("repro.core.planner", "CostPlanner", "quote_pipeline", "planner.quote")
        wrap("repro.core.physical", "PhysicalPlanner", "resolve", "physical.resolve")
        for attr in ("execute", "execute_async"):
            wrap("repro.core.workflow", "Workflow", attr, "workflow.execute")
        for attr in ("run_pipeline", "run_pipeline_async"):
            wrap("repro.core.engine", "DeclarativeEngine", attr, "engine.pipeline")
        wrap("repro.core.engine", "DeclarativeEngine", "run_spec", "engine.step")
        wrap("repro.operators.sort", "SortOperator", "run", "operators.sort")
        wrap("repro.operators.resolve", "ResolveOperator", "judge_pairs", "operators.resolve")
        wrap("repro.operators.resolve", "ResolveOperator", "resolve", "operators.resolve")
        wrap("repro.operators.impute", "ImputeOperator", "run", "operators.impute")
        for owner in ("BatchExecutor", "AsyncBatchExecutor"):
            wrap("repro.core.executor", owner, "run", "executor.run", units=_requests)
            wrap("repro.core.executor", owner, "map", "executor.map", units=_tasks)
            wrap("repro.core.executor", owner, "_complete_one", "executor.task")
        governor = importlib.import_module("repro.core.governor").ConcurrencyGovernor
        for attr in ("admit", "admit_async"):
            self._patch(governor, attr, self._admit(getattr(governor, attr)))
        for attr, units in (
            ("complete", _one), ("complete_batch", _batch_units),
            ("acomplete", _one), ("acomplete_batch", _batch_units),
        ):
            wrap("repro.core.session", "PromptSession", attr, "session.call", units=units)
            wrap("repro.llm.cache", "CachedClient", attr, "cache.lookup", units=units)
        for attr in ("complete", "acomplete"):
            wrap("perfbench.transport", "LatencyTransport", attr, "transport.call")
        wrap("repro.llm.simulated", "SimulatedLLM", "complete", "simulated.call")
        wrap("repro.tokenizer.simple", "SimpleTokenizer", "count", "tokenizer.count")
        wrap("repro.tokenizer.simple", "SimpleTokenizer", "tokenize", "tokenizer.tokenize")
        for attr in ("vote", "examples_for"):
            wrap("repro.proxies.knn", "KNNImputer", attr, "proxies.knn")
        wrap("repro.proxies.knn", "KNNImputer", "_nearest", "proxies.knn", after=_KNN_PAIRS)
        wrap("repro.proxies.blocking", "EmbeddingBlocker", "block", "proxies.block", after=_BLOCKED_PAIRS)
        wrap("repro.llm.embeddings", "HashingEmbedder", "nearest_neighbors", "embeddings.scan")
        for module, owner in (("repro.index.exact", "ExactIndex"), ("repro.index.lsh", "LSHIndex")):
            for attr in ("search", "knn_graph"):
                wrap(module, owner, attr, "index.query", after=_CANDIDATES)
        for module in ("repro.query.compile", "repro.query.dataset"):
            wrap(module, None, "build_index", "index.build")
        for attr in _MATCH_GRAPH:
            wrap("repro.consistency.transitivity", "MatchGraph", attr, "consistency.graph")
        for attr in ("best_consistent_order", "alignment_insert_position"):
            wrap("repro.operators.sort", None, attr, "consistency.ranking")
        store_cls = importlib.import_module("repro.store.store").Store
        for attr in sorted(vars(store_cls)):
            if attr.startswith("save_") or attr == "clear_checkpoints":
                wrap("repro.store.store", "Store", attr, "store.write")
            elif attr.startswith("load_") or attr in ("apply_profile", "trace_records"):
                after = _CHECKPOINT_HIT if attr == "load_checkpoint" else None
                wrap("repro.store.store", "Store", attr, "store.read", after=after)
        wrap("repro.store.response_cache", "PersistentResponseCache", "get", "store.read")
        wrap("repro.store.response_cache", "PersistentResponseCache", "put", "store.write")
        wrap("repro.trace.tracer", "Tracer", "record", "trace.record", after=_TRACER)
        wrap("repro.trace.tracer", "Tracer", "flush", "trace.flush", after=_TRACER)
        for attr in ("record_span", "annotate"):
            wrap("repro.obs.spans", "SpanTracker", attr, "obs.record")
        wrap("repro.obs.spans", "SpanTracker", "flush", "obs.flush")
        wrap("repro.service.admission", "AdmissionController", "review", "service.admission")
        wrap("repro.service.app", "ServiceApp", "__call__", "service.request", name_of=_route)
        jobs = importlib.import_module("repro.service.jobs").JobManager
        notify = jobs._notify

        @functools.wraps(notify)
        def note_status(manager, live, event):
            if event.get("event") == "status":
                self.queue_marks[live.record.job_id].setdefault(event["status"], time.perf_counter())
            return notify(manager, live, event)

        self._patch(jobs, "_notify", note_status)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write the recorded spans out, one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _requests(args, kwargs) -> int:
    requests = args[1] if len(args) > 1 else kwargs.get("requests", ())
    return len(requests) if hasattr(requests, "__len__") else 0


def _tasks(args, kwargs) -> int:
    tasks = args[1] if len(args) > 1 else kwargs.get("tasks", ())
    return len(tasks)


def _add_knn_pairs(log, args, result, before) -> None:
    imputer = args[0]
    if imputer.index is None:
        log.counters["proxies.pairs_scored"] += len(imputer.reference.records)


def _add_blocked_pairs(log, args, result, before) -> None:
    log.counters["proxies.pairs_scored"] += result.n_candidates


def _add_candidates(log, args, result, before) -> None:
    log.counters["index.candidates_examined"] += args[0].candidates_examined - before


def _add_checkpoint_hit(log, args, result, before) -> None:
    if result is not None:
        log.counters["store.checkpoint_hits"] += 1


def _note_tracer(log, args, result, before) -> None:
    log.tracers.add(args[0])


_KNN_PAIRS = (lambda args: None, _add_knn_pairs)
_BLOCKED_PAIRS = (lambda args: None, _add_blocked_pairs)
_CANDIDATES = (lambda args: args[0].candidates_examined, _add_candidates)
_CHECKPOINT_HIT = (lambda args: None, _add_checkpoint_hit)
_TRACER = (lambda args: None, _note_tracer)


# -- analysis ---------------------------------------------------------------------


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def analyze(spans, root_id: int) -> dict[str, Any]:
    """Self time per span name, busy time per layer, and the sum check.

    Every span recorded while the root was open takes part, so a span whose
    parent was lost (context not propagated) shows up as an orphan and as a
    layer sum above the root instead of disappearing.
    """
    by_id = {span[0]: span for span in spans}
    root = by_id[root_id]
    root_start, root_end = root[3], root[4]
    # Work done before or after the measured interval (start-up, reading
    # results back) is not part of the repetition.
    spans = [span for span in spans if span[4] > root_start and span[3] < root_end]
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, parent, _name, start, end in spans:
        if sid != root_id:
            children[parent].append((start, end))
    self_s: Counter = Counter()
    count: Counter = Counter()
    top_level: Counter = Counter()
    duration_s: Counter = Counter()
    layer_intervals: dict[str, list[tuple[float, float]]] = defaultdict(list)
    orphans = 0
    task_queue_wait = 0.0
    for sid, parent, name, start, end in spans:
        if sid == root_id:
            continue
        clipped = [
            (max(start, child_start), min(end, child_end))
            for child_start, child_end in children.get(sid, ())
            if child_end > start and child_start < end
        ]
        self_s[name] += (end - start) - _union_length(clipped)
        duration_s[name] += end - start
        count[name] += 1
        layer = name.split(".", 1)[0]
        parent_span = by_id.get(parent)
        if parent_span is None:
            orphans += 1
        elif name == "executor.task" and parent_span[2] == "executor.run":
            # Tasks are submitted when the run starts; the gap until one
            # starts is time it waited for a worker.
            task_queue_wait += start - parent_span[3]
        if parent_span is None or parent_span[2].split(".", 1)[0] != layer:
            top_level[layer] += 1
        layer_intervals[layer].append((max(start, root_start), min(end, root_end)))
    root_s = root_end - root_start
    root_children = [
        (max(start, root_start), min(end, root_end))
        for start, end in children.get(root_id, ())
        if end > root_start and start < root_end
    ]
    unattributed = root_s - _union_length(root_children)
    attributed = sum(self_s.values())
    return {
        "root_s": root_s,
        "self_s": self_s,
        "duration_s": duration_s,
        "count": count,
        "top_level": top_level,
        "busy_s": Counter(
            {layer: _union_length([i for i in ivs if i[1] > i[0]]) for layer, ivs in layer_intervals.items()}
        ),
        "unattributed_s": unattributed,
        "layer_sum_ratio": (attributed + unattributed) / root_s if root_s > 0 else 0.0,
        "orphans": orphans,
        "task_queue_wait_s": task_queue_wait,
    }
