"""The declarative engine facade.

:class:`DeclarativeEngine` is the user-facing entry point of the library: it
owns a :class:`~repro.core.session.PromptSession` (shared budget, cache,
tracker) and turns declarative :mod:`~repro.core.spec` objects into operator
runs.  The engine's ``max_concurrency`` argument is threaded through to every
operator it constructs, so all independent unit tasks (pairwise comparisons,
rating calls, per-record imputations, ...) run through a shared-size thread
pool; at temperature 0 results are identical to sequential execution.

Strategy selection is not the engine's job any more: every spec —
whatever its operator — is resolved by the
:class:`~repro.core.physical.PhysicalPlanner` before execution.  Explicit
strategies pass through untouched; ``"auto"`` specs with a labelled
validation sample go through the :class:`~repro.core.optimizer.
StrategySelector` (the AutoML-style loop the paper sketches in Section 4);
everything else is picked by estimated cost under the remaining budget.
After each run the engine feeds what actually happened (observed filter
selectivities, dedup rates, call counts) back into the session's
:class:`~repro.core.physical.RuntimeStats`, so later quotes and plans are
priced from observations instead of static priors.

Multi-operator workflows go through :meth:`DeclarativeEngine.run_pipeline`:
a :class:`~repro.core.spec.PipelineSpec` declares named steps (operator
specs or plain callables) connected by ``depends_on`` edges, the engine
quotes the whole pipeline a priori (:meth:`DeclarativeEngine.quote_pipeline`)
and the DAG scheduler in :mod:`repro.core.workflow` runs independent steps
concurrently while apportioning the remaining session budget across the
pending steps.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping

from repro.core.budget import Budget, BudgetLease
from repro.core.kinds import kind_of
from repro.core.physical import PhysicalPlan, PhysicalPlanner
from repro.core.planner import CostPlanner, PipelineQuote
from repro.core.session import PromptSession
from repro.core.spec import PipelineSpec, TaskSpec
from repro.core.governor import ConcurrencyGovernor
from repro.core.workflow import StepReport, Workflow, WorkflowReport, WorkflowStep
from repro.exceptions import SpecError, StoreError
from repro.llm.base import LLMClient
from repro.llm.registry import ModelRegistry
from repro.operators.base import OperatorResult
from repro.obs import critical_path
from repro.store.fingerprint import fingerprint_spec
from repro.trace import trace_label

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store import Store


@dataclass
class _PipelinePrep:
    """What the sync and async pipeline entry points share per run."""

    workflow: Workflow
    quote: PipelineQuote | None
    store: "Store | None"
    restored: set[str]
    spec_runner: Any
    on_step: Callable[[StepReport], None] | None


class DeclarativeEngine:
    """Run declarative data-processing specs against an LLM client."""

    def __init__(
        self,
        client: LLMClient | None = None,
        *,
        registry: ModelRegistry | None = None,
        budget: Budget | None = None,
        default_model: str | None = None,
        max_concurrency: int = 1,
        governor: ConcurrencyGovernor | None = None,
        session: PromptSession | None = None,
    ) -> None:
        if session is not None:
            if client is not None or registry is not None or budget is not None or governor is not None:
                raise SpecError(
                    "pass either an existing session or client/registry/budget/governor, not both"
                )
            self.session = session
        else:
            if client is None:
                raise SpecError("DeclarativeEngine needs a client or a session")
            self.session = PromptSession(
                client,
                registry=registry,
                budget=budget,
                max_concurrency=max_concurrency,
                governor=governor,
            )
        self.default_model = default_model
        #: The physical-planning layer every spec's strategy resolves through.
        self.physical = PhysicalPlanner(self.session, default_model=default_model)

    @classmethod
    def from_session(
        cls, session: PromptSession, *, default_model: str | None = None
    ) -> "DeclarativeEngine":
        """An engine running over an existing session (shared budget/cache).

        The fluent :class:`~repro.query.Dataset` API uses this so a query can
        execute against a session the caller already owns.
        """
        return cls(session=session, default_model=default_model)

    # -- helpers -----------------------------------------------------------------

    @contextmanager
    def operator_span(self, label: str) -> Iterator[None]:
        """Trace label plus an ``operator`` span under whatever step span is ambient.

        The label is ``"<op>:<strategy>"`` for both, so the span waterfall
        and the trace records name the same work identically.
        """
        tracker = getattr(self.session, "spans", None)
        span = (
            tracker.span("operator", label)
            if tracker is not None and tracker.enabled
            else nullcontext()
        )
        with trace_label(operator=label), span:
            yield

    @property
    def stats(self):
        """The session's observed-execution statistics store."""
        return self.session.stats

    @property
    def spent_dollars(self) -> float:
        """Total dollars spent through this engine."""
        return self.session.spent_dollars

    # -- execution ----------------------------------------------------------------

    def run_spec(
        self, spec: TaskSpec, *, budget: Budget | BudgetLease | None = None
    ) -> Any:
        """Execute any task spec through its operator kind's runner.

        The kind (see :mod:`repro.core.kinds`) resolves the strategy through
        the physical planner, runs its operator under an ``operator`` span,
        and feeds the run back into the session's runtime stats.  ``budget``
        (a pipeline step's lease) binds the run instead of the session
        budget.  A resolve spec with ``pairs`` returns a
        :class:`~repro.operators.resolve.PairJudgmentResult`; with records
        only, a :class:`~repro.operators.resolve.ResolveResult` whose
        ``clusters`` hold record indices.
        """
        kind = kind_of(spec)
        spec.validate()
        return kind.run(self, spec, budget)

    def planner(self, model: str | None = None) -> CostPlanner:
        """A cost planner for ``model`` (defaults to the engine's model).

        The planner is fed by the session's :class:`~repro.core.physical.
        RuntimeStats`, so quotes computed after this engine has executed
        work are priced from observed selectivities and call ratios.
        """
        return self.physical.cost_planner(model)

    def plan_physical(self, pipeline: PipelineSpec) -> PhysicalPlan:
        """Resolve every static step's strategy up front (see PhysicalPlanner)."""
        return self.physical.plan_pipeline(pipeline)

    def quote_pipeline(self, pipeline: PipelineSpec) -> PipelineQuote:
        """Pre-flight quote for a pipeline: per-step estimates plus totals.

        A quote priced from observed statistics is only as good as the
        observations that reached the store, so a session whose trace ring
        dropped records before flushing carries a warning note on every
        subsequent quote.
        """
        quote = self.planner().quote_pipeline(pipeline)
        note = self._dropped_records_note()
        if note is not None:
            quote = replace(quote, notes=quote.notes + (note,))
        return quote

    def _dropped_records_note(self) -> str | None:
        """A warning when the session's trace ring has evicted records."""
        dropped = getattr(getattr(self.session, "tracer", None), "dropped", 0)
        if not dropped:
            return None
        return (
            f"trace ring dropped {dropped} record(s) before flushing; "
            "observed statistics may undercount (raise the tracer capacity "
            "or flush more often)"
        )

    def run_pipeline(
        self,
        pipeline: PipelineSpec | Workflow,
        *,
        quote: PipelineQuote | None = None,
        max_concurrency: int | None = None,
        store: "Store | None" = None,
        scheduler: str = "threads",
        on_step: "Callable[[StepReport], None] | None" = None,
    ) -> WorkflowReport:
        """Run a declarative pipeline (or a pre-built workflow) as a DAG.

        Independent steps run concurrently on the session's executor; spec
        steps are executed by this engine under per-step budget leases
        apportioned from whatever remains of the session budget, weighted by
        the pre-flight quote.  When no ``quote`` is passed and ``pipeline``
        is a spec, one is computed automatically and attached to the report.

        With a :class:`~repro.store.Store` (passed here, or already attached
        to the session), execution is **checkpointed**: every completed spec
        step's result is persisted under its content fingerprint as soon as
        it finishes, and any step whose fingerprint is already in the store
        is restored without a single LLM call — which is what makes a
        killed run resumable and a partially edited pipeline incremental
        (only the changed subtree re-executes).  Restored steps are flagged
        ``restored`` in the report.  The session's workload profile is
        saved back to the store after the run.

        Args:
            pipeline: a :class:`~repro.core.spec.PipelineSpec`, or a
                :class:`~repro.core.workflow.Workflow` built by hand.
            quote: optional pre-computed quote (avoids re-estimating).
            max_concurrency: scheduler pool size for independent steps;
                defaults to the session's ``max_concurrency``.
            store: durable store for checkpoints/profile; defaults to the
                session's own store when it has one.
            scheduler: ``"threads"`` (default) or ``"async"`` — forwarded to
                :meth:`~repro.core.workflow.Workflow.execute`.  The async
                scheduler awaits native-async clients on one event loop and
                bridges the engine's sync spec steps into worker threads.
            on_step: optional observer called with each step's
                :class:`~repro.core.workflow.StepReport` as it settles
                (``restored`` already stamped); the service layer streams
                these to polling clients.
        """
        prep = self._prepare_pipeline(pipeline, quote, store, on_step)
        try:
            report = prep.workflow.execute(
                self.session,
                max_concurrency=max_concurrency,
                spec_runner=prep.spec_runner,
                quote=prep.quote,
                scheduler=scheduler,
                on_step=prep.on_step,
            )
        except BaseException:
            # A crashed run's completed steps already checkpointed
            # themselves; their observations are just as real, so the
            # profile survives the failure too (the resumed process
            # warm-starts from everything that did happen).  Best
            # effort only: a store failure here (locked db, full disk)
            # must not replace the pipeline's real exception.
            try:
                self._save_profile(prep.store)
            except Exception:
                pass
            raise
        return self._finish_pipeline(report, prep)

    async def run_pipeline_async(
        self,
        pipeline: PipelineSpec | Workflow,
        *,
        quote: PipelineQuote | None = None,
        max_concurrency: int | None = None,
        store: "Store | None" = None,
        on_step: "Callable[[StepReport], None] | None" = None,
    ) -> WorkflowReport:
        """Awaitable :meth:`run_pipeline` for callers already inside a loop.

        ``run_pipeline(..., scheduler="async")`` drives its own event loop
        via ``asyncio.run`` and therefore cannot be called from a running
        loop (an ASGI request handler, the service's job manager).  This
        entry point awaits :meth:`Workflow.execute_async` directly instead:
        same quoting, checkpointing, profile persistence, and report — the
        only difference is who owns the loop.
        """
        prep = self._prepare_pipeline(pipeline, quote, store, on_step)
        try:
            report = await prep.workflow.execute_async(
                self.session,
                max_concurrency=max_concurrency,
                spec_runner=prep.spec_runner,
                quote=prep.quote,
                on_step=prep.on_step,
            )
        except BaseException:
            try:
                self._save_profile(prep.store)
            except Exception:
                pass
            raise
        return self._finish_pipeline(report, prep)

    def _prepare_pipeline(
        self,
        pipeline: PipelineSpec | Workflow,
        quote: PipelineQuote | None,
        store: "Store | None",
        on_step: "Callable[[StepReport], None] | None",
    ) -> "_PipelinePrep":
        """The shared setup of the sync and async pipeline entry points."""
        if isinstance(pipeline, Workflow):
            workflow = pipeline
        else:
            workflow = Workflow.from_pipeline(pipeline)
            if quote is None:
                quote = self.quote_pipeline(pipeline)
        if store is None:
            store = getattr(self.session, "store", None)
        restored: set[str] = set()
        if store is None:
            spec_runner: Any = self._run_pipeline_step
        else:

            def spec_runner(
                step: WorkflowStep, inputs: Mapping[str, Any], lease: BudgetLease | None
            ) -> Any:
                return self._run_checkpointed_step(store, restored, step, inputs, lease)

        observer = on_step
        if on_step is not None:

            def observer(step_report: "StepReport") -> None:
                # The engine stamps ``restored`` on the final report only
                # after the run; events should already carry it.
                if step_report.name in restored:
                    step_report.restored = True
                on_step(step_report)

        return _PipelinePrep(
            workflow=workflow,
            quote=quote,
            store=store,
            restored=restored,
            spec_runner=spec_runner,
            on_step=observer,
        )

    def _finish_pipeline(
        self, report: WorkflowReport, prep: "_PipelinePrep"
    ) -> WorkflowReport:
        for name in prep.restored:
            report.step_reports[name].restored = True
        self._absorb_observability(report, prep)
        # Persist the (possibly newly grown) observations so the next
        # session warm-starts its quotes from this run.
        self._save_profile(prep.store)
        return report

    def _absorb_observability(
        self, report: WorkflowReport, prep: "_PipelinePrep"
    ) -> None:
        """Collect the run's span subtree and feed the critical path back.

        The subtree rides the report (runtime-only, for
        :func:`repro.obs.render_timeline`) and its critical-path seconds —
        the wall-clock of the longest dependent step chain, which is what
        a concurrent run actually took — are recorded into the session's
        :class:`~repro.core.physical.RuntimeStats` under the pipeline's
        name.  Trace-ring drops surface as an advisory note.
        """
        tracker = getattr(self.session, "spans", None)
        if tracker is not None and report.span_id is not None:
            report.spans = tracker.subtree(report.span_id)
            path = critical_path(report.spans)
            if path.seconds > 0:
                self.stats.record_critical_path(prep.workflow.name, path.seconds)
            # Best effort: spans are diagnostics, never a run failure.
            try:
                tracker.flush()
            except Exception:
                pass
        note = self._dropped_records_note()
        if note is not None and note not in report.notes:
            report.notes.append(note)

    def _save_profile(self, store: "Store | None") -> None:
        """Save the session's stats to ``store``, history-preserving.

        A session seeded from this store already carries its decayed
        history, so a plain replace is exact; saving to any *other* store
        (an explicit ``store=`` argument) merges the saved history
        underneath first, so one small run cannot clobber an accumulated
        profile.
        """
        if store is None:
            return
        store.save_profile(
            self.session.stats, merge=store is not getattr(self.session, "store", None)
        )

    def _materialize_step_task(
        self, step: WorkflowStep, inputs: Mapping[str, Any]
    ) -> TaskSpec:
        """The concrete spec a pipeline step will execute (factories applied)."""
        task = step.task
        if callable(task) and not isinstance(task, TaskSpec):
            task = task(inputs)
        if not isinstance(task, TaskSpec):
            raise SpecError(
                f"pipeline step {step.name!r} produced {type(task).__name__}, expected a TaskSpec"
            )
        try:
            task.validate()
        except SpecError as exc:
            # A factory-built spec cannot be checked at compile time; name the
            # step here so a run-time failure (e.g. an upstream filter left no
            # items) is attributable without digging through the DAG.
            raise SpecError(f"pipeline step {step.name!r}: {exc}") from exc
        return task

    def _run_pipeline_step(
        self,
        step: WorkflowStep,
        inputs: Mapping[str, Any],
        lease: BudgetLease | None,
    ) -> Any:
        with trace_label(step=step.name):
            return self.run_spec(self._materialize_step_task(step, inputs), budget=lease)

    def _run_checkpointed_step(
        self,
        store: "Store",
        restored: set[str],
        step: WorkflowStep,
        inputs: Mapping[str, Any],
        lease: BudgetLease | None,
    ) -> Any:
        """Run one spec step through the checkpoint store.

        The fingerprint is computed over the *concrete* spec (factories
        already applied), so it content-addresses the step's resolved
        inputs; a hit restores the stored result before any strategy
        resolution happens — validation-driven ``auto`` steps therefore
        skip even their labelled-sample candidate runs on resume.  Specs
        that cannot be fingerprinted or results without a codec simply
        bypass the store (re-running is always correct).
        """
        with trace_label(step=step.name):
            return self._checkpointed_step(store, restored, step, inputs, lease)

    def _checkpointed_step(
        self,
        store: "Store",
        restored: set[str],
        step: WorkflowStep,
        inputs: Mapping[str, Any],
        lease: BudgetLease | None,
    ) -> Any:
        task = self._materialize_step_task(step, inputs)
        try:
            fingerprint = fingerprint_spec(task)
        except StoreError:
            return self.run_spec(task, budget=lease)
        try:
            cached = store.load_checkpoint(fingerprint)
        except Exception:
            # A mangled row or a database error must never sink a resume:
            # re-running the step is always correct, so a failed load is
            # just a miss.
            cached = None
        if cached is not None:
            restored.add(step.name)
            return cached
        result = self.run_spec(task, budget=lease)
        if isinstance(result, OperatorResult):
            try:
                store.save_checkpoint(fingerprint, task, result)
            except Exception:
                # Best effort: a full disk, a locked database, or a result
                # without a codec must not fail a step whose (paid-for)
                # LLM work already succeeded.
                pass
        return result
