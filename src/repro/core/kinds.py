"""The operator table: everything the system knows about each operator kind.

The paper treats every data-processing operator as a *menu* of prompting
strategies from which the optimizer picks by cost and quality.  This module
is that menu's single home: one frozen :class:`OperatorKind` per operator —
its candidate strategies, cost estimator, statically-known prompts,
labelled-sample :class:`Validation` hooks, and runner — held in
:data:`KINDS` and keyed by spec class.  The cost planner, the physical
planner, the engine and the spec codec all dispatch through
:func:`kind_of`, so adding an operator is one spec class, one operator, and
one :data:`KINDS` entry; nothing else in the core changes.
"""

from __future__ import annotations

import itertools
import math
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from repro.core.optimizer import StrategyCandidate
from repro.core.spec import (
    CategorizeSpec,
    ClusterSpec,
    FilterSpec,
    ImputeSpec,
    JoinSpec,
    ResolveSpec,
    SortSpec,
    TaskSpec,
    TopKSpec,
)
from repro.data.products import ImputationDataset
from repro.data.record import Dataset
from repro.exceptions import SpecError
from repro.llm.prompts import (
    categorize_prompt,
    duplicate_check_prompt,
    impute_prompt,
    pairwise_comparison_prompt,
    predicate_check_prompt,
)
from repro.metrics.classification import accuracy as exact_match_accuracy
from repro.metrics.classification import f1_score
from repro.metrics.ranking import kendall_tau_b
from repro.operators.categorize import CategorizeOperator
from repro.operators.cluster import ClusterOperator
from repro.operators.filter import FilterOperator, FilterResult
from repro.operators.impute import ImputeOperator
from repro.operators.join import JoinOperator
from repro.operators.resolve import ResolveOperator
from repro.operators.sort import SortOperator
from repro.operators.top_k import TopKOperator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.budget import Budget, BudgetLease
    from repro.core.engine import DeclarativeEngine
    from repro.core.physical import ResolvedStrategy, RuntimeStats
    from repro.core.planner import CostEstimate, CostPlanner

#: ``build(OperatorClass, *args)`` constructs an operator bound to the run's
#: client, budget, model, and governor.
Build = Callable[..., Any]


@dataclass(frozen=True)
class Validation:
    """How an ``"auto"`` spec is resolved by measuring on its labelled sample.

    Attributes:
        minimum: labelled sample size from which measuring pays off.
        size: the spec's labelled sample size.
        full_size: the input size the sample's cost extrapolates to
            (``len(spec.items)`` unless given).
        candidates: ``(spec, voter models)`` → the strategies to measure.
        run: ``(build, spec, candidate)`` → one candidate's sample result.
        score: ``(spec, result)`` → quality in [0, 1] against the labels.
    """

    minimum: int
    size: Callable[[Any], int]
    candidates: Callable[[Any, Sequence[str]], list[StrategyCandidate]]
    run: Callable[[Build, Any, StrategyCandidate], Any]
    score: Callable[[Any, Any], float]
    full_size: Callable[[Any], int] = lambda spec: len(spec.items)


def _merged_options(spec: TaskSpec, options: Mapping[str, Any]) -> dict:
    return {**spec.strategy_options, **options}


@dataclass(frozen=True)
class OperatorKind:
    """One operator's declaration (see the module docstring).

    Attributes:
        name: the operator name; estimates, trace labels, and stats keys
            read ``"<name>:<strategy>"``.
        spec_type: the spec class the kind executes.
        candidates: ``spec`` → ``[(strategy, options), ...]`` in quality
            order; the first entry is what ``"auto"`` means without a
            budget or validation sample.
        estimate: ``(planner, spec)`` → the structural cost estimate,
            labelled ``"<name>:<strategy>"``.
        run: ``(engine, spec, budget)`` → the operator result.
        static_prompts: ``spec`` → the exact prompts it would send, when they
            are a pure function of the spec (empty otherwise).
        validation: labelled-sample hooks, or ``None``.
        run_options: ``(spec, candidate options)`` → the options a
            cost-chosen candidate runs with.
        context_items: ``spec`` → the items a whole-list (``single_prompt``)
            prompt would hold, for the context-window check.
        observe: ``(stats, spec, result)`` → records kind-specific runtime
            statistics after a run.
        call_ratio_applies: ``(planner, spec)`` → whether the observed
            actual/estimated call ratio corrects the estimate.
    """

    name: str
    spec_type: type
    candidates: Callable[[Any], list[tuple[str, dict]]]
    estimate: Callable[["CostPlanner", Any], "CostEstimate"]
    run: Callable[["DeclarativeEngine", Any, "Budget | BudgetLease | None"], Any]
    static_prompts: Callable[[Any], Iterable[str]] = lambda spec: ()
    validation: Validation | None = None
    run_options: Callable[[Any, Mapping[str, Any]], dict] = _merged_options
    context_items: Callable[[Any], list[str]] = lambda spec: []
    observe: Callable[["RuntimeStats", Any, Any], None] | None = None
    call_ratio_applies: Callable[["CostPlanner", Any], bool] = lambda planner, spec: True

    def default_strategy(self, spec: TaskSpec) -> str:
        """The strategy an unconstrained ``"auto"`` spec resolves to."""
        return self.candidates(spec)[0][0]


def kind_of(spec: TaskSpec) -> OperatorKind:
    """The kind registered for ``spec``'s class (or its nearest base class).

    Raises :class:`SpecError` when no class in its hierarchy has one.
    """
    for cls in type(spec).__mro__:
        if cls in KINDS:
            return KINDS[cls]
    raise SpecError(f"no operator kind registered for spec type {type(spec).__name__}")


def kind_named(name: str) -> OperatorKind | None:
    """The registered kind called ``name`` (an operator name), if any."""
    return next((kind for kind in KINDS.values() if kind.name == name), None)


def resolved_runner(
    call: Callable[[Build, Any, "ResolvedStrategy"], Any],
) -> Callable[["DeclarativeEngine", Any, Any], Any]:
    """A runner that resolves one strategy for the whole spec.

    The physical planner resolves the strategy under whichever budget binds
    the run; ``call(build, spec, resolved)`` then builds the kind's operator
    and runs it inside the engine's ``operator`` span, and the run is fed
    back into the session's runtime statistics.
    """

    def run(engine: "DeclarativeEngine", spec: TaskSpec, budget: Any) -> Any:
        resolved = engine.physical.resolve(
            spec, budget=budget if budget is not None else engine.session.budget
        )
        with engine.operator_span(f"{kind_of(spec).name}:{resolved.strategy}"):
            result = call(partial(engine.physical.build, budget=budget), spec, resolved)
        engine.physical.record_run(spec, resolved, result)
        return result

    return run


def _fixed(*names: str) -> Callable[[Any], list[tuple[str, dict]]]:
    return lambda spec: [(name, {}) for name in names]


def _ensemble(models: Sequence[str], *names: str) -> list[StrategyCandidate]:
    """Multi-model candidates, only with at least two voters to form a panel."""
    if len(models) < 2:
        return []
    return [
        StrategyCandidate(name=name, options={"models": list(models)}, cost_scaling="linear")
        for name in names
    ]


# -- sort --------------------------------------------------------------------------


def _estimate_sort(planner: "CostPlanner", spec: SortSpec) -> "CostEstimate":
    items = list(spec.items)
    strategy = spec.strategy
    if strategy == "single_prompt":
        estimate = planner.single_prompt(items)
    elif strategy == "rating":
        estimate = planner.per_item(
            items, batch_size=int(spec.strategy_options.get("batch_size", 1))
        )
    elif strategy == "hybrid_sort_insert":
        # One whole-list prompt, then a binary-search insertion (about
        # log2(n) comparisons) for each item the first pass dropped; we
        # conservatively price every item's insertion.
        estimate = planner.combine(
            "hybrid_sort_insert",
            planner.single_prompt(items),
            planner.pairwise_against(items, max(1, math.ceil(math.log2(len(items))))),
        )
    else:
        # "pairwise", "pairwise_consistent", and "auto" (the no-validation
        # default is pairwise) all execute one comparison per unordered pair.
        estimate = planner.pairwise(items)
    return replace(estimate, strategy=f"sort:{strategy}")


def _sort_prompts(spec: SortSpec) -> Iterable[str]:
    if spec.strategy not in ("pairwise", "auto"):
        return ()
    items = [str(item) for item in spec.items]
    return (
        pairwise_comparison_prompt(first, second, spec.criterion)
        for first, second in itertools.combinations(items, 2)
    )


def _score_sort(spec: SortSpec, result: Any) -> float:
    validation_items = list(spec.validation_order)
    placed = set(result.order)
    order = list(result.order) + [item for item in validation_items if item not in placed]
    return (kendall_tau_b(order, validation_items) + 1.0) / 2.0


SORT = OperatorKind(
    name="sort",
    spec_type=SortSpec,
    candidates=_fixed("pairwise", "rating", "single_prompt"),
    estimate=_estimate_sort,
    run=resolved_runner(
        lambda build, spec, resolved: build(SortOperator, spec.criterion).run(
            list(spec.items), strategy=resolved.strategy, **resolved.options
        )
    ),
    static_prompts=_sort_prompts,
    validation=Validation(
        minimum=3,
        size=lambda spec: len(spec.validation_order),
        candidates=lambda spec, models: [
            StrategyCandidate(name="single_prompt", cost_scaling="constant"),
            StrategyCandidate(name="rating", cost_scaling="linear"),
            StrategyCandidate(name="pairwise", cost_scaling="quadratic"),
        ],
        run=lambda build, spec, candidate: build(SortOperator, spec.criterion).run(
            list(spec.validation_order), strategy=candidate.name, **candidate.options
        ),
        score=_score_sort,
    ),
    # The sort strategy choosers always owned the option set.
    run_options=lambda spec, options: dict(options),
    context_items=lambda spec: [str(item) for item in spec.items],
)


# -- resolve -----------------------------------------------------------------------


def _resolve_candidates(spec: ResolveSpec) -> list[tuple[str, dict]]:
    if spec.pairs:
        return [("transitive", {"neighbors_k": spec.neighbors_k}), ("pairwise", {})]
    return [("pairwise", {}), ("blocked_pairwise", {}), ("single_prompt", {})]


def _estimate_resolve(planner: "CostPlanner", spec: ResolveSpec) -> "CostEstimate":
    strategy = spec.strategy
    if spec.pairs:
        if strategy in ("transitive", "auto"):
            # The no-validation default is the transitive strategy with the
            # spec's neighbors_k; label the estimate accordingly so the two
            # "auto" resolve modes (pair judgments here, whole-corpus dedup
            # below) never share a call-ratio key — their cost shapes are
            # unrelated.
            expansion = math.comb(2 * spec.neighbors_k + 2, 2)
            strategy = "transitive"
        else:
            expansion = 1
        estimate = planner.pair_judgments(list(spec.pairs), expansion=expansion)
    else:
        records = list(spec.records)
        if strategy == "single_prompt":
            estimate = planner.single_prompt(records)
        elif strategy == "blocked_pairwise":
            block_k = int(spec.strategy_options.get("block_k", 5))
            estimate = planner.pairwise_against(records, block_k)
            # The k·n pair count is an upper bound: the mutual-neighbor
            # blocker deduplicates symmetric and overlapping neighbor pairs,
            # and the observed candidate fraction says by how much.  Price
            # from the observation when one exists.
            rate = planner.observed_blocked_pair_rate()
            if rate is not None and estimate.calls > 0:
                rate = min(1.0, max(rate, 1.0 / max(1, estimate.calls)))
                estimate = planner.scaled(estimate, rate)
        else:
            # "pairwise" and "auto" (the records-path default).
            if strategy == "auto":
                strategy = "pairwise"
            estimate = planner.pairwise(records)
    return replace(estimate, strategy=f"resolve:{strategy}")


def _blocked_rate_unpriced(planner: "CostPlanner", spec: ResolveSpec) -> bool:
    """Whether a resolve estimate still needs its call-ratio correction.

    A blocked resolve priced from the observed mutual-neighbor rate must not
    *also* be scaled by its recorded call ratio — the ratio was measured
    against the uncorrected k·n structural estimate, so it encodes the same
    blocking shrinkage and would double-correct.
    """
    return not (
        not spec.pairs
        and spec.strategy == "blocked_pairwise"
        and planner.observed_blocked_pair_rate() is not None
    )


def _resolve_prompts(spec: ResolveSpec) -> Iterable[str]:
    if spec.pairs and spec.strategy == "pairwise":
        return (duplicate_check_prompt(str(left), str(right)) for left, right in spec.pairs)
    if not spec.pairs and spec.strategy in ("pairwise", "auto"):
        records = [str(record) for record in spec.records]
        return (
            duplicate_check_prompt(left, right)
            for left, right in itertools.combinations(records, 2)
        )
    return ()


def _run_resolve(build: Build, spec: ResolveSpec, resolved: "ResolvedStrategy") -> Any:
    """With ``pairs``, judge them (Table 3); with records only, cluster the corpus."""
    operator = build(ResolveOperator)
    if not spec.pairs:
        return operator.resolve(
            list(spec.records), strategy=resolved.strategy, **resolved.options
        )
    options = dict(resolved.options)
    return operator.judge_pairs(
        list(spec.pairs),
        strategy=resolved.strategy,
        corpus=list(spec.records) or None,
        neighbors_k=options.pop("neighbors_k", spec.neighbors_k),
        **options,
    )


def _observe_resolve(stats: "RuntimeStats", spec: ResolveSpec, result: Any) -> None:
    if not spec.pairs:
        stats.record_dedup(inputs=len(spec.records), survivors=len(result.clusters))
        return
    stats.record_pair_match(
        judged=len(result.judgments),
        duplicates=sum(1 for judgment in result.judgments if judgment.is_duplicate),
    )


def _score_resolve(spec: ResolveSpec, result: Any) -> float:
    labels = dict(spec.validation_labels)
    predictions = [judgment.is_duplicate for judgment in result.judgments]
    return f1_score(predictions, [labels[pair] for pair in labels])


RESOLVE = OperatorKind(
    name="resolve",
    spec_type=ResolveSpec,
    candidates=_resolve_candidates,
    estimate=_estimate_resolve,
    run=resolved_runner(_run_resolve),
    static_prompts=_resolve_prompts,
    validation=Validation(
        minimum=5,
        size=lambda spec: len(spec.validation_labels) if spec.pairs else 0,
        full_size=lambda spec: len(spec.pairs),
        candidates=lambda spec, models: [
            StrategyCandidate(name="pairwise", cost_scaling="linear"),
            StrategyCandidate(
                name="transitive", options={"neighbors_k": spec.neighbors_k}, cost_scaling="linear"
            ),
            StrategyCandidate(name="proxy_hybrid", cost_scaling="linear"),
        ],
        run=lambda build, spec, candidate: build(ResolveOperator).judge_pairs(
            list(dict(spec.validation_labels)),
            strategy=candidate.name,
            corpus=list(spec.records) or None,
            **candidate.options,
        ),
        score=_score_resolve,
    ),
    # Pair-judgment strategy choosers own the option set; record-mode
    # strategies keep the author's options.
    run_options=lambda spec, options: (
        dict(options) if spec.pairs else _merged_options(spec, options)
    ),
    context_items=lambda spec: [str(record) for record in spec.records],
    observe=_observe_resolve,
    call_ratio_applies=_blocked_rate_unpriced,
)


# -- impute ------------------------------------------------------------------------

#: Prior escalation fraction of the retrieval impute strategy: the share of
#: queries whose index-retrieved neighbors disagree and go to the LLM (Table
#: 4's hybrid runs escalate roughly half; the recorded call ratio replaces
#: this prior once a run has been observed).
_RETRIEVAL_ESCALATION_PRIOR = 0.5
#: Neighbor evidence records each retrieval-escalated prompt carries (the
#: operator's default ``k``).
_RETRIEVAL_EVIDENCE_NEIGHBORS = 3


def _estimate_impute(planner: "CostPlanner", spec: ImputeSpec) -> "CostEstimate":
    assert spec.data is not None  # spec.validate() guarantees this
    strategy = spec.strategy
    if strategy == "knn":
        # Pure proxy imputation: no LLM calls at all.
        estimate = planner.estimate("knn", calls=0, prompt_tokens=0, completion_tokens=0)
    elif strategy == "retrieval":
        # Index-grounded hybrid: only the disagreeing fraction escalates, and
        # each escalated prompt carries the retrieved neighbors as in-context
        # evidence (k extra records' worth of prompt tokens).  The index
        # build/probe itself is local embed work at zero dollars and adds no
        # LLM calls.
        queries = [spec.data.serialized_query(record) for record in spec.data.queries]
        base = planner.per_item(queries)
        calls = max(1, int(round(base.calls * _RETRIEVAL_ESCALATION_PRIOR)))
        fraction = calls / max(1, base.calls)
        evidence = 1 + _RETRIEVAL_EVIDENCE_NEIGHBORS
        estimate = planner.estimate(
            "retrieval",
            calls=calls,
            prompt_tokens=base.usage.prompt_tokens * fraction * evidence,
            completion_tokens=base.usage.completion_tokens * fraction,
        )
    else:
        queries = [spec.data.serialized_query(record) for record in spec.data.queries]
        estimate = planner.per_item(queries)
    return replace(estimate, strategy=f"impute:{strategy}")


def _impute_prompts(spec: ImputeSpec) -> Iterable[str]:
    data = spec.data
    if spec.strategy != "llm_only" or spec.n_examples != 0 or data is None:
        return ()
    return (
        impute_prompt(data.serialized_query(record), data.target_attribute)
        for record in data.queries
    )


def _impute_validation_size(spec: ImputeSpec) -> int:
    if spec.data is None:
        return 0
    return min(spec.validation_size, len(spec.data.queries))


def _impute_sample(spec: ImputeSpec) -> ImputationDataset:
    """The spec's dataset cut down to its first ``validation_size`` queries."""
    data = spec.data
    assert data is not None  # the validation size checked it
    records = data.queries.records[: _impute_validation_size(spec)]
    return ImputationDataset(
        name=f"{data.name}-validation",
        target_attribute=data.target_attribute,
        queries=Dataset(records, name=f"{data.name}-validation-queries"),
        reference=data.reference,
        ground_truth={record.record_id: data.ground_truth[record.record_id] for record in records},
    )


IMPUTE = OperatorKind(
    name="impute",
    spec_type=ImputeSpec,
    candidates=_fixed("hybrid", "retrieval", "llm_only", "knn"),
    estimate=_estimate_impute,
    # ``n_examples`` travels on the spec, not in the strategy options.
    run=resolved_runner(
        lambda build, spec, resolved: build(ImputeOperator).run(
            spec.data, strategy=resolved.strategy, n_examples=spec.n_examples
        )
    ),
    static_prompts=_impute_prompts,
    validation=Validation(
        minimum=5,
        size=_impute_validation_size,
        full_size=lambda spec: len(spec.data.queries),
        candidates=lambda spec, models: [
            StrategyCandidate(name=name, cost_scaling="linear")
            for name in ("knn", "hybrid", "retrieval", "llm_only")
        ],
        run=lambda build, spec, candidate: build(ImputeOperator).run(
            _impute_sample(spec), strategy=candidate.name, n_examples=spec.n_examples
        ),
        score=lambda spec, result: exact_match_accuracy(
            result.predictions, _impute_sample(spec).ground_truth
        ),
    ),
    run_options=lambda spec, options: {},
)


# -- filter ------------------------------------------------------------------------


def _estimate_filter(planner: "CostPlanner", spec: FilterSpec) -> "CostEstimate":
    items = list(spec.items)
    strategy = spec.strategy
    if strategy == "ensemble_vote":
        multiplier = max(2, len(spec.strategy_options.get("models", ())))
    elif strategy == "adaptive":
        # Upper bound: every item stays contentious until the vote limit.
        voters = max(2, len(spec.strategy_options.get("models", ())))
        multiplier = int(spec.strategy_options.get("max_votes_per_item") or voters)
    else:
        # "per_item" and "auto" (the default) — one check per item.
        multiplier = 1
    # Each predicate only re-checks the expected survivors of the ones
    # before it (the engine runs them over a shrinking set), so a fused
    # multi-predicate spec quotes exactly like sequential filter steps.
    selectivities = list(spec.expected_selectivities)
    predicates = list(spec.all_predicates)
    calls = 0
    prompt_tokens = 0.0
    completion_tokens = 0.0
    survivors = items
    for index in range(len(predicates)):
        per_predicate = planner.per_item(survivors)
        calls += per_predicate.calls * multiplier
        prompt_tokens += per_predicate.usage.prompt_tokens * multiplier
        completion_tokens += per_predicate.usage.completion_tokens * multiplier
        prior = selectivities[index] if index < len(selectivities) else 0.5
        selectivity = planner.observed_selectivity(predicates[index], prior)
        kept = min(len(survivors), max(1, math.ceil(len(survivors) * selectivity)))
        survivors = survivors[:kept]
    estimate = planner.estimate(strategy, calls, prompt_tokens, completion_tokens)
    return replace(estimate, strategy=f"filter:{strategy}")


def _filter_prompts(spec: FilterSpec) -> Iterable[str]:
    if spec.strategy not in ("per_item", "auto"):
        return ()
    return (
        predicate_check_prompt(str(item), predicate)
        for predicate in spec.all_predicates
        for item in spec.items
    )


def _apply_predicates(
    build: Build,
    plans: Sequence[tuple[str, str, Mapping[str, Any]]],
    items: Sequence[str],
    engine: "DeclarativeEngine | None" = None,
) -> FilterResult:
    """Apply ``(predicate, strategy, options)`` plans in order over the survivors.

    Later predicates never spend calls on items an earlier one already
    rejected.  With ``engine``, each predicate runs under an ``operator``
    span and its observed selectivity is recorded into the runtime stats.
    """
    survivors = [str(item) for item in items]
    merged = FilterResult(strategy=plans[0][1], decisions={item: True for item in survivors})
    strategies: dict[str, str] = {}
    executed: list[str] = []
    for predicate, strategy, options in plans:
        strategies[predicate] = strategy
        if not survivors:
            break
        if strategy not in executed:
            executed.append(strategy)
        operator = build(FilterOperator, predicate)
        span = engine.operator_span(f"filter:{strategy}") if engine is not None else nullcontext()
        with span:
            result = operator.run(survivors, strategy=strategy, **options)
        for item in survivors:
            merged.decisions[item] = result.decisions.get(item, False)
        if engine is not None:
            engine.stats.record_filter(predicate, evaluated=len(survivors), kept=len(result.kept))
        survivors = list(result.kept)
        merged.usage.add(result.usage)
        merged.cost += result.cost
        merged.votes_used += result.votes_used
        merged.metadata = dict(result.metadata)
    merged.strategy = "+".join(executed) or merged.strategy
    merged.kept = survivors
    merged.metadata["predicates"] = [predicate for predicate, _, _ in plans]
    merged.metadata["predicate_strategies"] = strategies
    return merged


def _run_filter(engine: "DeclarativeEngine", spec: FilterSpec, budget: Any) -> FilterResult:
    """Apply the conjunctive predicates in order (see :func:`_apply_predicates`).

    Strategies resolve *per predicate* (see
    :meth:`~repro.core.physical.PhysicalPlanner.resolve_filter`): with
    validation labels, a cheap ``per_item`` pass on an easy predicate can
    precede an ensemble vote on the hard one.
    """
    plans = engine.physical.resolve_filter(
        spec, budget=budget if budget is not None else engine.session.budget
    )
    return _apply_predicates(
        partial(engine.physical.build, budget=budget),
        [(predicate, resolved.strategy, resolved.options) for predicate, resolved in plans],
        spec.items,
        engine,
    )


def _filter_labels(spec: FilterSpec) -> dict[str, bool]:
    return {str(item): bool(keep) for item, keep in spec.validation_labels.items()}


def _score_filter(spec: FilterSpec, result: Any) -> float:
    labels = _filter_labels(spec)
    predictions = [result.decisions.get(item, False) for item in labels]
    return f1_score(predictions, list(labels.values()))


FILTER = OperatorKind(
    name="filter",
    spec_type=FilterSpec,
    candidates=_fixed("per_item"),
    estimate=_estimate_filter,
    run=_run_filter,
    static_prompts=_filter_prompts,
    validation=Validation(
        minimum=5,
        size=lambda spec: len(spec.validation_labels),
        candidates=lambda spec, models: [
            StrategyCandidate(name="per_item", cost_scaling="linear"),
            *_ensemble(models, "ensemble_vote", "adaptive"),
        ],
        # Labels are for the *conjunction*, so a candidate runs the
        # predicates over the sample exactly as the engine runs the spec.
        run=lambda build, spec, candidate: _apply_predicates(
            build,
            [(predicate, candidate.name, candidate.options) for predicate in spec.all_predicates],
            list(_filter_labels(spec)),
        ),
        score=_score_filter,
    ),
    # A filter's call error is explained by predicate selectivity, which is
    # priced from the observed selectivities (a ratio would double-correct).
    call_ratio_applies=lambda planner, spec: False,
)


# -- categorize --------------------------------------------------------------------


def _estimate_categorize(planner: "CostPlanner", spec: CategorizeSpec) -> "CostEstimate":
    items = list(spec.items)
    strategy = spec.strategy
    # Every call carries the category menu in the prompt.
    menu_tokens = sum(planner.tokenizer.count(str(label)) for label in spec.categories)
    if strategy == "self_consistency":
        multiplier = int(spec.strategy_options.get("n_samples", 3))
    elif strategy == "ensemble_vote":
        multiplier = max(2, len(spec.strategy_options.get("models", ())))
    else:  # "per_item" and "auto"
        multiplier = 1
    base = planner.per_item(items)
    estimate = planner.estimate(
        strategy,
        calls=base.calls * multiplier,
        prompt_tokens=(base.usage.prompt_tokens + len(items) * menu_tokens) * multiplier,
        completion_tokens=base.usage.completion_tokens * multiplier,
    )
    return replace(estimate, strategy=f"categorize:{strategy}")


def _categorize_prompts(spec: CategorizeSpec) -> Iterable[str]:
    if spec.strategy not in ("per_item", "auto"):
        return ()
    categories = list(spec.categories)
    return (categorize_prompt(str(item), categories) for item in spec.items)


def _categorize_labels(spec: CategorizeSpec) -> dict[str, str]:
    return {str(item): str(label) for item, label in spec.validation_labels.items()}


CATEGORIZE = OperatorKind(
    name="categorize",
    spec_type=CategorizeSpec,
    candidates=_fixed("per_item"),
    estimate=_estimate_categorize,
    run=resolved_runner(
        lambda build, spec, resolved: build(CategorizeOperator, list(spec.categories)).run(
            list(spec.items), strategy=resolved.strategy, **resolved.options
        )
    ),
    static_prompts=_categorize_prompts,
    validation=Validation(
        minimum=5,
        size=lambda spec: len(spec.validation_labels),
        candidates=lambda spec, models: [
            StrategyCandidate(name="per_item", cost_scaling="linear"),
            StrategyCandidate(
                name="self_consistency", options={"n_samples": 3}, cost_scaling="linear"
            ),
            *_ensemble(models, "ensemble_vote"),
        ],
        run=lambda build, spec, candidate: build(CategorizeOperator, list(spec.categories)).run(
            list(_categorize_labels(spec)), strategy=candidate.name, **candidate.options
        ),
        score=lambda spec, result: exact_match_accuracy(
            result.assignments, _categorize_labels(spec)
        ),
    ),
)


# -- top-k -------------------------------------------------------------------------


def _estimate_top_k(planner: "CostPlanner", spec: TopKSpec) -> "CostEstimate":
    items = list(spec.items)
    strategy = spec.strategy
    if strategy == "rating_only":
        estimate = planner.per_item(items)
    elif strategy == "pairwise_tournament":
        estimate = planner.pairwise(items)
    else:
        # "hybrid_rating_comparison" and "auto" (the operator default): rate
        # everything, then a tournament among the shortlist.
        factor = int(spec.strategy_options.get("shortlist_factor", 3))
        shortlist = items[: min(len(items), max(spec.k, spec.k * factor))]
        tournament = [planner.pairwise(shortlist)] if len(shortlist) >= 2 else []
        estimate = planner.combine(strategy, planner.per_item(items), *tournament)
    return replace(estimate, strategy=f"top_k:{strategy}")


TOP_K = OperatorKind(
    name="top_k",
    spec_type=TopKSpec,
    candidates=_fixed("hybrid_rating_comparison", "rating_only"),
    estimate=_estimate_top_k,
    run=resolved_runner(
        lambda build, spec, resolved: build(TopKOperator, spec.criterion).run(
            list(spec.items), k=spec.k, strategy=resolved.strategy, **resolved.options
        )
    ),
)


# -- join --------------------------------------------------------------------------


def _estimate_join(planner: "CostPlanner", spec: JoinSpec) -> "CostEstimate":
    left = list(spec.left)
    strategy = spec.strategy
    if strategy == "all_pairs":
        estimate = planner.pairwise_against(left, len(spec.right))
    else:
        # "blocked", "proxy_blocked", and "auto" (the operator default is
        # blocked) ask about ~block_k candidates per left record;
        # proxy_blocked answers part of those for free, so pricing it like
        # blocked is a conservative upper bound.
        block_k = int(spec.strategy_options.get("block_k", 3))
        estimate = planner.pairwise_against(left, min(block_k, len(spec.right)))
    return replace(estimate, strategy=f"join:{strategy}")


def _join_prompts(spec: JoinSpec) -> Iterable[str]:
    if spec.strategy != "all_pairs":
        return ()
    return (
        duplicate_check_prompt(str(left), str(right))
        for left in spec.left
        for right in spec.right
    )


JOIN = OperatorKind(
    name="join",
    spec_type=JoinSpec,
    candidates=_fixed("blocked"),
    estimate=_estimate_join,
    run=resolved_runner(
        lambda build, spec, resolved: build(JoinOperator).run(
            list(spec.left), list(spec.right), strategy=resolved.strategy, **resolved.options
        )
    ),
    static_prompts=_join_prompts,
    observe=lambda stats, spec, result: stats.record_join(
        left=len(spec.left),
        matched=len({left_index for left_index, _ in result.matches}),
    ),
)


# -- cluster -----------------------------------------------------------------------


def _estimate_cluster(planner: "CostPlanner", spec: ClusterSpec) -> "CostEstimate":
    items = list(spec.items)
    strategy = spec.strategy
    if strategy == "single_prompt":
        estimate = planner.single_prompt(items)
    else:
        # "two_phase" and "auto" (the operator default): one grouping prompt
        # over the seed, then each remaining item is compared against the
        # discovered representatives.  The representative count is unknown
        # a priori; half the seed is the heuristic.
        seed_size = min(int(spec.strategy_options.get("seed_size", 12)), len(items))
        remaining = items[seed_size:]
        assignments = (
            [planner.pairwise_against(remaining, max(1, seed_size // 2))] if remaining else []
        )
        estimate = planner.combine(
            strategy, planner.single_prompt(items[:seed_size]), *assignments
        )
    return replace(estimate, strategy=f"cluster:{strategy}")


CLUSTER = OperatorKind(
    name="cluster",
    spec_type=ClusterSpec,
    candidates=_fixed("two_phase", "single_prompt"),
    estimate=_estimate_cluster,
    run=resolved_runner(
        lambda build, spec, resolved: build(ClusterOperator).run(
            list(spec.items), strategy=resolved.strategy, **resolved.options
        )
    ),
    context_items=lambda spec: [str(item) for item in spec.items],
)


#: The operator table, keyed by spec class.
KINDS: dict[type, OperatorKind] = {
    kind.spec_type: kind
    for kind in (SORT, RESOLVE, IMPUTE, FILTER, CATEGORIZE, TOP_K, JOIN, CLUSTER)
}
