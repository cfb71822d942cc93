"""Tests for the strategy optimizer and the declarative engine facade."""

from __future__ import annotations

import pytest

from repro.core.budget import Budget
from repro.core.engine import DeclarativeEngine
from repro.core.optimizer import StrategyCandidate, StrategySelector
from repro.core.spec import ImputeSpec, ResolveSpec, SortSpec
from repro.data.flavors import CHOCOLATEY, FLAVORS, flavor_oracle
from repro.data.products import generate_restaurant_dataset
from repro.exceptions import SpecError
from repro.llm.simulated import SimulatedLLM
from repro.metrics.ranking import kendall_tau_b
from repro.operators.base import OperatorResult
from repro.tokenizer.cost import Usage


def _result(cost: float) -> OperatorResult:
    return OperatorResult(strategy="stub", usage=Usage(100, 10, 1), cost=cost)


class TestStrategyCandidate:
    def test_linear_extrapolation(self):
        candidate = StrategyCandidate(name="rating", cost_scaling="linear")
        assert candidate.extrapolate_cost(1.0, validation_size=10, full_size=100) == pytest.approx(10.0)

    def test_quadratic_extrapolation(self):
        candidate = StrategyCandidate(name="pairwise", cost_scaling="quadratic")
        assert candidate.extrapolate_cost(1.0, 10, 100) == pytest.approx(100.0)

    def test_constant_extrapolation(self):
        candidate = StrategyCandidate(name="single", cost_scaling="constant")
        assert candidate.extrapolate_cost(1.0, 10, 100) == pytest.approx(1.0)


class TestStrategySelector:
    def _selector(self, accuracies: dict[str, float], costs: dict[str, float]) -> StrategySelector:
        return StrategySelector(
            run_candidate=lambda candidate: _result(costs[candidate.name]),
            score=lambda result: accuracies[result.strategy] if result.strategy != "stub" else 0.0,
            validation_size=10,
            full_size=10,
        )

    def test_picks_most_accurate_within_budget(self):
        accuracies = {"cheap": 0.6, "expensive": 0.9}
        costs = {"cheap": 0.1, "expensive": 10.0}
        selector = StrategySelector(
            run_candidate=lambda candidate: OperatorResult(
                strategy=candidate.name, cost=costs[candidate.name]
            ),
            score=lambda result: accuracies[result.strategy],
            validation_size=10,
            full_size=10,
        )
        candidates = [StrategyCandidate("cheap"), StrategyCandidate("expensive")]
        assert selector.select(candidates, budget_dollars=1.0).name == "cheap"
        assert selector.select(candidates, budget_dollars=100.0).name == "expensive"

    def test_accuracy_target_prefers_cheapest_sufficient(self):
        accuracies = {"cheap": 0.85, "expensive": 0.95}
        costs = {"cheap": 0.1, "expensive": 10.0}
        selector = StrategySelector(
            run_candidate=lambda candidate: OperatorResult(
                strategy=candidate.name, cost=costs[candidate.name]
            ),
            score=lambda result: accuracies[result.strategy],
            validation_size=5,
            full_size=5,
        )
        candidates = [StrategyCandidate("cheap"), StrategyCandidate("expensive")]
        chosen = selector.select(candidates, accuracy_target=0.8)
        assert chosen.name == "cheap"

    def test_no_candidates_raises(self):
        selector = StrategySelector(
            run_candidate=lambda candidate: OperatorResult(strategy=candidate.name),
            score=lambda result: 1.0,
            validation_size=1,
            full_size=1,
        )
        with pytest.raises(SpecError):
            selector.select([])

    def test_invalid_sizes(self):
        with pytest.raises(SpecError):
            StrategySelector(
                run_candidate=lambda candidate: OperatorResult(strategy=candidate.name),
                score=lambda result: 1.0,
                validation_size=0,
                full_size=1,
            )


class TestDeclarativeEngine:
    def _engine(self, budget: Budget | None = None) -> DeclarativeEngine:
        return DeclarativeEngine(SimulatedLLM(flavor_oracle(), seed=91), budget=budget)

    def test_explicit_strategy_sort(self):
        engine = self._engine()
        result = engine.run_spec(
            SortSpec(items=list(FLAVORS), criterion=CHOCOLATEY, strategy="pairwise")
        )
        assert result.strategy == "pairwise"
        assert kendall_tau_b(result.order, list(FLAVORS)) > 0.5
        assert engine.spent_dollars > 0.0

    def test_auto_sort_without_validation_defaults_to_pairwise(self):
        engine = self._engine()
        result = engine.run_spec(
            SortSpec(items=list(FLAVORS[:8]), criterion=CHOCOLATEY, strategy="auto")
        )
        assert result.strategy == "pairwise"

    def test_auto_sort_with_validation_and_tight_budget_picks_cheap_strategy(self):
        engine = self._engine()
        spec = SortSpec(
            items=list(FLAVORS),
            criterion=CHOCOLATEY,
            strategy="auto",
            validation_order=list(FLAVORS[:6]),
            budget_dollars=0.0005,
        )
        result = engine.run_spec(spec)
        assert result.strategy in {"single_prompt", "rating"}

    def test_engine_impute_auto(self):
        data = generate_restaurant_dataset(80, seed=92)
        engine = DeclarativeEngine(SimulatedLLM(data.oracle(), seed=93))
        result = engine.run_spec(ImputeSpec(data=data, strategy="auto", validation_size=10))
        assert result.strategy in {"knn", "hybrid", "llm_only"}
        assert set(result.predictions) == set(data.ground_truth)

    def test_engine_resolve_records_clusters(self, citation_corpus):
        """Records-only resolve specs run whole-corpus clustering."""
        engine = DeclarativeEngine(SimulatedLLM(citation_corpus.oracle(), seed=94))
        texts = list(dict.fromkeys(citation_corpus.texts()))[:8]
        result = engine.run_spec(ResolveSpec(records=texts, strategy="pairwise"))
        assert sorted(index for cluster in result.clusters for index in cluster) == list(
            range(len(texts))
        )

    def test_engine_resolve_transitive(self, citation_corpus):
        engine = DeclarativeEngine(SimulatedLLM(citation_corpus.oracle(), seed=95))
        pairs = [(pair.left_text, pair.right_text) for pair in citation_corpus.pairs[:20]]
        result = engine.run_spec(
            ResolveSpec(
                pairs=pairs,
                records=citation_corpus.texts(),
                strategy="transitive",
                neighbors_k=1,
            )
        )
        assert len(result.judgments) == len(pairs)

    def test_budget_is_shared_across_engine_calls(self):
        engine = self._engine(budget=Budget(limit=10.0))
        engine.run_spec(SortSpec(items=list(FLAVORS[:6]), criterion=CHOCOLATEY, strategy="rating"))
        first_spend = engine.spent_dollars
        engine.run_spec(SortSpec(items=list(FLAVORS[6:12]), criterion=CHOCOLATEY, strategy="rating"))
        assert engine.spent_dollars > first_spend
