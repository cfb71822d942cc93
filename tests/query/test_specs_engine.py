"""Tests for the extended spec layer: new spec types, planner arms, engine
methods.  This is the layer the fluent API compiles onto, exercised directly.
"""

from __future__ import annotations

import pytest

from repro.core.planner import CostPlanner
from repro.core.spec import (
    CategorizeSpec,
    ClusterSpec,
    FilterSpec,
    JoinSpec,
    TopKSpec,
)
from repro.exceptions import SpecError
from tests.query.support import MODEL, clean_engine, product_corpus

PLANNER = CostPlanner(MODEL)


class TestSpecValidation:
    def test_filter_spec_requires_predicate_and_items(self):
        with pytest.raises(SpecError, match="predicate"):
            FilterSpec(items=["a"]).validate()
        with pytest.raises(SpecError, match="at least one item"):
            FilterSpec(predicate="p").validate()
        with pytest.raises(SpecError, match="non-empty"):
            FilterSpec(items=["a"], predicate="p", predicates=("",)).validate()
        with pytest.raises(SpecError, match="expected_selectivities"):
            FilterSpec(
                items=["a"], predicate="p", expected_selectivities=(1.5,)
            ).validate()
        FilterSpec(items=["a"], predicates=("p", "q")).validate()
        assert FilterSpec(predicate="p", predicates=("q",)).all_predicates == ("p", "q")

    def test_categorize_spec_requires_two_distinct_categories(self):
        with pytest.raises(SpecError, match="two categories"):
            CategorizeSpec(items=["a"], categories=["x"]).validate()
        with pytest.raises(SpecError, match="distinct"):
            CategorizeSpec(items=["a"], categories=["x", "x"]).validate()
        with pytest.raises(SpecError, match="at least one item"):
            CategorizeSpec(categories=["x", "y"]).validate()

    def test_top_k_spec_bounds_k(self):
        with pytest.raises(SpecError, match="criterion"):
            TopKSpec(items=["a", "b"]).validate()
        with pytest.raises(SpecError, match="at least 1"):
            TopKSpec(items=["a", "b"], criterion="c", k=0).validate()
        with pytest.raises(SpecError, match="exceeds"):
            TopKSpec(items=["a", "b"], criterion="c", k=3).validate()

    def test_join_and_cluster_specs(self):
        with pytest.raises(SpecError, match="each side"):
            JoinSpec(left=["a"]).validate()
        with pytest.raises(SpecError, match="at least one item"):
            ClusterSpec().validate()
        with pytest.raises(SpecError, match="unique"):
            ClusterSpec(items=["a", "a"]).validate()


class TestPlannerArms:
    def test_filter_estimate_scales_with_strategy(self):
        items = [f"item number {index}" for index in range(10)]
        per_item = PLANNER.estimate_spec(FilterSpec(items=items, predicate="p"))
        assert per_item.calls == 10
        assert per_item.strategy == "filter:auto"
        ensemble = PLANNER.estimate_spec(
            FilterSpec(
                items=items,
                predicate="p",
                strategy="ensemble_vote",
                strategy_options={"models": [MODEL, MODEL, MODEL]},
            )
        )
        assert ensemble.calls == 30

    def test_fused_filter_quotes_like_sequential_steps(self):
        items = [f"item number {index}" for index in range(10)]
        fused = PLANNER.estimate_spec(
            FilterSpec(
                items=items,
                predicates=("p", "q"),
                expected_selectivities=(0.5, 0.5),
            )
        )
        first = PLANNER.estimate_spec(
            FilterSpec(items=items, predicate="p", expected_selectivities=(0.5,))
        )
        second = PLANNER.estimate_spec(
            FilterSpec(items=items[:5], predicate="q", expected_selectivities=(0.5,))
        )
        assert fused.calls == first.calls + second.calls
        assert fused.dollars == pytest.approx(first.dollars + second.dollars)

    def test_categorize_estimate_multiplies_samples(self):
        items = [f"item number {index}" for index in range(6)]
        spec = CategorizeSpec(items=items, categories=["x", "y"])
        base = PLANNER.estimate_spec(spec)
        assert base.calls == 6
        sampled = PLANNER.estimate_spec(
            CategorizeSpec(
                items=items,
                categories=["x", "y"],
                strategy="self_consistency",
                strategy_options={"n_samples": 3},
            )
        )
        assert sampled.calls == 18

    def test_top_k_estimates_by_strategy(self):
        items = [f"item number {index}" for index in range(10)]
        rating = PLANNER.estimate_spec(
            TopKSpec(items=items, criterion="c", k=2, strategy="rating_only")
        )
        assert rating.calls == 10
        tournament = PLANNER.estimate_spec(
            TopKSpec(items=items, criterion="c", k=2, strategy="pairwise_tournament")
        )
        assert tournament.calls == 45
        hybrid = PLANNER.estimate_spec(TopKSpec(items=items, criterion="c", k=2))
        assert hybrid.calls == 10 + 15  # ratings + C(6, 2) shortlist tournament

    def test_join_estimates_by_strategy(self):
        left = [f"left item {index}" for index in range(5)]
        right = [f"right item {index}" for index in range(4)]
        all_pairs = PLANNER.estimate_spec(
            JoinSpec(left=left, right=right, strategy="all_pairs")
        )
        assert all_pairs.calls == 20
        blocked = PLANNER.estimate_spec(JoinSpec(left=left, right=right))
        assert blocked.calls == 5 * 3  # default block_k=3

    def test_cluster_estimates_by_strategy(self):
        items = [f"item number {index}" for index in range(20)]
        single = PLANNER.estimate_spec(ClusterSpec(items=items, strategy="single_prompt"))
        assert single.calls == 1
        two_phase = PLANNER.estimate_spec(ClusterSpec(items=items))
        assert two_phase.calls == 1 + 8 * 6  # seed prompt + remaining x seed/2


class TestEngineMethods:
    def test_filter_applies_conjunctive_predicates_over_survivors(self, products):
        items, oracle = products
        oracle.register_predicate("is clean", lambda text: "(refurb" not in text)
        engine = clean_engine(oracle)
        result = engine.run_spec(
            FilterSpec(items=items, predicates=("is clean", "is a short name"))
        )
        expected = [
            item
            for item in items
            if "(refurb" not in item and len(item.split()[0]) <= 6
        ]
        assert result.kept == expected
        # The second predicate only ran over the first one's survivors.
        clean_count = sum(1 for item in items if "(refurb" not in item)
        assert result.votes_used == len(items) + clean_count
        assert result.metadata["predicates"] == ["is clean", "is a short name"]
        assert result.usage.calls == result.votes_used

    def test_categorize_and_cluster_and_top_k_and_join(self, products):
        items, oracle = products
        engine = clean_engine(oracle)
        categorized = engine.run_spec(
            CategorizeSpec(items=items[:4], categories=["early", "late"])
        )
        assert categorized.assignments[items[0]] == "early"
        clustered = engine.run_spec(ClusterSpec(items=items[:4], strategy="single_prompt"))
        assert sorted(i for c in clustered.clusters for i in c) == [0, 1, 2, 3]
        top = engine.run_spec(
            TopKSpec(items=items[:6], criterion="important", k=2, strategy="rating_only")
        )
        assert len(top.top_items) == 2
        joined = engine.run_spec(
            JoinSpec(left=items[:2], right=items[:2], strategy="all_pairs")
        )
        assert (0, 0) in joined.matches

    def test_engine_budget_threads_through_new_operators(self, products):
        from repro.core.budget import Budget
        from tests.query.support import clean_behavior
        from repro.llm.simulated import SimulatedLLM
        from repro.core.engine import DeclarativeEngine

        items, oracle = products
        engine = DeclarativeEngine(
            SimulatedLLM(oracle, seed=11, behavior=clean_behavior()),
            default_model=MODEL,
            budget=Budget(limit=1e-07),
        )
        from repro.exceptions import BudgetExceededError

        with pytest.raises(BudgetExceededError):
            engine.run_spec(FilterSpec(items=items, predicate="keeps everything"))
