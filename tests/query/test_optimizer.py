"""Tests for the logical-plan optimizer rules and the compile lowering."""

from __future__ import annotations

import pytest

from repro.core.planner import CostPlanner
from repro.core.spec import FilterSpec, ResolveSpec, TopKSpec
from repro.core.physical import RuntimeStats
from repro.query import Dataset, compile_plan, optimize
from repro.query.optimizer import (
    fuse_adjacent_filters,
    insert_proxy_prefilters,
    order_semi_joins,
    push_filters_early,
    push_filters_into_joins,
    share_common_subplans,
)
from tests.query.support import MODEL, clean_engine, product_corpus

PLANNER = CostPlanner(MODEL)


def ops_of(plan):
    return [node.op for node in plan.nodes()]


class TestPushdown:
    def test_filter_commutes_ahead_of_pairwise_resolve(self, products):
        items, _ = products
        plan = Dataset(items, name="p").resolve().filter("keeps everything").logical_plan()
        optimized = optimize(plan, planner=PLANNER, rules=(push_filters_early,))
        assert ops_of(plan) == ["source", "resolve", "filter"]
        assert ops_of(optimized) == ["source", "filter", "resolve"]
        assert optimized.notes  # the rewrite is reported

    def test_filter_commutes_past_sort_and_annotators(self, products):
        items, _ = products
        plan = (
            Dataset(items, name="p")
            .sort("important", strategy="rating")
            .categorize(["early", "late"])
            .filter("keeps everything")
            .logical_plan()
        )
        optimized = optimize(plan, planner=PLANNER, rules=(push_filters_early,))
        assert ops_of(optimized) == ["source", "filter", "sort", "categorize"]

    def test_filter_not_pushed_past_top_k(self, products):
        items, _ = products
        plan = Dataset(items, name="p").top_k("important", k=3).filter(
            "keeps everything"
        ).logical_plan()
        optimized = optimize(plan, planner=PLANNER, rules=(push_filters_early,))
        assert ops_of(optimized) == ["source", "top_k", "filter"]

    def test_filter_not_pushed_past_whole_list_sort(self, products):
        items, _ = products
        plan = (
            Dataset(items, name="p")
            .sort("important", strategy="single_prompt")
            .filter("keeps everything")
            .logical_plan()
        )
        optimized = optimize(plan, planner=PLANNER, rules=(push_filters_early,))
        assert ops_of(optimized) == ["source", "sort", "filter"]

    def test_pushdown_reduces_the_quote(self, products):
        items, _ = products
        query = Dataset(items, name="p").resolve().filter("keeps everything")
        naive = query.quote(optimized=False, planner=PLANNER)
        optimized = query.quote(planner=PLANNER)
        assert optimized.total_dollars < naive.total_dollars
        assert optimized.total_calls < naive.total_calls


class TestFusion:
    def test_adjacent_filters_fuse_into_one_conjunctive_step(self, products):
        items, oracle = products
        query = Dataset(items, name="p").filter("is a short name").filter(
            "keeps everything"
        )
        optimized = optimize(query.logical_plan(), planner=PLANNER)
        assert ops_of(optimized) == ["source", "filter"]
        assert optimized.root.params["predicates"] == (
            "is a short name",
            "keeps everything",
        )
        spec = query.to_pipeline(planner=PLANNER)
        assert len(spec.steps) == 1
        # The fused step must produce exactly the unfused chain's survivors.
        fused = query.run(clean_engine(oracle))
        unfused = query.run(clean_engine(oracle), optimized=False)
        assert fused.items == unfused.items

    def test_filters_with_different_strategies_do_not_fuse(self, products):
        items, _ = products
        query = (
            Dataset(items, name="p")
            .filter("is a short name", strategy="per_item")
            .filter("keeps everything", strategy="adaptive", models=[MODEL, MODEL])
        )
        optimized = optimize(query.logical_plan(), planner=PLANNER, rules=(fuse_adjacent_filters,))
        assert ops_of(optimized) == ["source", "filter", "filter"]


class TestProxyInsertion:
    def test_proxy_inserted_when_planner_says_it_pays(self):
        items, _ = product_corpus(n_entities=12, variants=3)
        plan = Dataset(items, name="p").resolve().logical_plan()
        optimized = optimize(plan, planner=PLANNER, rules=(insert_proxy_prefilters,))
        assert optimized.root.params.get("proxy") is True
        assert any("proxy" in note for note in optimized.notes)

    def test_proxy_not_inserted_for_small_inputs(self):
        items, _ = product_corpus(n_entities=3, variants=1)
        plan = Dataset(items, name="p").resolve().logical_plan()
        optimized = optimize(plan, planner=PLANNER, rules=(insert_proxy_prefilters,))
        assert not optimized.root.params.get("proxy")

    def test_proxy_resolve_compiles_to_block_plus_judge_steps(self):
        items, _ = product_corpus(n_entities=12, variants=3)
        spec = Dataset(items, name="p").resolve().to_pipeline(planner=PLANNER)
        names = [step.name for step in spec.steps]
        assert names == ["s1_block", "s1_resolve"]
        assert spec.steps[0].run is not None  # LLM-free proxy step
        assert spec.steps[1].depends_on == ("s1_block",)

    def test_proxy_resolve_matches_naive_results_with_fewer_calls(self):
        items, oracle = product_corpus(n_entities=12, variants=3)
        query = Dataset(items, name="p").resolve()
        optimized = query.run(clean_engine(oracle))
        naive = query.run(clean_engine(oracle), optimized=False)
        assert optimized.items == naive.items
        assert optimized.total_calls < naive.total_calls


class TestLineageDependencies:
    def test_annotators_schedule_off_the_critical_path(self, products):
        items, _ = products
        query = Dataset(items, name="p").categorize(["early", "late"]).sort(
            "important", strategy="rating"
        )
        optimized_spec = query.to_pipeline(planner=PLANNER)
        by_name = {step.name: step for step in optimized_spec.steps}
        assert by_name["s2_sort"].depends_on == ()  # not gated on categorize
        naive_spec = query.to_pipeline(optimized=False, planner=PLANNER)
        by_name = {step.name: step for step in naive_spec.steps}
        assert by_name["s2_sort"].depends_on == ("s1_categorize",)

    def test_downstream_of_filter_depends_only_on_the_filter(self, products):
        items, _ = products
        spec = (
            Dataset(items, name="p")
            .filter("keeps everything")
            .sort("important", strategy="rating")
            .top_k("important", k=2, strategy="rating_only")
            .to_pipeline(planner=PLANNER)
        )
        by_name = {step.name: step for step in spec.steps}
        assert by_name["s2_sort"].depends_on == ("s1_filter",)
        # top_k consumes the sort's materialized order (which needs the
        # filter's survivors for dropped-item backfill).
        assert set(by_name["s3_top_k"].depends_on) == {"s2_sort", "s1_filter"}


class TestAcceptanceCriterion:
    """ISSUE 3's acceptance: reorder, quote strictly less, identical results."""

    def test_chained_query_reorders_quotes_less_and_matches_imperative(self):
        items, oracle = product_corpus(n_entities=8, variants=2)
        query = (
            Dataset(items, name="bench")
            .resolve()
            .filter("is a short name")
            .top_k("important", k=3, strategy="pairwise_tournament")
        )

        # (a) the optimized plan runs the cheap filter before the pairwise resolve
        optimized_steps = [step.name for step in query.to_pipeline(planner=PLANNER).steps]
        assert optimized_steps[0].endswith("filter")
        assert any("resolve" in name for name in optimized_steps[1:])

        # (b) strictly fewer quoted dollars than the naive plan
        assert (
            query.quote(planner=PLANNER).total_dollars
            < query.quote(optimized=False, planner=PLANNER).total_dollars
        )

        # (c) results identical to the naive plan and to driving the engine
        # imperatively with the same operators.
        optimized = query.run(clean_engine(oracle))
        naive = query.run(clean_engine(oracle), optimized=False)
        assert optimized.items == naive.items

        engine = clean_engine(oracle)
        resolve_result = engine.run_spec(ResolveSpec(records=items, strategy="pairwise"))
        representatives = [
            items[min(cluster)]
            for cluster in sorted(resolve_result.clusters, key=min)
        ]
        filter_result = engine.run_spec(
            FilterSpec(items=representatives, predicate="is a short name")
        )
        top_result = engine.run_spec(
            TopKSpec(
                items=filter_result.kept,
                criterion="important",
                k=3,
                strategy="pairwise_tournament",
            )
        )
        assert naive.items == top_result.top_items


class TestRuleSafety:
    def test_pushdown_opt_out_flag(self, products):
        """pushdown=False pins a filter where the author wrote it."""
        items, _ = products
        plan = (
            Dataset(items, name="p")
            .resolve()
            .filter("keeps everything", pushdown=False)
            .logical_plan()
        )
        optimized = optimize(plan, planner=PLANNER, rules=(push_filters_early,))
        assert ops_of(optimized) == ["source", "resolve", "filter"]

    def test_filter_not_pushed_past_sort_with_validation_order(self, products):
        """Labelled validation items could be filtered away; the sort stays put."""
        items, _ = products
        plan = (
            Dataset(items, name="p")
            .sort("important", validation_order=items[:3])
            .filter("is a short name")
            .logical_plan()
        )
        optimized = optimize(plan, planner=PLANNER, rules=(push_filters_early,))
        assert ops_of(optimized) == ["source", "sort", "filter"]

    def test_two_resolves_both_get_proxies(self):
        """Rewrites rescan the plan, so later nodes are not stale references."""
        items, _ = product_corpus(n_entities=12, variants=3)
        plan = (
            Dataset(items, name="p")
            .resolve()
            .filter("keeps everything", expected_selectivity=1.0)
            .resolve()
            .logical_plan()
        )
        optimized = optimize(plan, planner=PLANNER, rules=(insert_proxy_prefilters,))
        resolves = [node for node in optimized.nodes() if node.op == "resolve"]
        assert len(resolves) == 2
        assert all(node.params.get("proxy") for node in resolves)
        assert sum("proxy" in note for note in optimized.notes) == 2

    def test_filters_with_different_budgets_do_not_fuse(self, products):
        """Fusing would silently drop one author-declared per-step cap."""
        items, _ = products
        plan = (
            Dataset(items, name="p")
            .filter("is a short name", budget_dollars=0.01)
            .filter("keeps everything")
            .logical_plan()
        )
        optimized = optimize(plan, planner=PLANNER, rules=(fuse_adjacent_filters,))
        assert ops_of(optimized) == ["source", "filter", "filter"]

    def test_shared_parent_is_not_rewritten(self, products):
        """A filter is not pushed past a node another branch still reads."""
        items, _ = products
        base = Dataset(items, name="p").resolve()
        left = base.filter("keeps everything")
        right = base.top_k("important", k=2)
        joined = left.join(right)
        optimized = optimize(joined.logical_plan(), planner=PLANNER)
        # resolve feeds both branches, so the filter must stay after it.
        assert ops_of(optimized) == ops_of(joined.logical_plan())


class TestJoinPushdown:
    def test_filter_commutes_into_the_join_left_input(self, products):
        items, _ = products
        left, right = items[:6], items[6:10]
        plan = (
            Dataset(left, name="l")
            .join(Dataset(right, name="r"))
            .filter("is a short name")
            .logical_plan()
        )
        assert ops_of(plan) == ["source", "source", "join", "filter"]
        optimized = optimize(plan, planner=PLANNER, rules=(push_filters_into_joins,))
        assert ops_of(optimized) == ["source", "filter", "source", "join"]
        # The filter now reads the join's left source, not the join.
        join_node = optimized.root
        assert join_node.op == "join"
        assert join_node.inputs[0].op == "filter"
        assert join_node.inputs[1].op == "source"
        assert optimized.notes

    def test_filter_keeps_travelling_up_the_left_branch(self, products):
        """The fixpoint lets a filter cross a sort, the join, then the branch."""
        items, _ = products
        plan = (
            Dataset(items[:6], name="l")
            .sort("important", strategy="rating")
            .join(Dataset(items[6:10], name="r"))
            .filter("is a short name")
            .logical_plan()
        )
        optimized = optimize(plan, planner=PLANNER)
        assert ops_of(optimized) == ["source", "filter", "sort", "source", "join"]

    def test_pushdown_opt_out_applies_to_joins_too(self, products):
        items, _ = products
        plan = (
            Dataset(items[:6], name="l")
            .join(Dataset(items[6:10], name="r"))
            .filter("is a short name", pushdown=False)
            .logical_plan()
        )
        optimized = optimize(plan, planner=PLANNER, rules=(push_filters_into_joins,))
        assert ops_of(optimized) == ops_of(plan)

    def test_join_pushdown_reduces_the_quote(self, products):
        items, _ = products
        query = (
            Dataset(items, name="l")
            .join(Dataset(items[:4], name="r"), strategy="all_pairs")
            .filter("is a short name")
        )
        assert (
            query.quote(planner=PLANNER).total_dollars
            < query.quote(optimized=False, planner=PLANNER).total_dollars
        )


class TestSemiJoinOrdering:
    def _two_joins(self, items):
        """A cheap, sharp join stacked *after* an expensive, loose one."""
        return (
            Dataset(items[:8], name="base")
            .join(
                Dataset(items, name="big"),
                strategy="all_pairs",
                expected_selectivity=1.0,
            )
            .join(
                Dataset(items[:2], name="small"),
                strategy="all_pairs",
                expected_selectivity=0.25,
            )
        )

    def test_cheaper_sharper_join_is_probed_first(self, products):
        items, _ = products
        plan = self._two_joins(items).logical_plan()
        optimized = optimize(plan, planner=PLANNER, rules=(order_semi_joins,))
        assert optimized.notes
        # The small right side is now the inner join.
        outer = optimized.root
        inner = outer.inputs[0]
        assert [node.op for node in (outer, inner)] == ["join", "join"]
        assert len(outer.inputs[1].params["items"]) == len(items)
        assert len(inner.inputs[1].params["items"]) == 2

    def test_ordering_never_fires_without_a_cost_win(self, products):
        items, _ = products
        plan = (
            Dataset(items[:6], name="base")
            .join(Dataset(items[:4], name="a"), strategy="all_pairs")
            .join(Dataset(items[:4], name="b"), strategy="all_pairs")
            .logical_plan()
        )
        optimized = optimize(plan, planner=PLANNER, rules=(order_semi_joins,))
        # Identical sides and conservative selectivity: no strict win.
        assert not optimized.notes

    def test_observed_join_selectivity_gates_the_swap(self, products):
        """Stats can enable a swap the static priors would not justify."""
        items, _ = products
        plan = (
            Dataset(items[:8], name="base")
            .join(Dataset(items, name="big"), strategy="all_pairs")
            .join(Dataset(items[:2], name="small"), strategy="all_pairs")
            .logical_plan()
        )
        assert not optimize(plan, planner=PLANNER, rules=(order_semi_joins,)).notes
        stats = RuntimeStats()
        stats.record_join(left=10, matched=2)  # joins observed highly selective
        adaptive = CostPlanner(MODEL, stats=stats)
        optimized = optimize(plan, planner=adaptive, rules=(order_semi_joins,))
        assert optimized.notes


class TestSubplanSharing:
    def _rebuilt_prefix(self, items):
        return Dataset(items, name="p").filter("is a short name")

    def test_structural_duplicates_merge_into_one_node(self, products):
        items, _ = products
        query = self._rebuilt_prefix(items).join(self._rebuilt_prefix(items))
        plan = query.logical_plan()
        assert ops_of(plan).count("filter") == 2
        shared = share_common_subplans(plan, PLANNER)
        assert ops_of(shared).count("filter") == 1
        assert ops_of(shared).count("source") == 1
        assert any("shared common filter subplan" in note for note in shared.notes)

    def test_sharing_compiles_the_prefix_once_and_fans_out(self, products):
        items, _ = products
        query = (
            self._rebuilt_prefix(items)
            .sort("important", strategy="rating")
            .join(self._rebuilt_prefix(items), strategy="all_pairs")
        )
        naive = compile_plan(query.logical_plan(), planner=PLANNER)
        shared = compile_plan(
            share_common_subplans(query.logical_plan(), PLANNER), planner=PLANNER
        )
        naive_filters = [step for step in naive.steps if step.op == "filter"]
        shared_filters = [step for step in shared.steps if step.op == "filter"]
        assert len(naive_filters) == 2 and len(shared_filters) == 1
        # Both the sort and the join consume the single shared filter step.
        consumers = [
            step.name for step in shared.steps if shared_filters[0].name in step.depends_on
        ]
        assert len(consumers) >= 2
        assert shared.quote.total_calls < naive.quote.total_calls

    def test_different_parameters_do_not_share(self, products):
        items, _ = products
        left = Dataset(items, name="p").filter("is a short name")
        right = Dataset(items, name="p").filter("keeps everything")
        plan = left.join(right).logical_plan()
        shared = share_common_subplans(plan, PLANNER)
        assert ops_of(shared).count("filter") == 2
        # The identical sources still merge even when the filters differ.
        assert ops_of(shared).count("source") == 1
