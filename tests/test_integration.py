"""End-to-end integration tests: small-scale versions of the paper's case studies.

Each test runs one of the paper's case studies through the public API at a
reduced scale and asserts the qualitative takeaway of the corresponding table
(who wins, in accuracy and in cost), not exact numbers.
"""

from __future__ import annotations

import random

import pytest

from repro import DeclarativeEngine, SimulatedLLM, SortSpec
from repro.core.workflow import Workflow
from repro.core.session import PromptSession
from repro.data.citations import generate_citation_corpus
from repro.data.flavors import CHOCOLATEY, FLAVORS, flavor_oracle
from repro.data.products import generate_restaurant_dataset
from repro.data.words import random_words
from repro.llm.oracle import Oracle, prefix_margin
from repro.metrics.classification import confusion_from_pairs
from repro.metrics.ranking import kendall_tau_b
from repro.operators.impute import ImputeOperator
from repro.operators.resolve import ResolveOperator
from repro.operators.sort import SortOperator


class TestCaseStudySorting:
    """Section 3.1 / Table 1: cost-accuracy tradeoff across sorting strategies."""

    def test_finer_strategies_cost_more_and_score_higher(self):
        operator = SortOperator(
            SimulatedLLM(flavor_oracle(), seed=101), CHOCOLATEY, model="sim-gpt-3.5-turbo"
        )
        truth = list(FLAVORS)
        results = {}
        for strategy in ("single_prompt", "rating", "pairwise"):
            result = operator.run(truth, strategy=strategy)
            order = list(result.order) + [item for item in truth if item not in set(result.order)]
            results[strategy] = (kendall_tau_b(order, truth), result.usage.total_tokens)
        # Accuracy: the fine-grained pairwise strategy beats both coarse ones.
        # (The rating-vs-single-prompt gap is small and noisy at n=20, exactly
        # as in the paper where it was 0.547 vs 0.526; the seed-averaged
        # comparison lives in benchmarks/test_bench_table1_sorting.py.)
        assert results["pairwise"][0] > results["rating"][0]
        assert results["pairwise"][0] > results["single_prompt"][0]
        # Cost ordering: pairwise > rating > single prompt.
        assert results["pairwise"][1] > results["rating"][1] > results["single_prompt"][1]


class TestCaseStudySortInsert:
    """Section 3.2 / Table 2: hybrid sort-then-insert fixes drops on long lists."""

    def test_hybrid_outperforms_baseline_on_long_lists(self):
        words = random_words(100, seed=103)
        oracle = Oracle()
        oracle.register_key("alphabetical order", lambda word: word.lower(), margin=prefix_margin)
        operator = SortOperator(
            SimulatedLLM(oracle, seed=104), "alphabetical order", model="sim-claude-2"
        )
        truth = sorted(words, key=str.lower)

        baseline = operator.run(words, strategy="single_prompt")
        rng = random.Random(0)
        baseline_filled = list(baseline.order)
        for missing in baseline.missing:
            baseline_filled.insert(rng.randrange(len(baseline_filled) + 1), missing)
        hybrid = operator.run(words, strategy="hybrid_sort_insert")

        assert len(baseline.missing) >= 1
        assert set(hybrid.order) == set(words)
        assert kendall_tau_b(hybrid.order, truth) > kendall_tau_b(baseline_filled, truth)
        assert kendall_tau_b(hybrid.order, truth) > 0.95


class TestCaseStudyEntityResolution:
    """Section 3.3 / Table 3: transitivity over k-NN-augmented comparisons lifts F1."""

    def test_f1_improves_with_neighbor_augmentation(self):
        corpus = generate_citation_corpus(n_entities=40, n_pairs=100, seed=105)
        operator = ResolveOperator(
            SimulatedLLM(corpus.oracle(), seed=106), model="sim-gpt-3.5-turbo"
        )
        pairs = [(pair.left_text, pair.right_text) for pair in corpus.pairs]
        labels = [pair.is_duplicate for pair in corpus.pairs]
        texts = corpus.texts()

        scores = {}
        for k in (0, 1, 2):
            result = operator.judge_pairs(
                pairs, strategy="transitive", corpus=texts, neighbors_k=k
            )
            scores[k] = confusion_from_pairs(result.decisions, labels)

        assert scores[0].precision > 0.85  # the baseline is precision-heavy
        assert scores[1].recall >= scores[0].recall
        assert scores[2].recall >= scores[0].recall
        assert max(scores[1].f1, scores[2].f1) > scores[0].f1


class TestCaseStudyImputation:
    """Section 3.4 / Table 4: the hybrid imputer matches LLM-only at lower cost."""

    def test_hybrid_matches_llm_only_at_lower_cost(self):
        data = generate_restaurant_dataset(150, seed=107)
        client = SimulatedLLM(data.oracle(), seed=108)

        # Fresh operators per strategy so each run pays its own token cost
        # (the per-operator response cache would otherwise hide it).
        knn = ImputeOperator(client, model="sim-claude").run(data, strategy="knn")
        hybrid = ImputeOperator(client, model="sim-claude").run(data, strategy="hybrid")
        llm_only = ImputeOperator(client, model="sim-claude").run(data, strategy="llm_only")

        accuracy = {
            "knn": data.accuracy(knn.predictions),
            "hybrid": data.accuracy(hybrid.predictions),
            "llm_only": data.accuracy(llm_only.predictions),
        }
        assert knn.usage.total_tokens == 0
        assert hybrid.usage.total_tokens < llm_only.usage.total_tokens
        assert accuracy["hybrid"] >= accuracy["knn"] - 0.02
        assert accuracy["hybrid"] >= accuracy["llm_only"] - 0.05


class TestDeclarativeWorkflow:
    """The engine + workflow layers compose operators under one budget."""

    def test_sort_then_top_k_workflow(self):
        session = PromptSession(SimulatedLLM(flavor_oracle(), seed=109))

        def sort_step(session_, results):
            operator = SortOperator(session_.client(), CHOCOLATEY)
            return operator.run(list(FLAVORS[:10]), strategy="rating").order

        def head_step(session_, results):
            return results["sort"][:3]

        workflow = Workflow("sort-then-head")
        workflow.add_step("sort", sort_step)
        workflow.add_step("head", head_step)
        report = workflow.execute(session)
        assert len(report.results["head"]) == 3
        assert report.total_cost > 0.0

    def test_engine_budgeted_auto_sort(self):
        engine = DeclarativeEngine(SimulatedLLM(flavor_oracle(), seed=110))
        spec = SortSpec(
            items=list(FLAVORS),
            criterion=CHOCOLATEY,
            strategy="auto",
            validation_order=list(FLAVORS[:6]),
            budget_dollars=0.05,
        )
        result = engine.run_spec(spec)
        assert set(result.order).issubset(set(FLAVORS))
        assert engine.spent_dollars <= 0.05
