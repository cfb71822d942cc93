"""Tests for transitivity, graph repair, and ranking repair."""

from __future__ import annotations

import pytest

from repro.consistency.graph_repair import repair_with_evidence
from repro.consistency.ranking_repair import (
    alignment_insert_position,
    best_consistent_order,
    count_inversions,
    minimum_feedback_edges,
)
from repro.consistency.transitivity import MatchGraph, connected_components, transitive_closure_pairs


class TestMatchGraph:
    def test_transitive_connection(self):
        graph = MatchGraph()
        graph.add_match("a", "b")
        graph.add_match("b", "c")
        graph.add_non_match("a", "c")
        assert graph.connected("a", "c") is True
        assert graph.has_match_edge("a", "c") is False
        assert graph.has_non_match("a", "c") is True

    def test_conflicts_are_the_flippable_pairs(self):
        graph = MatchGraph()
        graph.add_match("a", "b")
        graph.add_match("b", "c")
        graph.add_non_match("a", "c")
        graph.add_non_match("a", "d")
        conflicts = graph.conflicts()
        assert frozenset(("a", "c")) in conflicts
        assert frozenset(("a", "d")) not in conflicts

    def test_components(self):
        graph = MatchGraph()
        graph.add_match("a", "b")
        graph.add_node("z")
        components = graph.components()
        assert {"a", "b"} in components
        assert {"z"} in components

    def test_nodes_and_components_follow_insertion_order(self):
        graph = MatchGraph()
        graph.add_node("z")
        graph.add_match("c", "a")
        graph.add_non_match("b", "z")
        graph.add_match("b", "a")
        assert graph.nodes == ["z", "c", "a", "b"]
        assert graph.components() == [{"z"}, {"a", "b", "c"}]
        assert graph.neighbors("a") == {"b", "c"}
        assert graph.neighbors("unknown") == set()

    def test_unknown_nodes_not_connected(self):
        graph = MatchGraph()
        graph.add_match("a", "b")
        assert graph.connected("a", "zzz") is False

    def test_self_connection(self):
        graph = MatchGraph()
        graph.add_node("a")
        assert graph.connected("a", "a") is True

    def test_transitive_matches_cover_whole_component(self):
        graph = MatchGraph()
        graph.add_match("a", "b")
        graph.add_match("b", "c")
        graph.add_match("c", "d")
        closure = graph.transitive_matches()
        assert frozenset(("a", "d")) in closure
        assert len(closure) == 6  # C(4, 2)


class TestModuleHelpers:
    def test_connected_components(self):
        components = connected_components([("a", "b"), ("c", "d"), ("b", "e")])
        assert {"a", "b", "e"} in components
        assert {"c", "d"} in components

    def test_transitive_closure_pairs(self):
        closure = transitive_closure_pairs([("a", "b"), ("b", "c")])
        assert frozenset(("a", "c")) in closure


class TestEvidenceRepair:
    def _graph(self) -> MatchGraph:
        graph = MatchGraph()
        graph.add_match("a", "b")
        graph.add_match("b", "c")
        graph.add_non_match("a", "c")  # contradicted by transitivity
        graph.add_non_match("a", "d")  # genuinely different
        graph.add_node("d")
        return graph

    def test_no_edges_flipped_to_match(self):
        result = repair_with_evidence(self._graph())
        assert frozenset(("a", "c")) in result.flipped_to_match
        assert frozenset(("a", "c")) in result.matches
        assert frozenset(("a", "d")) not in result.matches

    def test_yes_flip_disabled_by_default(self):
        graph = MatchGraph()
        graph.add_match("a", "b")
        graph.add_non_match("a", "b")
        result = repair_with_evidence(graph)
        assert frozenset(("a", "b")) in result.matches
        assert not result.flipped_to_non_match

    def test_yes_flip_demotes_unsupported_edges(self):
        graph = MatchGraph()
        graph.add_match("a", "b")
        graph.add_non_match("a", "b")  # conflicting evidence, no common neighbors
        result = repair_with_evidence(graph, flip_yes=True)
        assert frozenset(("a", "b")) not in result.matches
        assert frozenset(("a", "b")) in result.flipped_to_non_match

    def test_supported_yes_edge_survives_yes_flip(self):
        graph = MatchGraph()
        graph.add_match("a", "b")
        graph.add_match("a", "c")
        graph.add_match("b", "c")
        graph.add_non_match("a", "b")
        result = repair_with_evidence(graph, flip_yes=True, flip_yes_threshold=1)
        assert frozenset(("a", "b")) in result.matches


class TestAlignmentInsertion:
    def test_perfect_comparisons_give_correct_position(self):
        sorted_items = ["apple", "banana", "cherry", "date"]
        # "coconut" belongs between "cherry" and "date" alphabetically? No:
        # apple < banana < cherry < coconut < date.
        comparisons = {item: "coconut" < item for item in sorted_items}
        assert alignment_insert_position(sorted_items, comparisons) == 3

    def test_single_early_mistake_does_not_derail(self):
        sorted_items = ["apple", "banana", "cherry", "date", "elder"]
        comparisons = {item: "dew" < item for item in sorted_items}
        comparisons["apple"] = True  # wrong answer at the very first index
        assert alignment_insert_position(sorted_items, comparisons) == 4

    def test_insert_at_front_and_back(self):
        sorted_items = ["b", "c", "d"]
        assert alignment_insert_position(sorted_items, {item: True for item in sorted_items}) == 0
        assert alignment_insert_position(sorted_items, {item: False for item in sorted_items}) == 3

    def test_empty_list_inserts_at_zero(self):
        assert alignment_insert_position([], {}) == 0


class TestRankingRepair:
    def test_count_inversions(self):
        comparisons = {("a", "b"): True, ("b", "c"): True, ("a", "c"): False}
        assert count_inversions(["a", "b", "c"], comparisons) == 1
        assert count_inversions(["c", "b", "a"], comparisons) == 2

    def test_minimum_feedback_edges_exact_small(self):
        # One contradictory edge in an otherwise consistent triangle.
        comparisons = {("a", "b"): True, ("b", "c"): True, ("a", "c"): False}
        assert minimum_feedback_edges(["a", "b", "c"], comparisons) == 1

    def test_consistent_comparisons_need_no_flips(self):
        comparisons = {("a", "b"): True, ("b", "c"): True, ("a", "c"): True}
        assert minimum_feedback_edges(["a", "b", "c"], comparisons) == 0

    def test_best_consistent_order_recovers_truth_with_few_errors(self):
        items = list("abcdefgh")
        comparisons = {}
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                comparisons[(items[i], items[j])] = True  # a before b before c ...
        # Inject two wrong comparisons.
        comparisons[("a", "b")] = False
        comparisons[("c", "f")] = False
        order = best_consistent_order(items, comparisons)
        assert count_inversions(order, comparisons) <= 2
        # The order should still be close to the truth: 'a' near the front.
        assert order.index("a") <= 1
