"""Tests for ranking, classification, and clustering metrics."""

from __future__ import annotations

import math

import pytest

from repro.exceptions import DatasetError
from repro.metrics.classification import (
    BinaryConfusion,
    accuracy,
    confusion_from_pairs,
    f1_score,
    precision,
    recall,
)
from repro.metrics.clustering import adjusted_rand_index, pairwise_cluster_f1
from repro.metrics.ranking import (
    kendall_tau_b,
    kendall_tau_b_from_scores,
    ranking_alignment,
    spearman_rho,
)


class TestKendallTau:
    def test_identical_orders_score_one(self):
        items = ["a", "b", "c", "d"]
        assert kendall_tau_b(items, items) == pytest.approx(1.0)

    def test_reversed_order_scores_minus_one(self):
        items = ["a", "b", "c", "d"]
        assert kendall_tau_b(list(reversed(items)), items) == pytest.approx(-1.0)

    def test_partial_overlap_ignores_unshared_items(self):
        predicted = ["a", "x", "b", "c"]
        truth = ["a", "b", "c", "d"]
        assert kendall_tau_b(predicted, truth) == pytest.approx(1.0)

    def test_single_shared_item_raises(self):
        with pytest.raises(DatasetError):
            kendall_tau_b(["a"], ["a", "b"])

    def test_scores_with_ties_use_tau_b(self):
        scores = {"a": 3.0, "b": 3.0, "c": 1.0}
        value = kendall_tau_b_from_scores(scores, ["a", "b", "c"])
        assert 0.0 < value < 1.0  # ties prevent a perfect score

    def test_tied_scores_give_the_exact_tau_b(self):
        # tot = 3 pairs, one tied in the scores, none discordant.
        value = kendall_tau_b_from_scores({"a": 3, "b": 3, "c": 1}, ["a", "b", "c"])
        assert value == 2 / math.sqrt(2) / math.sqrt(3)

    def test_all_tied_scores_give_nan(self):
        assert math.isnan(kendall_tau_b_from_scores({"a": 1, "b": 1}, ["a", "b"]))

    def test_spearman_averages_tied_ranks_and_is_nan_when_constant(self):
        # "a" twice shares true position 0: ranks (1.5, 1.5, 3) against (1, 2, 3).
        assert spearman_rho(["a", "a", "b"], ["a", "b"]) == pytest.approx(math.sqrt(3) / 2)
        assert math.isnan(spearman_rho(["a", "a"], ["a", "b"]))

    def test_spearman_identical(self):
        assert spearman_rho(["a", "b", "c"], ["a", "b", "c"]) == pytest.approx(1.0)

    def test_ranking_alignment_bounds(self):
        items = ["a", "b", "c", "d"]
        assert ranking_alignment(items, items) == 1.0
        assert ranking_alignment(list(reversed(items)), items) == 0.0

    def test_alignment_relates_to_tau(self):
        predicted = ["b", "a", "c", "d"]
        truth = ["a", "b", "c", "d"]
        tau = kendall_tau_b(predicted, truth)
        assert ranking_alignment(predicted, truth) == pytest.approx((tau + 1) / 2)


class TestClassification:
    def test_confusion_counts(self):
        confusion = confusion_from_pairs([True, True, False, False], [True, False, True, False])
        assert confusion.true_positives == 1
        assert confusion.false_positives == 1
        assert confusion.false_negatives == 1
        assert confusion.true_negatives == 1
        assert confusion.accuracy == 0.5

    def test_precision_recall_f1(self):
        predictions = [True, True, True, False, False]
        labels = [True, True, False, True, False]
        assert precision(predictions, labels) == pytest.approx(2 / 3)
        assert recall(predictions, labels) == pytest.approx(2 / 3)
        assert f1_score(predictions, labels) == pytest.approx(2 / 3)

    def test_degenerate_cases_return_zero(self):
        empty = BinaryConfusion()
        assert empty.precision == 0.0
        assert empty.recall == 0.0
        assert empty.f1 == 0.0
        assert empty.accuracy == 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            confusion_from_pairs([True], [True, False])

    def test_exact_match_accuracy(self):
        truth = {"a": "Austin", "b": "Chicago"}
        assert accuracy({"a": "austin ", "b": "Chicago"}, truth) == 1.0
        assert accuracy({"a": "Dallas", "b": "Chicago"}, truth) == 0.5
        assert accuracy({}, truth) == 0.0
        assert accuracy({"a": "x"}, {}) == 0.0


class TestClustering:
    def test_perfect_clustering(self):
        clusters = [["a", "b"], ["c"]]
        labels = {"a": 1, "b": 1, "c": 2}
        confusion = pairwise_cluster_f1(clusters, labels)
        assert confusion.f1 == pytest.approx(1.0)

    def test_over_merged_clustering_loses_precision(self):
        clusters = [["a", "b", "c"]]
        labels = {"a": 1, "b": 1, "c": 2}
        confusion = pairwise_cluster_f1(clusters, labels)
        assert confusion.recall == pytest.approx(1.0)
        assert confusion.precision < 1.0

    def test_adjusted_rand_identical_partitions(self):
        labels = {"a": 1, "b": 1, "c": 2, "d": 3}
        assert adjusted_rand_index(labels, labels) == pytest.approx(1.0)

    def test_adjusted_rand_disjoint_items_returns_zero(self):
        assert adjusted_rand_index({"a": 1}, {"b": 1}) == 0.0

    def test_adjusted_rand_single_cluster_vs_split(self):
        predicted = {"a": 1, "b": 1, "c": 1, "d": 1}
        truth = {"a": 1, "b": 1, "c": 2, "d": 2}
        value = adjusted_rand_index(predicted, truth)
        assert value < 0.5
