"""The stdlib ranking metrics against SciPy, used here only as a test oracle.

``repro.metrics.ranking`` once called ``scipy.stats``; these properties pin
the standard-library replacement to it: Tau-b bit for bit (ties, all-ties
NaN and the too-few-items error included), Spearman within 1e-12.  The module
is skipped where SciPy is not installed.
"""

from __future__ import annotations

import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DatasetError
from repro.metrics.ranking import kendall_tau_b, kendall_tau_b_from_scores, spearman_rho

stats = pytest.importorskip("scipy.stats")

# A small alphabet so orders repeat items and scores tie often.
_item = st.sampled_from("abcdefghij")
_order = st.lists(_item, max_size=14)
_score = st.one_of(
    st.integers(min_value=1, max_value=4),
    st.sampled_from([0.5, 1.0, 2.5, -0.0, math.inf, -math.inf, math.nan]),
    st.floats(min_value=-10, max_value=10),
)


def _shared_ranks(predicted, true_order):
    """The pre-SciPy-removal input preparation, reproduced verbatim."""
    true_positions = {item: index for index, item in enumerate(true_order)}
    shared = [item for item in predicted if item in true_positions]
    if len(shared) < 2:
        raise DatasetError("need at least two shared items to compare rankings")
    return shared, true_positions


def _scipy_tau_b(predicted_order, true_order):
    shared, true_positions = _shared_ranks(predicted_order, true_order)
    truth = [true_positions[item] for item in shared]
    return float(stats.kendalltau(list(range(len(shared))), truth, variant="b").statistic)


def _scipy_tau_b_from_scores(predicted_scores, true_order):
    shared, true_positions = _shared_ranks(predicted_scores, true_order)
    predicted = [-predicted_scores[item] for item in shared]
    truth = [true_positions[item] for item in shared]
    return float(stats.kendalltau(predicted, truth, variant="b").statistic)


def _scipy_spearman(predicted_order, true_order):
    shared, true_positions = _shared_ranks(predicted_order, true_order)
    truth = [true_positions[item] for item in shared]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # SciPy warns on constant input
        return float(stats.spearmanr(list(range(len(shared))), truth).statistic)


def _outcome(function, *args):
    try:
        return function(*args)
    except DatasetError:
        return DatasetError


def _bit_identical(ours, reference) -> bool:
    if ours is DatasetError or reference is DatasetError:
        return ours is reference
    if math.isnan(reference):
        return math.isnan(ours)
    return type(ours) is float and ours.hex() == reference.hex()


@given(_order, _order)
@settings(max_examples=400)
def test_tau_b_of_orders_is_bit_identical_to_scipy(predicted, truth):
    ours = _outcome(kendall_tau_b, predicted, truth)
    assert _bit_identical(ours, _outcome(_scipy_tau_b, predicted, truth))


@given(st.dictionaries(_item, _score, max_size=10), _order)
@settings(max_examples=400)
def test_tau_b_of_scores_is_bit_identical_to_scipy(scores, truth):
    ours = _outcome(kendall_tau_b_from_scores, scores, truth)
    assert _bit_identical(ours, _outcome(_scipy_tau_b_from_scores, scores, truth))


@given(
    st.lists(st.integers(min_value=0, max_value=60), min_size=2, max_size=60),
    st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=60),
)
@settings(max_examples=200)
def test_tau_b_of_long_tie_heavy_scores_is_bit_identical(positions, ratings):
    size = min(len(positions), len(ratings))
    truth = list(dict.fromkeys(positions[:size]))
    scores = dict(zip(positions[:size], ratings[:size]))
    ours = _outcome(kendall_tau_b_from_scores, scores, truth)
    assert _bit_identical(ours, _outcome(_scipy_tau_b_from_scores, scores, truth))


def test_all_tied_scores_are_nan_in_both():
    scores = {"a": 2, "b": 2, "c": 2}
    assert math.isnan(kendall_tau_b_from_scores(scores, ["a", "b", "c"]))
    assert math.isnan(_scipy_tau_b_from_scores(scores, ["a", "b", "c"]))


@given(_order, _order)
@settings(max_examples=400)
def test_spearman_is_within_1e12_of_scipy(predicted, truth):
    ours = _outcome(spearman_rho, predicted, truth)
    reference = _outcome(_scipy_spearman, predicted, truth)
    if ours is DatasetError or reference is DatasetError:
        assert ours is reference
    elif math.isnan(reference):
        assert math.isnan(ours)
    else:
        assert abs(ours - reference) <= 1e-12
