"""Ranking-comparison metrics.

The paper reports Kendall Tau-b for its sorting case studies (Tables 1 and 2).
Kendall Tau-b handles ties in either ranking, which matters for the
rating-based strategy where many items share a 1–7 rating.

Everything here is standard-library Python.  Tau-b is computed from exact
integer pair counts and one fixed floating-point expression, the same one the
common numerical libraries use for their variant "b", so results agree with
theirs bit for bit.
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect_right, insort
from collections import Counter
from typing import Hashable, Sequence

from repro.exceptions import DatasetError


def _positions(order: Sequence[Hashable]) -> dict[Hashable, int]:
    return {item: index for index, item in enumerate(order)}


def _tied_pairs(values) -> int:
    """Number of unordered pairs whose two entries are equal."""
    return sum(count * (count - 1) // 2 for count in Counter(values).values())


def _discordant_pairs(ys: Sequence[float]) -> int:
    """Pairs ``i < j`` with ``ys[i] > ys[j]`` (strictly), counted by insertion."""
    seen: list[float] = []
    discordant = 0
    for y in ys:
        discordant += len(seen) - bisect_right(seen, y)
        insort(seen, y)
    return discordant


def _tau_b(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Kendall Tau-b of two paired samples; NaN when either one is all ties.

    With the pairs sorted by ``(x, y)``, a discordant pair is exactly a strict
    inversion of the ``y`` column.  The final expression divides by the two
    square roots one after the other; that order is part of the contract.
    """
    if any(value != value for value in (*xs, *ys)):
        return math.nan
    pairs = sorted(zip(xs, ys))
    size = len(pairs)
    total = size * (size - 1) // 2
    x_ties = _tied_pairs(xs)
    y_ties = _tied_pairs(ys)
    if x_ties == total or y_ties == total:
        return math.nan
    joint_ties = _tied_pairs(pairs)
    discordant = _discordant_pairs([y for _, y in pairs])
    con_minus_dis = total - x_ties - y_ties + joint_ties - 2 * discordant
    tau = con_minus_dis / math.sqrt(total - x_ties) / math.sqrt(total - y_ties)
    return min(1.0, max(-1.0, tau))


def _average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks; tied values share the mean of the ranks they span."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    start = 0
    while start < len(order):
        end = start
        while end + 1 < len(order) and values[order[end + 1]] == values[order[start]]:
            end += 1
        for position in order[start : end + 1]:
            ranks[position] = (start + end) / 2 + 1
        start = end + 1
    return ranks


def kendall_tau_b(
    predicted_order: Sequence[Hashable],
    true_order: Sequence[Hashable],
) -> float:
    """Kendall Tau-b correlation between two orderings of the same items.

    Both arguments are item sequences from best (rank 1) to worst.  Items that
    appear in only one of the two orderings are ignored — this is how a
    predicted sort with dropped items is scored *after* the caller has decided
    how to handle the drops (Table 2 inserts them at random positions first).

    Returns a value in [-1, 1]; 1 means identical orderings.
    """
    true_positions = _positions(true_order)
    shared = [item for item in predicted_order if item in true_positions]
    if len(shared) < 2:
        raise DatasetError("need at least two shared items to compare rankings")
    predicted_ranks = list(range(len(shared)))
    true_ranks = [true_positions[item] for item in shared]
    return _tau_b(predicted_ranks, true_ranks)


def kendall_tau_b_from_scores(
    predicted_scores: dict[Hashable, float],
    true_order: Sequence[Hashable],
) -> float:
    """Kendall Tau-b between score-induced ranking (ties allowed) and a true order.

    The rating-based sorting strategy produces integer scores with many ties;
    scoring those against the ground truth requires the tie-aware Tau-b
    variant, so this helper passes the raw scores through directly.
    """
    true_positions = _positions(true_order)
    shared = [item for item in predicted_scores if item in true_positions]
    if len(shared) < 2:
        raise DatasetError("need at least two shared items to compare rankings")
    # Higher score = better rank, so negate to align directions with positions.
    predicted = [-predicted_scores[item] for item in shared]
    truth = [true_positions[item] for item in shared]
    return _tau_b(predicted, truth)


def spearman_rho(
    predicted_order: Sequence[Hashable],
    true_order: Sequence[Hashable],
) -> float:
    """Spearman rank correlation between two orderings of the same items.

    The Pearson correlation of the two average-rank vectors; NaN when either
    one is constant.
    """
    true_positions = _positions(true_order)
    shared = [item for item in predicted_order if item in true_positions]
    if len(shared) < 2:
        raise DatasetError("need at least two shared items to compare rankings")
    predicted_ranks = list(range(len(shared)))
    true_ranks = [true_positions[item] for item in shared]
    try:
        return statistics.correlation(
            _average_ranks(predicted_ranks), _average_ranks(true_ranks)
        )
    except statistics.StatisticsError:
        return math.nan


def ranking_alignment(
    predicted_order: Sequence[Hashable],
    true_order: Sequence[Hashable],
) -> float:
    """Fraction of item pairs ordered consistently with the ground truth.

    A simple, always-defined alternative to Tau-b (it equals ``(tau + 1) / 2``
    in the absence of ties) that is convenient for property-based tests.
    """
    true_positions = _positions(true_order)
    shared = [item for item in predicted_order if item in true_positions]
    if len(shared) < 2:
        return 1.0
    agreements = 0
    total = 0
    for i in range(len(shared)):
        for j in range(i + 1, len(shared)):
            total += 1
            if true_positions[shared[i]] < true_positions[shared[j]]:
                agreements += 1
    return agreements / total
