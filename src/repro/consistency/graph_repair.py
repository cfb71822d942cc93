"""Evidence-based repair of match graphs.

The paper's Table 3 strategy only flips "No" edges to "Yes" based on
transitive evidence.  Its discussion ("as future work, ... consider flipping
both 'yes' and 'no' edges based on whether there is enough evidence in the
opposite direction") suggests a symmetric repair; :func:`repair_with_evidence`
implements that extension: for every judged pair it counts the paths of
positive evidence and the direct negative evidence and flips whichever side is
outweighed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from repro.consistency.transitivity import MatchGraph


@dataclass
class EvidenceRepairResult:
    """Outcome of an evidence-based repair pass.

    Attributes:
        matches: final set of unordered pairs considered duplicates.
        flipped_to_match: pairs originally judged "No" that the repair flipped.
        flipped_to_non_match: pairs originally judged "Yes" that the repair
            demoted because the surrounding evidence contradicted them.
    """

    matches: set[frozenset[Hashable]] = field(default_factory=set)
    flipped_to_match: set[frozenset[Hashable]] = field(default_factory=set)
    flipped_to_non_match: set[frozenset[Hashable]] = field(default_factory=set)


def _common_neighbor_support(
    graph: MatchGraph, left: Hashable, right: Hashable
) -> int:
    """Number of two-hop positive paths between two records."""
    shared = (graph.neighbors(left) - {right}) & (graph.neighbors(right) - {left})
    return len(shared)


def repair_with_evidence(
    graph: MatchGraph,
    *,
    flip_no_threshold: int = 1,
    flip_yes_threshold: int = 2,
    flip_yes: bool = False,
) -> EvidenceRepairResult:
    """Repair a match graph using transitive evidence.

    Args:
        graph: the judged match graph.
        flip_no_threshold: a "No" pair is flipped to a match when it is
            connected through the match graph (transitivity) or supported by at
            least this many common matched neighbors.
        flip_yes_threshold: a "Yes" edge is demoted when the pair has a direct
            negative judgment recorded *and* fewer than this many common
            matched neighbors support it (only when ``flip_yes`` is enabled).
        flip_yes: whether to also demote weakly-supported positive edges (the
            paper's future-work extension; off by default to match Table 3).

    Returns:
        An :class:`EvidenceRepairResult` with the repaired match set.
    """
    matches: set[frozenset[Hashable]] = set()
    flipped_to_match: set[frozenset[Hashable]] = set()
    flipped_to_non_match: set[frozenset[Hashable]] = set()

    # Start from all direct positive judgments.
    nodes = graph.nodes
    for index, left in enumerate(nodes):
        for right in nodes[index + 1 :]:
            if graph.has_match_edge(left, right):
                matches.add(frozenset((left, right)))

    # Optionally demote positive edges contradicted by negative evidence.
    if flip_yes:
        for pair in list(matches):
            left, right = tuple(pair)
            if not graph.has_non_match(left, right):
                continue
            support = _common_neighbor_support(graph, left, right)
            if support < flip_yes_threshold - 1:
                matches.discard(pair)
                flipped_to_non_match.add(pair)

    # Flip negative judgments connected by transitive positive evidence.
    for index, left in enumerate(nodes):
        for right in nodes[index + 1 :]:
            pair = frozenset((left, right))
            if pair in matches or not graph.has_non_match(left, right):
                continue
            if pair in flipped_to_non_match:
                # Already demoted above; do not immediately re-promote it.
                continue
            support = _common_neighbor_support(graph, left, right)
            if graph.connected(left, right) or support >= flip_no_threshold:
                matches.add(pair)
                flipped_to_match.add(pair)

    return EvidenceRepairResult(
        matches=matches,
        flipped_to_match=flipped_to_match,
        flipped_to_non_match=flipped_to_non_match,
    )
