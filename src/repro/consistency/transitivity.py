"""Transitivity over duplicate judgments.

The entity-resolution case study (Table 3) flips "No" answers to "Yes"
whenever the two records are connected by a path of "Yes" edges — i.e. it
takes the transitive closure of the match graph.  :class:`MatchGraph` stores
the pairwise judgments and exposes exactly that operation, plus the connected
components used to turn pairwise matches into entity clusters.
"""

from __future__ import annotations

from typing import Hashable, Iterable


class MatchGraph:
    """An undirected graph of match ("Yes") judgments over records.

    Nodes are record identifiers (any hashable); an edge means some task
    judged the two records duplicates.  Non-match judgments are tracked
    separately so that evidence-based repair can reason about both kinds.

    The graph is an insertion-ordered adjacency map plus a union-find over
    the match edges, so :meth:`connected` answers in near-constant time
    instead of searching a path per query.
    """

    def __init__(self) -> None:
        self._adjacency: dict[Hashable, set[Hashable]] = {}
        self._parent: dict[Hashable, Hashable] = {}
        self._non_matches: set[frozenset[Hashable]] = set()

    def add_node(self, node: Hashable) -> None:
        """Ensure a record participates in the graph even with no judgments."""
        if node not in self._adjacency:
            self._adjacency[node] = set()
            self._parent[node] = node

    def add_match(self, left: Hashable, right: Hashable) -> None:
        """Record a positive (duplicate) judgment."""
        self.add_node(left)
        self.add_node(right)
        self._adjacency[left].add(right)
        self._adjacency[right].add(left)
        left_root, right_root = self._find(left), self._find(right)
        if left_root != right_root:
            self._parent[right_root] = left_root

    def add_non_match(self, left: Hashable, right: Hashable) -> None:
        """Record a negative (not duplicate) judgment."""
        self.add_node(left)
        self.add_node(right)
        self._non_matches.add(frozenset((left, right)))

    def _find(self, node: Hashable) -> Hashable:
        """The union-find root of ``node``, halving the path on the way."""
        parent = self._parent
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    # -- queries ---------------------------------------------------------------

    @property
    def nodes(self) -> list[Hashable]:
        """Every record, in the order it first entered the graph."""
        return list(self._adjacency)

    def neighbors(self, node: Hashable) -> set[Hashable]:
        """Records with a direct positive judgment against ``node``."""
        return set(self._adjacency.get(node, ()))

    def has_match_edge(self, left: Hashable, right: Hashable) -> bool:
        """Whether a direct positive judgment exists between two records."""
        return right in self._adjacency.get(left, ())

    def has_non_match(self, left: Hashable, right: Hashable) -> bool:
        """Whether a direct negative judgment exists between two records."""
        return frozenset((left, right)) in self._non_matches

    def connected(self, left: Hashable, right: Hashable) -> bool:
        """Whether a path of positive judgments connects the two records."""
        if left not in self._parent or right not in self._parent:
            return False
        return self._find(left) == self._find(right)

    def components(self) -> list[set[Hashable]]:
        """Connected components of the match graph (the inferred entities).

        Ordered by each component's earliest-inserted record.
        """
        by_root: dict[Hashable, set[Hashable]] = {}
        for node in self._adjacency:
            by_root.setdefault(self._find(node), set()).add(node)
        return list(by_root.values())

    def transitive_matches(self) -> set[frozenset[Hashable]]:
        """All unordered pairs connected by the transitive closure."""
        closure: set[frozenset[Hashable]] = set()
        for component in self.components():
            members = list(component)
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    closure.add(frozenset((members[i], members[j])))
        return closure

    def conflicts(self) -> list[frozenset[Hashable]]:
        """Negative judgments contradicted by the transitive closure.

        These are exactly the pairs the paper's strategy flips from "No" to
        "Yes"; returning them explicitly lets callers audit the repair.
        """
        return [
            pair
            for pair in self._non_matches
            if len(pair) == 2 and self.connected(*pair)
        ]


def connected_components(edges: Iterable[tuple[Hashable, Hashable]]) -> list[set[Hashable]]:
    """Connected components of an undirected edge list."""
    return _graph_of(edges).components()


def transitive_closure_pairs(
    edges: Iterable[tuple[Hashable, Hashable]]
) -> set[frozenset[Hashable]]:
    """All unordered pairs connected by paths through ``edges``."""
    return _graph_of(edges).transitive_matches()


def _graph_of(edges: Iterable[tuple[Hashable, Hashable]]) -> MatchGraph:
    graph = MatchGraph()
    for left, right in edges:
        graph.add_match(left, right)
    return graph
