"""``MatchGraph`` against a NetworkX-built reference, used only as an oracle.

``repro.consistency.transitivity`` once wrapped ``networkx.Graph``; these
properties pin the dict-of-sets plus union-find replacement to it on random
operation sequences: node order, component order and contents, reachability,
the transitive closure and the conflicting non-matches.  The module is
skipped where NetworkX is not installed.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consistency.transitivity import (
    MatchGraph,
    connected_components,
    transitive_closure_pairs,
)

nx = pytest.importorskip("networkx")

_node = st.one_of(st.integers(min_value=0, max_value=9), st.sampled_from("abcde"))
_operation = st.tuples(st.sampled_from(["node", "match", "non_match"]), _node, _node)
_operations = st.lists(_operation, max_size=40)


class _Reference:
    """The pre-removal ``MatchGraph`` semantics, computed with NetworkX."""

    def __init__(self, operations):
        self.graph = nx.Graph()
        self.non_matches = set()
        for kind, left, right in operations:
            if kind == "node":
                self.graph.add_node(left)
            elif kind == "match":
                self.graph.add_edge(left, right)
            else:
                self.graph.add_node(left)
                self.graph.add_node(right)
                self.non_matches.add(frozenset((left, right)))

    def components(self):
        return [set(component) for component in nx.connected_components(self.graph)]

    def connected(self, left, right):
        if left not in self.graph or right not in self.graph:
            return False
        return left == right or nx.has_path(self.graph, left, right)

    def transitive_matches(self):
        closure = set()
        for component in self.components():
            for pair in itertools.combinations(component, 2):
                closure.add(frozenset(pair))
        return closure

    def conflicts(self):
        closure = self.transitive_matches()
        return [pair for pair in self.non_matches if pair in closure]


def _build(operations) -> MatchGraph:
    graph = MatchGraph()
    for kind, left, right in operations:
        if kind == "node":
            graph.add_node(left)
        elif kind == "match":
            graph.add_match(left, right)
        else:
            graph.add_non_match(left, right)
    return graph


@given(_operations)
@settings(max_examples=300)
def test_match_graph_equals_networkx_reference(operations):
    graph, reference = _build(operations), _Reference(operations)
    assert graph.nodes == list(reference.graph.nodes)
    assert graph.components() == reference.components()
    assert graph.transitive_matches() == reference.transitive_matches()
    assert graph.conflicts() == reference.conflicts()
    probes = graph.nodes + ["absent"]
    for left, right in itertools.product(probes, repeat=2):
        assert graph.connected(left, right) == reference.connected(left, right)
        assert graph.has_match_edge(left, right) == reference.graph.has_edge(left, right)
    for node in probes:
        expected = set(reference.graph.adj[node]) if node in reference.graph else set()
        assert graph.neighbors(node) == expected


@given(st.lists(st.tuples(_node, _node), max_size=30))
@settings(max_examples=200)
def test_edge_list_helpers_equal_networkx(edges):
    reference = nx.Graph()
    reference.add_edges_from(edges)
    assert connected_components(edges) == [
        set(component) for component in nx.connected_components(reference)
    ]
    assert transitive_closure_pairs(edges) == _Reference(
        [("match", left, right) for left, right in edges]
    ).transitive_matches()
