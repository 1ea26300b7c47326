"""Unit tests for degeneracy machinery, cross-checked against networkx."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.coloring import is_proper_coloring, num_colors_used
from repro.graph.degeneracy import degeneracy, degeneracy_coloring, degeneracy_ordering
from repro.graph.generators import (
    clique_blowup_graph,
    complete_graph,
    cycle_graph,
    gnp_random_graph,
    path_graph,
    star_graph,
)
from repro.graph.graph import Graph


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


class TestDegeneracyValue:
    def test_empty_graph(self):
        assert degeneracy(Graph(5)) == 0

    def test_path(self):
        assert degeneracy(path_graph(10)) == 1

    def test_cycle(self):
        assert degeneracy(cycle_graph(10)) == 2

    def test_complete(self):
        assert degeneracy(complete_graph(7)) == 6

    def test_star(self):
        assert degeneracy(star_graph(10)) == 1

    def test_clique_blowup(self):
        assert degeneracy(clique_blowup_graph(20, 5)) == 4

    @given(st.integers(1, 40), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_matches_networkx_core_number(self, n, seed):
        g = gnp_random_graph(n, 0.2, seed=seed)
        expected = max(nx.core_number(to_networkx(g)).values(), default=0)
        assert degeneracy(g) == expected


class TestOrderingProperty:
    @given(st.integers(1, 30), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_back_degree_bounded(self, n, seed):
        """Each vertex has <= kappa neighbors later in the ordering."""
        g = gnp_random_graph(n, 0.25, seed=seed)
        order, kappa = degeneracy_ordering(g)
        assert sorted(order) == list(range(n))
        position = {v: i for i, v in enumerate(order)}
        for v in range(n):
            later = sum(1 for w in g.neighbors(v) if position[w] > position[v])
            assert later <= kappa


class TestDegeneracyColoring:
    def test_proper_and_bounded(self):
        for g in [
            path_graph(10),
            cycle_graph(9),
            complete_graph(6),
            clique_blowup_graph(18, 6),
            gnp_random_graph(40, 0.15, seed=7),
        ]:
            coloring = degeneracy_coloring(g)
            assert is_proper_coloring(g, coloring)
            assert num_colors_used(coloring) <= degeneracy(g) + 1

    def test_planar_like_sparse_graph_few_colors(self):
        # A tree has degeneracy 1 -> 2 colors, regardless of max degree.
        g = star_graph(50)
        assert num_colors_used(degeneracy_coloring(g)) <= 2

    @given(st.integers(1, 35), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_random_graphs(self, n, seed):
        g = gnp_random_graph(n, 0.3, seed=seed)
        coloring = degeneracy_coloring(g)
        assert is_proper_coloring(g, coloring)
        assert num_colors_used(coloring) <= degeneracy(g) + 1
