"""Unit tests for the Graph data structure."""

import pytest

from repro.common.exceptions import ReproError
from repro.graph.graph import Graph


class TestConstruction:
    def test_empty(self):
        g = Graph(0)
        assert g.n == 0
        assert g.m == 0
        assert g.max_degree() == 0

    def test_with_edges(self):
        g = Graph(3, edges=[(0, 1), (1, 2)])
        assert g.m == 2
        assert g.has_edge(0, 1)
        assert g.has_edge(2, 1)

    def test_negative_n_rejected(self):
        with pytest.raises(ReproError):
            Graph(-1)


class TestMutation:
    def test_add_edge_symmetric(self):
        g = Graph(4)
        assert g.add_edge(2, 3)
        assert g.has_edge(3, 2)

    def test_duplicate_edge_returns_false(self):
        g = Graph(3)
        assert g.add_edge(0, 1)
        assert not g.add_edge(1, 0)
        assert g.m == 1

    def test_self_loop_rejected(self):
        g = Graph(3)
        with pytest.raises(ReproError):
            g.add_edge(1, 1)

    def test_out_of_range_rejected(self):
        g = Graph(3)
        with pytest.raises(ReproError):
            g.add_edge(0, 3)


class TestQueries:
    def test_degrees(self):
        g = Graph(4, edges=[(0, 1), (0, 2), (0, 3)])
        assert g.degree(0) == 3
        assert g.degree(1) == 1
        assert g.max_degree() == 3

    def test_edges_canonical_orientation(self):
        g = Graph(4, edges=[(3, 1), (2, 0)])
        assert sorted(g.edges()) == [(0, 2), (1, 3)]

    def test_edge_list_matches_m(self):
        g = Graph(5, edges=[(0, 1), (2, 3), (3, 4)])
        assert len(g.edge_list()) == g.m


class TestDerivedGraphs:
    def test_copy_is_independent(self):
        g = Graph(3, edges=[(0, 1)])
        h = g.copy()
        h.add_edge(1, 2)
        assert g.m == 1
        assert h.m == 2
