"""Unit tests for the frozen CSR graph representation."""

import numpy as np
import pytest

from repro.common.exceptions import ReproError
from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    cycle_graph,
    gnp_random_graph,
    near_regular_edge_array,
    star_graph,
)
from repro.graph.graph import Graph


class TestConstruction:
    def test_from_graph_round_trip(self):
        g = gnp_random_graph(25, 0.3, seed=4)
        csr = g.to_csr()
        assert csr.n == g.n and csr.m == g.m
        assert csr.edge_array().tolist() == [list(e) for e in g.edge_list()]

    def test_duplicates_and_orientations_collapse(self):
        csr = CSRGraph.from_edge_array(4, [(0, 1), (1, 0), (0, 1), (2, 3)])
        assert csr.m == 2
        assert csr.edge_array().tolist() == [[0, 1], [2, 3]]

    def test_rejects_self_loop(self):
        with pytest.raises(ReproError):
            CSRGraph.from_edge_array(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ReproError):
            CSRGraph.from_edge_array(3, [(0, 3)])

    def test_empty(self):
        csr = CSRGraph.from_edge_array(5, np.empty((0, 2), dtype=np.int64))
        assert csr.m == 0
        assert csr.max_degree() == 0
        assert csr.degrees.tolist() == [0] * 5


class TestQueries:
    def test_matches_graph_queries(self):
        g = gnp_random_graph(30, 0.25, seed=9)
        csr = g.to_csr()
        assert csr.degrees.tolist() == [g.degree(v) for v in range(g.n)]
        assert csr.max_degree() == g.max_degree()
        for v in range(g.n):
            assert set(csr.neighbors(v).tolist()) == g.neighbors(v)
        for u, v in [(0, 1), (3, 7), (10, 20)]:
            assert csr.has_edge(u, v) == g.has_edge(u, v)

    def test_neighbors_sorted_and_read_only(self):
        csr = star_graph(5).to_csr()
        nbrs = csr.neighbors(0)
        assert nbrs.tolist() == [1, 2, 3, 4]
        with pytest.raises(ValueError):
            nbrs[0] = 9

    def test_edge_array_sorted(self):
        csr = cycle_graph(5).to_csr()
        edges = csr.edge_array().tolist()
        assert edges == sorted(edges)
        assert all(u < v for u, v in edges)


class TestVectorizedGenerators:
    def test_near_regular_degree_cap(self):
        edges = near_regular_edge_array(200, 8, seed=3)
        csr = CSRGraph.from_edge_array(200, edges)
        assert csr.max_degree() <= 8
        # Dedup losses are rare at this density: nearly 8-regular.
        assert csr.degrees.min() >= 6

    def test_near_regular_deterministic(self):
        a = near_regular_edge_array(100, 6, seed=1)
        b = near_regular_edge_array(100, 6, seed=1)
        assert np.array_equal(a, b)
        c = near_regular_edge_array(100, 6, seed=2)
        assert not np.array_equal(a, c)

    def test_near_regular_odd_degree(self):
        edges = near_regular_edge_array(50, 5, seed=7)
        csr = CSRGraph.from_edge_array(50, edges)
        assert csr.max_degree() <= 5


class TestGraphSatellites:
    def test_edge_list_is_sorted(self):
        # Insert in scrambled order; edge_list must still be lexicographic.
        g = Graph(6, [(4, 5), (0, 3), (2, 1), (0, 1), (3, 2)])
        assert g.edge_list() == [(0, 1), (0, 3), (1, 2), (2, 3), (4, 5)]
        assert g.edge_list() == sorted(g.edge_list())

    def test_neighbors_is_read_only(self):
        g = Graph(3, [(0, 1), (0, 2)])
        nbrs = g.neighbors(0)
        assert isinstance(nbrs, frozenset)
        with pytest.raises(AttributeError):
            nbrs.add(5)
        # Mutating a copy does not corrupt the graph.
        assert g.degree(0) == 2

    def test_edge_array(self):
        g = Graph(3, [(1, 2), (0, 1)])
        assert g.edge_array().tolist() == [[0, 1], [1, 2]]
