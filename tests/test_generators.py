"""Unit tests for workload generators."""

import pytest

from repro.graph.generators import (
    clique_blowup_graph,
    complete_graph,
    cycle_graph,
    gnp_random_graph,
    path_graph,
    random_bipartite_graph,
    random_list_assignment,
    random_max_degree_graph,
    shared_neighborhood_graph,
    star_graph,
)


class TestDeterministicFamilies:
    def test_complete(self):
        g = complete_graph(5)
        assert g.m == 10
        assert g.max_degree() == 4

    def test_path(self):
        g = path_graph(5)
        assert g.m == 4
        assert g.max_degree() == 2

    def test_cycle(self):
        g = cycle_graph(5)
        assert g.m == 5
        assert all(g.degree(v) == 2 for v in range(5))

    def test_tiny_cycle_degenerates_to_path(self):
        assert cycle_graph(2).m == 1

    def test_star(self):
        g = star_graph(6)
        assert g.degree(0) == 5
        assert g.m == 5

    def test_clique_blowup_partial_last(self):
        g = clique_blowup_graph(10, 4)
        # cliques {0..3}, {4..7}, {8,9}
        assert g.m == 6 + 6 + 1
        assert g.max_degree() == 3


class TestRandomFamilies:
    def test_gnp_determinism(self):
        g1 = gnp_random_graph(20, 0.3, seed=5)
        g2 = gnp_random_graph(20, 0.3, seed=5)
        assert g1.edge_list() == g2.edge_list()

    def test_gnp_extremes(self):
        assert gnp_random_graph(10, 0.0, seed=1).m == 0
        assert gnp_random_graph(10, 1.0, seed=1).m == 45

    def test_max_degree_cap_respected(self):
        g = random_max_degree_graph(50, 7, seed=3)
        assert g.max_degree() <= 7

    def test_max_degree_reaches_fill(self):
        g = random_max_degree_graph(60, 6, seed=3, fill=0.8)
        assert g.m >= 0.6 * 60 * 6 / 2  # reasonably close to target

    def test_max_degree_requires_room(self):
        with pytest.raises(ValueError):
            random_max_degree_graph(5, 5, seed=1)

    def test_bipartite_is_bipartite(self):
        g = random_bipartite_graph(30, 5, seed=4)
        half = 15
        for u, v in g.edges():
            assert (u < half) != (v < half)
        assert g.max_degree() <= 5


class TestStressFamilies:
    def test_shared_neighborhood_twins(self):
        g = shared_neighborhood_graph(groups=3, group_size=4, hubs=5)
        assert g.n == 17
        # Twins 0 and 1 share exactly the hub neighborhood.
        assert g.neighbors(0) == g.neighbors(1)
        assert all(w >= 12 for w in g.neighbors(0))
        # Hubs see every twin.
        assert g.degree(12) == 12

    def test_shared_neighborhood_colorable_by_algorithms(self):
        from repro.core.deterministic import DeterministicColoring
        from repro.graph.coloring import validate_coloring
        from repro.streaming.stream import stream_from_graph

        g = shared_neighborhood_graph(groups=4, group_size=3, hubs=4)
        delta = g.max_degree()
        algo = DeterministicColoring(g.n, delta)
        coloring = algo.run(stream_from_graph(g))
        validate_coloring(g, coloring, palette_size=delta + 1)


class TestLists:
    def test_sizes_are_deg_plus_one_plus_slack(self):
        g = gnp_random_graph(25, 0.2, seed=9)
        lists = random_list_assignment(g, palette_size=60, seed=2, slack=1)
        for v in range(g.n):
            assert len(lists[v]) == g.degree(v) + 2
            assert all(1 <= c <= 60 for c in lists[v])

    def test_palette_too_small_rejected(self):
        g = complete_graph(5)
        with pytest.raises(ValueError):
            random_list_assignment(g, palette_size=4, seed=1)

    def test_determinism(self):
        g = gnp_random_graph(15, 0.3, seed=1)
        a = random_list_assignment(g, 40, seed=7)
        b = random_list_assignment(g, 40, seed=7)
        assert a == b
