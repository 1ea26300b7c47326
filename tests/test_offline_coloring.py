"""Unit tests for offline coloring subroutines (repro.graph.coloring)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.exceptions import (
    ImproperColoringError,
    ListViolationError,
    PaletteExceededError,
    ReproError,
)
from repro.graph.coloring import (
    complete_partial_coloring,
    first_missing_positive,
    greedy_coloring,
    is_proper_coloring,
    monochromatic_edges,
    num_colors_used,
    validate_coloring,
)
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    gnp_random_graph,
    star_graph,
)
from repro.graph.graph import Graph


def small_graphs():
    """A deterministic mix of structured and random graphs for loops."""
    return [
        Graph(1),
        Graph(5),
        complete_graph(6),
        cycle_graph(7),
        star_graph(9),
        gnp_random_graph(20, 0.3, seed=1),
        gnp_random_graph(30, 0.1, seed=2),
    ]


class TestFirstMissing:
    def test_empty(self):
        assert first_missing_positive(set()) == 1

    def test_gap(self):
        assert first_missing_positive({1, 2, 4}) == 3

    def test_contiguous(self):
        assert first_missing_positive({1, 2, 3}) == 4


class TestGreedy:
    def test_proper_on_all_families(self):
        for g in small_graphs():
            coloring = greedy_coloring(g)
            assert is_proper_coloring(g, coloring)
            assert num_colors_used(coloring) <= g.max_degree() + 1

    def test_complete_graph_uses_n_colors(self):
        g = complete_graph(5)
        assert num_colors_used(greedy_coloring(g)) == 5

    def test_respects_order(self):
        g = Graph(3, edges=[(0, 1)])
        coloring = greedy_coloring(g, order=[1, 0, 2])
        assert coloring[1] == 1
        assert coloring[0] == 2

    def test_palette_cap_enforced(self):
        g = complete_graph(4)
        with pytest.raises(PaletteExceededError):
            greedy_coloring(g, palette_size=3)

    @given(st.integers(0, 40), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_random_graphs_delta_plus_one(self, n, seed):
        g = gnp_random_graph(n, 0.25, seed=seed)
        coloring = greedy_coloring(g)
        assert is_proper_coloring(g, coloring)
        assert num_colors_used(coloring) <= g.max_degree() + 1


class TestCompletePartial:
    def test_completes_remaining(self):
        g = cycle_graph(5)
        coloring = {0: 1, 1: 2}
        lists = {v: set(range(1, g.degree(v) + 2)) for v in range(g.n)}
        complete_partial_coloring(coloring, [2, 3, 4], g.neighbors, lists.get)
        assert is_proper_coloring(g, coloring)
        assert all(coloring.get(v) is not None for v in range(5))

    def test_respects_existing_colors(self):
        g = Graph(2, edges=[(0, 1)])
        coloring = {0: 1}
        complete_partial_coloring(coloring, [1], g.neighbors, {1: {1, 2}}.get)
        assert coloring[1] == 2

    def test_no_free_color_raises(self):
        g = Graph(2, edges=[(0, 1)])
        coloring = {0: 1}
        with pytest.raises(ReproError, match="no free color for vertex 1"):
            complete_partial_coloring(coloring, [1], g.neighbors, lambda _: {1})


class TestValidation:
    def test_detects_monochromatic(self):
        g = Graph(2, edges=[(0, 1)])
        assert not is_proper_coloring(g, {0: 1, 1: 1})
        assert monochromatic_edges(g, {0: 1, 1: 1}) == [(0, 1)]

    def test_partial_is_proper(self):
        g = Graph(2, edges=[(0, 1)])
        assert is_proper_coloring(g, {0: 1})

    def test_validate_raises_improper(self):
        g = Graph(2, edges=[(0, 1)])
        with pytest.raises(ImproperColoringError):
            validate_coloring(g, {0: 3, 1: 3})

    def test_validate_raises_uncolored(self):
        g = Graph(2, edges=[(0, 1)])
        with pytest.raises(ReproError):
            validate_coloring(g, {0: 1})

    def test_validate_partial_allowed(self):
        g = Graph(2, edges=[(0, 1)])
        validate_coloring(g, {0: 1}, require_total=False)

    def test_validate_palette(self):
        g = Graph(2, edges=[(0, 1)])
        with pytest.raises(PaletteExceededError):
            validate_coloring(g, {0: 1, 1: 5}, palette_size=4, require_total=True)
        validate_coloring(g, {0: 1, 1: 4}, palette_size=4)

    def test_validate_lists(self):
        g = Graph(2, edges=[(0, 1)])
        lists = {0: {1}, 1: {2}}
        validate_coloring(g, {0: 1, 1: 2}, lists=lists)
        with pytest.raises(ListViolationError):
            validate_coloring(g, {0: 1, 1: 3}, lists={0: {1}, 1: {2}})

    def test_num_colors_ignores_none(self):
        assert num_colors_used({0: 1, 1: None, 2: 2, 3: 1}) == 2
