"""Cross-cutting integration matrix: every algorithm x every graph family.

One canonical workload per family; every coloring algorithm in the
library must produce a valid output (proper, within its palette) on each.
"""

import pytest

from repro.adversaries import StaticStreamAdversary, run_adversarial_game
from repro.baselines import (
    ColorReductionColoring,
    PaletteSparsificationColoring,
    SketchSwitchingQuadraticColoring,
    TwoPassQuadraticColoring,
)
from repro.core import (
    DeterministicColoring,
    DeterministicListColoring,
    LowRandomnessRobustColoring,
    RobustColoring,
)
from repro.graph.coloring import validate_coloring
from repro.graph.generators import (
    clique_blowup_graph,
    complete_graph,
    cycle_graph,
    gnp_random_graph,
    random_bipartite_graph,
    random_max_degree_graph,
    star_graph,
)
from repro.streaming.stream import stream_from_graph, stream_with_lists

FAMILIES = {
    "random_bounded": random_max_degree_graph(36, 6, seed=201),
    "gnp": gnp_random_graph(30, 0.2, seed=202),
    "bipartite": random_bipartite_graph(32, 5, seed=203),
    "clique_blowup": clique_blowup_graph(24, 6),
    "cycle": cycle_graph(15),
    "star": star_graph(12),
    "complete": complete_graph(7),
}


def family_cases():
    for name, graph in FAMILIES.items():
        delta = max(1, graph.max_degree())
        yield pytest.param(graph, delta, id=name)


class TestMultipassAlgorithms:
    @pytest.mark.parametrize("graph,delta", family_cases())
    def test_deterministic_hash_family(self, graph, delta):
        algo = DeterministicColoring(graph.n, delta)
        coloring = algo.run(stream_from_graph(graph))
        validate_coloring(graph, coloring, palette_size=delta + 1)

    @pytest.mark.parametrize("graph,delta", family_cases())
    def test_deterministic_greedy_slack(self, graph, delta):
        algo = DeterministicColoring(graph.n, delta, selection="greedy_slack")
        coloring = algo.run(stream_from_graph(graph))
        validate_coloring(graph, coloring, palette_size=delta + 1)

    @pytest.mark.parametrize("graph,delta", family_cases())
    def test_list_coloring_canonical_lists(self, graph, delta):
        universe = delta + 3
        lists = {
            v: set(range(1, graph.degree(v) + 2)) for v in range(graph.n)
        }
        algo = DeterministicListColoring(graph.n, delta, universe)
        coloring = algo.run(stream_with_lists(graph, lists))
        validate_coloring(graph, coloring, lists=lists)

    @pytest.mark.parametrize("graph,delta", family_cases())
    def test_quadratic_baseline(self, graph, delta):
        algo = TwoPassQuadraticColoring(graph.n, delta)
        coloring = algo.run(stream_from_graph(graph))
        validate_coloring(graph, coloring, palette_size=algo.palette_size)

    @pytest.mark.parametrize("graph,delta", family_cases())
    def test_color_reduction_baseline(self, graph, delta):
        algo = ColorReductionColoring(graph.n, delta)
        coloring = algo.run(stream_from_graph(graph))
        validate_coloring(graph, coloring)
        assert max(coloring.values()) <= algo.final_palette_bound

    @pytest.mark.parametrize("graph,delta", family_cases())
    def test_palette_sparsification_baseline(self, graph, delta):
        algo = PaletteSparsificationColoring(graph.n, delta, seed=204)
        coloring = algo.run(stream_from_graph(graph))
        validate_coloring(graph, coloring, palette_size=delta + 1)


class TestOnePassAlgorithms:
    @pytest.mark.parametrize("graph,delta", family_cases())
    def test_robust(self, graph, delta):
        algo = RobustColoring(graph.n, delta, seed=205)
        result = run_adversarial_game(
            algo, StaticStreamAdversary(graph.edge_list()),
            n=graph.n, delta=delta, rounds=graph.m, query_every=4,
        )
        assert result.clean

    @pytest.mark.parametrize("graph,delta", family_cases())
    def test_robust_beta_third(self, graph, delta):
        algo = RobustColoring(graph.n, delta, seed=206, beta=1 / 3)
        result = run_adversarial_game(
            algo, StaticStreamAdversary(graph.edge_list()),
            n=graph.n, delta=delta, rounds=graph.m, query_every=4,
        )
        assert result.clean

    @pytest.mark.parametrize("graph,delta", family_cases())
    def test_lowrandom(self, graph, delta):
        algo = LowRandomnessRobustColoring(graph.n, delta, seed=207)
        result = run_adversarial_game(
            algo, StaticStreamAdversary(graph.edge_list()),
            n=graph.n, delta=delta, rounds=graph.m, query_every=4,
        )
        assert result.clean

    @pytest.mark.parametrize("graph,delta", family_cases())
    def test_cgs22(self, graph, delta):
        algo = SketchSwitchingQuadraticColoring(graph.n, delta, seed=208)
        result = run_adversarial_game(
            algo, StaticStreamAdversary(graph.edge_list()),
            n=graph.n, delta=delta, rounds=graph.m, query_every=4,
        )
        assert result.clean
