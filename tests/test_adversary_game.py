"""Unit tests for adversary strategies and the game loop."""

import numpy as np
import pytest

from repro.adversaries.game import GameResult, run_adversarial_game
from repro.adversaries.strategies import (
    ConflictSeekingAdversary,
    LevelAwareAdversary,
    RandomAdversary,
    StaticStreamAdversary,
)
from repro.common.exceptions import AdversaryError
from repro.graph.graph import Graph
from repro.streaming.model import OnePassAlgorithm


class PerfectOfflineAlgorithm(OnePassAlgorithm):
    """Cheating reference: stores the whole graph, recolors greedily."""

    def __init__(self, n):
        super().__init__()
        self._graph = Graph(n)

    def process_block(self, edges):
        for u, v in np.asarray(edges).tolist():
            self._graph.add_edge(u, v)

    def query(self):
        from repro.graph.coloring import greedy_coloring

        coloring = greedy_coloring(self._graph)
        return {v: coloring[v] for v in range(self._graph.n)}


class ConstantAlgorithm(OnePassAlgorithm):
    """Worst possible: colors everything 1.  Errs as soon as an edge exists."""

    def __init__(self, n):
        super().__init__()
        self._n = n

    def process_block(self, edges):
        pass

    def query(self):
        return {v: 1 for v in range(self._n)}


class RecordingAlgorithm(PerfectOfflineAlgorithm):
    """The perfect reference, also keeping every block it is fed."""

    def __init__(self, n):
        super().__init__(n)
        self.blocks = []

    def process_block(self, edges):
        self.blocks.append(np.array(edges))
        super().process_block(edges)


class TestStrategies:
    def test_static_adversary_replays(self):
        adv = StaticStreamAdversary([(0, 1), (1, 2)])
        g = Graph(3)
        assert adv.next_edge(g, {}, delta=2) == (0, 1)
        g.add_edge(0, 1)
        assert adv.next_edge(g, {}, delta=2) == (1, 2)
        g.add_edge(1, 2)
        assert adv.next_edge(g, {}, delta=2) is None

    def test_static_adversary_skips_illegal(self):
        adv = StaticStreamAdversary([(0, 1), (0, 1), (1, 2)])
        g = Graph(3)
        g.add_edge(0, 1)
        assert adv.next_edge(g, {}, delta=2) == (1, 2)

    def test_random_adversary_legal_edges(self):
        adv = RandomAdversary(seed=1)
        g = Graph(10)
        for _ in range(20):
            e = adv.next_edge(g, {}, delta=3)
            if e is None:
                break
            u, v = e
            assert u != v
            assert not g.has_edge(u, v)
            assert g.degree(u) < 3 and g.degree(v) < 3
            g.add_edge(u, v)

    def test_conflict_seeker_finds_monochromatic_pair(self):
        adv = ConflictSeekingAdversary(seed=2)
        g = Graph(6)
        coloring = {0: 1, 1: 1, 2: 2, 3: 2, 4: 3, 5: 4}
        e = adv.next_edge(g, coloring, delta=3)
        assert e is not None
        u, v = e
        assert coloring[u] == coloring[v]

    def test_conflict_seeker_falls_back(self):
        adv = ConflictSeekingAdversary(seed=3)
        g = Graph(4)
        coloring = {0: 1, 1: 2, 2: 3, 3: 4}  # rainbow: no mono pair
        e = adv.next_edge(g, coloring, delta=3)
        assert e is not None  # random fallback still proposes something

    def test_level_aware_prefers_high_degree(self):
        adv = LevelAwareAdversary(seed=4)
        g = Graph(6, edges=[(0, 5), (0, 4), (1, 5)])
        coloring = {v: 1 for v in range(6)}
        e = adv.next_edge(g, coloring, delta=5)
        assert e is not None
        u, v = e
        # vertex 0 (deg 2) should be an endpoint of the chosen pair
        assert g.degree(u) + g.degree(v) >= 2


class TestGameLoop:
    def test_perfect_algorithm_never_errs(self):
        algo = PerfectOfflineAlgorithm(12)
        adv = ConflictSeekingAdversary(seed=5)
        result = run_adversarial_game(algo, adv, n=12, delta=4, rounds=20)
        assert result.clean
        assert result.rounds == 20
        assert result.final_max_degree <= 4

    def test_constant_algorithm_always_errs(self):
        algo = ConstantAlgorithm(8)
        adv = RandomAdversary(seed=6)
        result = run_adversarial_game(algo, adv, n=8, delta=3, rounds=10)
        assert result.errors == result.rounds
        assert not result.clean

    def test_degree_cap_enforced(self):
        class RogueAdversary(RandomAdversary):
            def next_edge(self, graph, coloring, delta):
                return (0, 1 + graph.degree(0))  # keeps hitting vertex 0

        algo = PerfectOfflineAlgorithm(20)
        with pytest.raises(AdversaryError):
            run_adversarial_game(algo, RogueAdversary(seed=1), n=20, delta=2, rounds=10)

    def test_query_every(self):
        algo = PerfectOfflineAlgorithm(10)
        adv = RandomAdversary(seed=7)
        result = run_adversarial_game(algo, adv, n=10, delta=3, rounds=9, query_every=3)
        assert result.clean

    @pytest.mark.parametrize("query_every,sizes", [
        (1, [1] * 10),
        (3, [3, 3, 3, 1]),  # the last edge is flushed after the final query
    ], ids=["every-1", "every-3"])
    def test_insertions_reach_process_block_between_queries(self, query_every,
                                                            sizes):
        edges = [(v, v + 1) for v in range(10)]
        algo = RecordingAlgorithm(12)
        result = run_adversarial_game(
            algo, StaticStreamAdversary(edges), n=12, delta=2, rounds=10,
            query_every=query_every,
        )
        assert result.rounds == 10 and result.clean
        assert [len(block) for block in algo.blocks] == sizes
        assert all(
            block.dtype == np.int64 and block.shape[1] == 2
            for block in algo.blocks
        )
        assert np.concatenate(algo.blocks).tolist() == [list(e) for e in edges]

    def test_result_dataclass(self):
        r = GameResult(rounds=5, errors=0)
        assert r.clean
        r2 = GameResult(rounds=5, errors=1)
        assert not r2.clean
