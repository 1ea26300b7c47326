"""Integration tests for Algorithm 3 (Theorem 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversaries import (
    ConflictSeekingAdversary,
    RandomAdversary,
    StaticStreamAdversary,
    run_adversarial_game,
)
from repro.common.exceptions import AlgorithmFailure, ReproError
from repro.core.robust_lowrandom import LowRandomnessRobustColoring
from repro.graph.generators import random_max_degree_graph


class TestStructure:
    def test_ell_is_power_of_two(self):
        for delta, ell in [(1, 1), (2, 2), (3, 2), (7, 4), (8, 8), (100, 64)]:
            algo = LowRandomnessRobustColoring(10, delta, seed=1)
            assert algo.ell == ell
            assert algo.range_size == ell * ell

    def test_palette_size(self):
        algo = LowRandomnessRobustColoring(10, 8, seed=1)
        assert algo.palette_size == 9 * 64

    def test_repetitions_default(self):
        algo = LowRandomnessRobustColoring(64, 4, seed=1)
        assert algo.repetitions == 10 * 6  # 10 * ceil(log2 64)

    def test_invalid_delta(self):
        with pytest.raises(ReproError):
            LowRandomnessRobustColoring(10, 0, seed=1)

    def test_randomness_is_polylog_per_function(self):
        """Seeds, not tables: random bits ~ Delta * P * 4 log p (Lemma 4.10)."""
        n, delta = 200, 8
        algo = LowRandomnessRobustColoring(n, delta, seed=2)
        expected = delta * algo.repetitions * algo.family.seed_bits()
        assert algo.random_bits_used == expected
        # Far less than the Theorem-3 oracle's ~n*Delta bits at this size.
        assert algo.random_bits_used < n * delta * 16


class TestColorings:
    def test_static_stream_all_prefixes(self):
        n, delta = 40, 6
        g = random_max_degree_graph(n, delta, seed=61)
        algo = LowRandomnessRobustColoring(n, delta, seed=62)
        adv = StaticStreamAdversary(g.edge_list())
        result = run_adversarial_game(algo, adv, n=n, delta=delta,
                                      rounds=g.m, query_every=5)
        assert result.clean

    def test_colors_within_palette(self):
        n, delta = 30, 5
        g = random_max_degree_graph(n, delta, seed=63)
        algo = LowRandomnessRobustColoring(n, delta, seed=64)
        algo.process_block(np.asarray(g.edge_list()))
        coloring = algo.query()
        assert all(1 <= c <= algo.palette_size for c in coloring.values())

    @pytest.mark.parametrize("adversary_cls", [
        ConflictSeekingAdversary, RandomAdversary,
    ])
    def test_adaptive_never_errs(self, adversary_cls):
        n, delta = 40, 8
        algo = LowRandomnessRobustColoring(n, delta, seed=65)
        adv = adversary_cls(seed=66)
        result = run_adversarial_game(algo, adv, n=n, delta=delta,
                                      rounds=(n * delta) // 3, query_every=4)
        assert result.clean

    @given(st.integers(0, 10**6))
    @settings(max_examples=6, deadline=None)
    def test_property_random_seeds(self, seed):
        n, delta = 24, 5
        algo = LowRandomnessRobustColoring(n, delta, seed=seed)
        adv = ConflictSeekingAdversary(seed=seed + 7)
        result = run_adversarial_game(algo, adv, n=n, delta=delta,
                                      rounds=n, query_every=3)
        assert result.clean


class TestOverflowHandling:
    def test_failure_when_all_sketches_wiped(self):
        """Force overflow with repetitions=1 and a tiny cap."""
        n = 12
        algo = LowRandomnessRobustColoring(n, delta=2, seed=67, repetitions=1)
        algo.overflow_cap = 0  # every monochromatic edge wipes the sketch
        # Drive into epoch 2 so D_2 (filled during epoch 1) matters.
        edges = [(i, (i + 1) % n) for i in range(n)]  # cycle: n edges = buffer
        extra = [(i, (i + 2) % n) for i in range(n)]
        mono_seen = False
        failed = False
        algo.process_block(np.array(edges + extra))
        if algo.surviving_sketches() == 0:
            mono_seen = True
            with pytest.raises(AlgorithmFailure):
                algo.query()
            failed = True
        # Either some sketch survived (fine) or failure was raised cleanly.
        assert mono_seen == failed

    def test_surviving_sketches_accessor(self):
        algo = LowRandomnessRobustColoring(20, 4, seed=68)
        assert algo.surviving_sketches() == algo.repetitions
