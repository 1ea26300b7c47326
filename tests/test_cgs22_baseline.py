"""Tests for the CGS22-style robust O(Delta^2) @ n*sqrt(Delta) baseline."""

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
from repro.baselines.cgs22 import SketchSwitchingQuadraticColoring
from repro.common.exceptions import ReproError
from repro.graph.generators import random_max_degree_graph


class TestStructure:
    def test_palette_is_quadratic(self):
        algo = SketchSwitchingQuadraticColoring(50, 8, seed=1)
        assert algo.palette_size == 9 * 8  # (Delta+1) * l, l = 8

    def test_buffer_capacity_scales_with_sqrt_delta(self):
        algo = SketchSwitchingQuadraticColoring(50, 16, seed=1)
        assert algo.buffer_capacity == 50 * 4

    def test_invalid_delta(self):
        with pytest.raises(ReproError):
            SketchSwitchingQuadraticColoring(10, 0, seed=1)

    def test_fewer_epochs_than_alg3(self):
        """The bigger buffer means ~sqrt(Delta) epochs, not Delta."""
        algo = SketchSwitchingQuadraticColoring(50, 16, seed=1)
        assert algo.num_epochs <= 4  # ~sqrt(16)/2 + 1


class TestColorings:
    def test_static_stream_prefixes_proper(self):
        n, delta = 40, 9
        g = random_max_degree_graph(n, delta, seed=101)
        algo = SketchSwitchingQuadraticColoring(n, delta, seed=102)
        adv = StaticStreamAdversary(g.edge_list())
        result = run_adversarial_game(algo, adv, n=n, delta=delta,
                                      rounds=g.m, query_every=5)
        assert result.clean

    def test_colors_within_palette(self):
        n, delta = 30, 6
        g = random_max_degree_graph(n, delta, seed=103)
        algo = SketchSwitchingQuadraticColoring(n, delta, seed=104)
        algo.process_block(np.asarray(g.edge_list()))
        coloring = algo.query()
        assert all(1 <= c <= algo.palette_size for c in coloring.values())

    @pytest.mark.parametrize("adversary_cls", [
        ConflictSeekingAdversary, RandomAdversary,
    ])
    def test_adaptive_never_errs(self, adversary_cls):
        n, delta = 36, 8
        algo = SketchSwitchingQuadraticColoring(n, delta, seed=105)
        adv = adversary_cls(seed=106)
        result = run_adversarial_game(algo, adv, n=n, delta=delta,
                                      rounds=(n * delta) // 3, query_every=4)
        assert result.clean

    @given(st.integers(0, 10**6))
    @settings(max_examples=5, deadline=None)
    def test_property_random_seeds(self, seed):
        n, delta = 24, 5
        algo = SketchSwitchingQuadraticColoring(n, delta, seed=seed)
        adv = ConflictSeekingAdversary(seed=seed + 3)
        result = run_adversarial_game(algo, adv, n=n, delta=delta,
                                      rounds=n, query_every=3)
        assert result.clean


class TestSpaceProfile:
    def test_space_within_n_sqrt_delta_budget(self):
        """Total space (sketches x P repetitions + buffer) is ~O(n sqrt(D)).

        The P = 10 lg n repetition factor is the tilde in [CGS22]'s
        ~O(n sqrt(Delta)); assert the full budget
        c * n * sqrt(Delta) * lg(n) * edge_bits.
        """
        import math

        n, delta = 60, 16
        g = random_max_degree_graph(n, delta, seed=107)
        algo = SketchSwitchingQuadraticColoring(n, delta, seed=108)
        algo.process_block(np.asarray(g.edge_list()))
        edge_bits = 2 * math.ceil(math.log2(n))
        budget = 4 * n * math.sqrt(delta) * math.log2(n) * edge_bits
        assert 0 < algo.peak_space_bits <= budget

    def test_randomness_is_small(self):
        algo = SketchSwitchingQuadraticColoring(200, 16, seed=109)
        # Seeds only: num_epochs * P * 4 ceil(lg p) bits.
        expected = algo.num_epochs * algo.repetitions * algo.family.seed_bits()
        assert algo.random_bits_used == expected