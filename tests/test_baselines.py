"""Tests for the baseline algorithms."""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversaries import (
    ConflictSeekingAdversary,
    RandomAdversary,
    run_adversarial_game,
)
from repro.baselines.acs22 import (
    ColorReductionColoring,
    TwoPassQuadraticColoring,
    _MemberCountsConsumer,
    _PartCountsConsumer,
)
from repro.baselines.naive import OneShotRandomColoring
from repro.baselines.palette_sparsification import PaletteSparsificationColoring
from repro.graph.coloring import validate_coloring
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    random_max_degree_graph,
)
from repro.streaming.stream import stream_from_graph


class TestQuadratic:
    def test_proper_within_quadratic_palette(self):
        n, delta = 60, 6
        g = random_max_degree_graph(n, delta, seed=72)
        stream = stream_from_graph(g).as_source(1)
        algo = TwoPassQuadraticColoring(n, delta)
        coloring = algo.run(stream)
        validate_coloring(g, coloring, palette_size=algo.palette_size)
        assert stream.passes_used == 4

    def test_small_structured_graphs(self):
        for g, delta in [(cycle_graph(7), 2), (complete_graph(5), 4)]:
            stream = stream_from_graph(g)
            algo = TwoPassQuadraticColoring(g.n, delta)
            coloring = algo.run(stream)
            validate_coloring(g, coloring, palette_size=algo.palette_size)

    def test_deterministic(self):
        g = random_max_degree_graph(40, 5, seed=73)
        results = []
        for _ in range(2):
            stream = stream_from_graph(g)
            results.append(TwoPassQuadraticColoring(g.n, 5).run(stream))
        assert results[0] == results[1]

    @given(st.integers(0, 10**6))
    @settings(max_examples=8, deadline=None)
    def test_property(self, seed):
        g = random_max_degree_graph(25, 4, seed=seed)
        stream = stream_from_graph(g)
        algo = TwoPassQuadraticColoring(25, 4)
        coloring = algo.run(stream)
        validate_coloring(g, coloring, palette_size=algo.palette_size)


# ----------------------------------------------------------------------
# The per-edge reference: TwoPassQuadraticColoring's first two passes as
# first written, an O(p) numpy update per edge.  The block consumers
# aggregate by edge difference (pass 1) and by circular b-intervals
# (pass 2) and must give the same exact integer counts.
# ----------------------------------------------------------------------
def reference_part_collision_counts(algo, edges):
    """For each part ``a``, ``sum_b #monochromatic edges of h_{a,b}``."""
    p, r = algo.p, algo.range_size
    a = np.arange(1, p, dtype=np.int64)
    totals = np.zeros(p - 1, dtype=np.int64)
    for u, v in edges:
        d = (a * ((v - u) % p)) % p
        collide = (p - d) * (d % r == 0) + d * ((d - p) % r == 0)
        totals += collide
    return totals


def reference_member_collision_counts(algo, edges, a_star):
    """Exact monochromatic-edge count of every ``h_{a*, b}``."""
    p, r = algo.p, algo.range_size
    b = np.arange(p, dtype=np.int64)
    counts = np.zeros(p, dtype=np.int64)
    for u, v in edges:
        t = (a_star * u + b) % p
        fu = t % r
        fv = ((t + a_star * ((v - u) % p)) % p) % r
        counts += fu == fv
    return counts


def fed_in_chunks(consumer, edges, chunk):
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    for start in range(0, len(arr), chunk):
        consumer.feed(arr[start : start + chunk])
    return consumer.finish()


@st.composite
def quadratic_instances(draw):
    n = draw(st.integers(2, 30))
    delta = draw(st.integers(1, 4))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda e: e[0] != e[1]
        ),
        max_size=40,
    ))
    chunk = draw(st.integers(1, 8))
    return TwoPassQuadraticColoring(n, delta), edges, chunk


class TestQuadraticCountsMatchReference:
    @given(quadratic_instances())
    @settings(max_examples=60, deadline=None)
    def test_part_counts(self, instance):
        algo, edges, chunk = instance
        got = fed_in_chunks(_PartCountsConsumer(algo), edges, chunk)
        assert np.array_equal(got, reference_part_collision_counts(algo, edges))

    @given(quadratic_instances(), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_member_counts(self, instance, a_seed):
        algo, edges, chunk = instance
        a_star = 1 + a_seed % (algo.p - 1)
        got = fed_in_chunks(_MemberCountsConsumer(algo, a_star), edges, chunk)
        assert np.array_equal(
            got, reference_member_collision_counts(algo, edges, a_star)
        )


class TestColorReduction:
    def test_reaches_linear_palette(self):
        n, delta = 60, 5
        g = random_max_degree_graph(n, delta, seed=74)
        stream = stream_from_graph(g)
        algo = ColorReductionColoring(n, delta)
        coloring = algo.run(stream)
        validate_coloring(g, coloring)
        assert max(coloring.values()) <= algo.final_palette_bound

    def test_colors_beat_quadratic(self):
        n, delta = 80, 8
        g = random_max_degree_graph(n, delta, seed=75)
        quad = TwoPassQuadraticColoring(n, delta)
        red = ColorReductionColoring(n, delta)
        c_quad = quad.run(stream_from_graph(g))
        c_red = red.run(stream_from_graph(g))
        assert max(c_red.values()) < max(c_quad.values())

    @given(st.integers(0, 10**6))
    @settings(max_examples=6, deadline=None)
    def test_property(self, seed):
        g = random_max_degree_graph(30, 4, seed=seed)
        stream = stream_from_graph(g)
        algo = ColorReductionColoring(30, 4)
        coloring = algo.run(stream)
        validate_coloring(g, coloring)
        assert max(coloring.values()) <= 4 * 5


class TestPaletteSparsification:
    def test_delta_plus_one_on_random_graphs(self):
        n, delta = 50, 7
        g = random_max_degree_graph(n, delta, seed=76)
        stream = stream_from_graph(g).as_source(1)
        algo = PaletteSparsificationColoring(n, delta, seed=77)
        coloring = algo.run(stream)
        validate_coloring(g, coloring, palette_size=delta + 1)
        assert stream.passes_used == 1

    def test_conflict_edges_sublinear_in_m(self):
        # Sparsification only bites when Delta + 1 >> list size, so use a
        # large Delta and the smallest list factor; completion may then
        # fail (lists below the ACK19 constant), which is fine here — the
        # storage rule fires before completion.
        from repro.common.exceptions import AlgorithmFailure

        n, delta = 64, 30
        g = random_max_degree_graph(n, delta, seed=78)
        algo = PaletteSparsificationColoring(n, delta, seed=79,
                                             list_size_factor=1)
        with contextlib.suppress(AlgorithmFailure):
            algo.run(stream_from_graph(g))
        assert 0 < algo.conflict_edge_count < g.m  # sparsification bites

    def test_colors_on_clique(self):
        g = complete_graph(6)
        algo = PaletteSparsificationColoring(6, 5, seed=80)
        coloring = algo.run(stream_from_graph(g))
        validate_coloring(g, coloring, palette_size=6)


class TestOneShotNonRobust:
    def test_clean_on_oblivious_streams(self):
        n, delta = 60, 8
        algo = OneShotRandomColoring(n, delta, seed=81)
        result = run_adversarial_game(
            algo, RandomAdversary(seed=82), n=n, delta=delta, rounds=n,
        )
        assert result.errors == 0

    def test_broken_by_adaptive_adversary(self):
        """The separation the robust algorithms exist for (experiment T6)."""
        n, delta = 60, 8
        algo = OneShotRandomColoring(n, delta, seed=83)
        result = run_adversarial_game(
            algo, ConflictSeekingAdversary(seed=84), n=n, delta=delta,
            rounds=(n * delta) // 3,
        )
        assert result.errors > 0
        assert algo.dropped_edges > 0

    def test_stored_conflicts_get_repaired(self):
        algo = OneShotRandomColoring(10, 2, seed=85)
        # Find two same-colored vertices to create a stored conflict.
        chi = algo._chi
        pair = None
        for u in range(10):
            for v in range(u + 1, 10):
                if chi[u] == chi[v]:
                    pair = (u, v)
                    break
            if pair:
                break
        if pair is None:
            pytest.skip("no color collision at this seed")
        algo.process_block(np.array([pair]))
        coloring = algo.query()
        assert coloring[pair[0]] != coloring[pair[1]]

    def test_capacity_overflow_counts_drops(self):
        algo = OneShotRandomColoring(20, 2, seed=86, capacity=0)
        chi = algo._chi
        pair = next(
            ((u, v) for u in range(20) for v in range(u + 1, 20)
             if chi[u] == chi[v]),
            None,
        )
        if pair is None:
            pytest.skip("no color collision at this seed")
        algo.process_block(np.array([pair]))
        assert algo.dropped_edges == 1
