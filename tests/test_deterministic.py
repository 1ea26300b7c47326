"""Integration tests for Algorithm 1 (Theorem 1).

Every test validates the three claims: exact (Delta+1) palette, proper
coloring, and pass/space behavior; the instrumented tests check the
internal lemmas (potential bound, |F| <= |U|, epoch shrinkage).
"""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.exceptions import ReproError
from repro.common.integer_math import ceil_log2
from repro.core.deterministic import (
    DeterministicColoring,
    _SlackPassConsumer,
    choose_family_prime,
)
from repro.core.subcube import Subcube
from repro.graph.coloring import num_colors_used, validate_coloring
from repro.graph.generators import (
    clique_blowup_graph,
    complete_graph,
    cycle_graph,
    gnp_random_graph,
    random_bipartite_graph,
    random_max_degree_graph,
    star_graph,
)
from repro.graph.graph import Graph
from repro.streaming.stream import stream_from_graph


def run_and_validate(graph, delta, **kwargs):
    stream = stream_from_graph(graph).as_source(1)
    algo = DeterministicColoring(graph.n, delta, **kwargs)
    coloring = algo.run(stream)
    validate_coloring(graph, coloring, palette_size=delta + 1)
    return algo, stream, coloring


class TestPrimeChoice:
    def test_paper_policy_in_range(self):
        n = 50
        p = choose_family_prime(n, "paper")
        lg = math.ceil(math.log2(n))
        assert 8 * n * lg <= p <= 16 * n * lg

    def test_scaled_policy(self):
        assert choose_family_prime(100, "scaled") >= 201

    def test_override(self):
        assert choose_family_prime(100, "paper", override=1000) == 1009

    def test_unknown_policy(self):
        with pytest.raises(ReproError):
            choose_family_prime(10, "wat")


class TestEdgeCases:
    def test_empty_graph(self):
        g = Graph(7)
        algo, stream, coloring = run_and_validate(g, 0)
        assert set(coloring.values()) == {1}
        assert stream.passes_used == 0

    def test_single_edge(self):
        g = Graph(2, edges=[(0, 1)])
        _, _, coloring = run_and_validate(g, 1)
        assert coloring[0] != coloring[1]

    def test_star(self):
        g = star_graph(17)
        _, _, coloring = run_and_validate(g, 16)
        assert all(coloring[v] != coloring[0] for v in range(1, 17))

    def test_complete_graph_needs_full_palette(self):
        g = complete_graph(8)
        _, _, coloring = run_and_validate(g, 7)
        assert num_colors_used(coloring) == 8

    def test_odd_cycle(self):
        g = cycle_graph(9)
        _, _, coloring = run_and_validate(g, 2)
        assert num_colors_used(coloring) <= 3

    def test_delta_not_power_of_two_minus_one(self):
        # Exercises footnote 4: P_x may contain colors outside [Delta+1].
        g = random_max_degree_graph(30, 5, seed=4)
        run_and_validate(g, 5)

    def test_delta_exactly_power_of_two(self):
        g = random_max_degree_graph(34, 4, seed=4)
        run_and_validate(g, 4)

    def test_overestimated_delta_still_proper(self):
        g = cycle_graph(8)
        _, _, coloring = run_and_validate(g, 5)  # true Delta is 2
        assert num_colors_used(coloring) <= 6

    def test_clique_blowup(self):
        g = clique_blowup_graph(24, 6)
        run_and_validate(g, 5)

    def test_bipartite(self):
        g = random_bipartite_graph(32, 6, seed=5)
        run_and_validate(g, 6)


class TestSelectionModes:
    @pytest.mark.parametrize("selection", ["hash_family", "greedy_slack"])
    def test_random_graph(self, selection):
        g = random_max_degree_graph(48, 8, seed=6)
        algo, stream, coloring = run_and_validate(g, 8, selection=selection)
        assert num_colors_used(coloring) <= 9

    def test_unknown_selection_rejected(self):
        with pytest.raises(ReproError):
            DeterministicColoring(10, 3, selection="magic")

    def test_determinism(self):
        """Identical inputs -> identical colorings (the point of Theorem 1)."""
        g = random_max_degree_graph(40, 7, seed=8)
        colorings = []
        for _ in range(2):
            _, _, coloring = run_and_validate(g, 7)
            colorings.append(coloring)
        assert colorings[0] == colorings[1]

    def test_scaled_prime_policy(self):
        g = random_max_degree_graph(40, 7, seed=9)
        run_and_validate(g, 7, prime_policy="scaled")


class TestTheoremBounds:
    def test_pass_bound_shape(self):
        """Passes stay within a small constant of log D * (log log D + 1)."""
        n = 96
        for delta in (3, 7, 15):
            g = random_max_degree_graph(n, delta, seed=delta)
            _, stream, _ = run_and_validate(g, delta)
            lg = math.log2(delta + 1)
            budget = 10 * (lg * (math.log2(max(2, lg)) + 2) + 2)
            assert stream.passes_used <= budget

    def test_space_bound_shape(self):
        n = 80
        g = random_max_degree_graph(n, 9, seed=3)
        algo, _, _ = run_and_validate(g, 9)
        assert algo.peak_space_bits <= 60 * n * math.log2(n) ** 2

    def test_potential_bound_lemma_3_5(self):
        """Phi_l <= 2|U| at the end of every stage (instrumented run)."""
        g = random_max_degree_graph(56, 10, seed=11)
        algo, _, _ = run_and_validate(g, 10, instrument=True)
        assert algo.stats.stage_stats, "instrumentation captured no stages"
        for s in algo.stats.stage_stats:
            assert s.potential_after <= 2 * s.uncolored + 1e-9

    def test_conflict_bound_lemma_3_7(self):
        """|F| <= |U| at every epoch end."""
        g = random_max_degree_graph(56, 10, seed=12)
        algo, _, _ = run_and_validate(g, 10, instrument=True)
        for e in algo.stats.epoch_stats:
            assert e.conflict_edges <= e.uncolored_before

    def test_epoch_shrinkage_lemma_3_8(self):
        """|U'| <= (2/3)|U| each epoch."""
        g = random_max_degree_graph(56, 10, seed=13)
        algo, _, _ = run_and_validate(g, 10, instrument=True)
        for e in algo.stats.epoch_stats:
            assert e.uncolored_after <= (2 / 3) * e.uncolored_before + 1e-9

    @given(st.integers(0, 10**6), st.integers(2, 9))
    @settings(max_examples=10, deadline=None)
    def test_property_random_graphs(self, seed, delta):
        g = random_max_degree_graph(36, delta, seed=seed)
        run_and_validate(g, delta)

    @given(st.integers(0, 10**6))
    @settings(max_examples=8, deadline=None)
    def test_property_gnp(self, seed):
        g = gnp_random_graph(30, 0.15, seed=seed)
        delta = max(1, g.max_degree())
        run_and_validate(g, delta)


# ----------------------------------------------------------------------
# The per-token reference: Algorithm 1's slack pass (line 14) as first
# written, one Subcube.pattern_of per colored neighbor and the base counts
# from Subcube.subpattern_count.  _SlackPassConsumer replaces both with
# bit arithmetic over edge blocks and a closed form.
# ----------------------------------------------------------------------
def reference_slacks(delta, edges, chi, uncolored, cubes, kk):
    s = 1 << kk
    members = sorted(uncolored)
    used = {x: np.zeros(s, dtype=np.int64) for x in members}
    for u, v in edges:
        for x, y in ((u, v), (v, u)):
            if x in uncolored:
                color = chi.get(y)
                if color is not None and cubes[x].contains(color):
                    used[x][cubes[x].pattern_of(color, kk)] += 1
    slacks = {}
    for x in members:
        base = np.array(
            [cubes[x].subpattern_count(delta + 1, j, kk) for j in range(s)],
            dtype=np.int64,
        )
        slacks[x] = np.maximum(0, base - used[x])
    return slacks


@st.composite
def slack_pass_states(draw):
    """A mid-epoch state: a partial coloring, and subcubes that share
    ``(b, fixed)`` and differ only in their fixed bits."""
    n = draw(st.integers(2, 24))
    delta = draw(st.integers(1, 12))
    b = ceil_log2(delta + 1)
    fixed = draw(st.integers(0, b - 1))
    kk = draw(st.integers(1, b - fixed))
    colors = draw(st.lists(
        st.one_of(st.none(), st.integers(1, delta + 1)),
        min_size=n, max_size=n,
    ).filter(lambda cs: None in cs))
    chi = dict(enumerate(colors))
    uncolored = {v for v, c in chi.items() if c is None}
    cubes = {
        x: Subcube.full(b).restrict(draw(st.integers(0, (1 << fixed) - 1)), fixed)
        for x in sorted(uncolored)
    }
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda e: e[0] != e[1]
        ),
        max_size=60,
    ))
    chunk = draw(st.integers(1, 8))
    return n, delta, chi, uncolored, cubes, kk, edges, chunk


class TestSlackPassMatchesReference:
    @given(slack_pass_states())
    @settings(max_examples=80, deadline=None)
    def test_block_slacks_equal_per_token_slacks(self, state):
        n, delta, chi, uncolored, cubes, kk, edges, chunk = state
        algo = DeterministicColoring(n, delta)
        members = sorted(uncolored)
        consumer = _SlackPassConsumer(algo, chi, uncolored, cubes, kk, members)
        arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        for start in range(0, len(arr), chunk):
            consumer.feed(arr[start : start + chunk])
        got = consumer.finish()
        want = reference_slacks(delta, edges, chi, uncolored, cubes, kk)
        assert list(got) == members
        for x in members:
            assert np.array_equal(got[x], want[x]), x


class TestStreamOrders:
    @pytest.mark.parametrize("order", ["insertion", "reverse", "random"])
    def test_order_independence_of_correctness(self, order):
        g = random_max_degree_graph(40, 6, seed=14)
        kwargs = {"seed": 1} if order == "random" else {}
        stream = stream_from_graph(g, order=order, **kwargs)
        algo = DeterministicColoring(g.n, 6)
        coloring = algo.run(stream)
        validate_coloring(g, coloring, palette_size=7)


class TestTieBreakGolden:
    """The family search's tie-break, pinned end to end at paper defaults.

    On these seeds one stage's member sums tie exactly at 199 (seed 2) and
    96 (seed 9) values of ``b``, and the selected ``b`` is the first
    minimizer of the float64 sums accumulated in edge order, which is not
    the first exact tie.  A selector that breaks ties any other way changes
    these colorings.  The digests were recorded with the per-edge float
    selector.
    """

    GOLDEN = {
        2: "1d761159f5c9fd1e7088dd42a3b55513c010a6e00de0d7c0a45cb53d27efc0f3",
        9: "1b47180abae49211ff84ff49ee7a89e8ad367c485714f88cb179bdf2ec47df9b",
    }

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_paper_default_fingerprint(self, seed):
        g = random_max_degree_graph(256, 24, seed=seed)
        _, stream, coloring = run_and_validate(g, 24)
        record = {
            "coloring": [coloring[v] for v in range(g.n)],
            "passes": stream.passes_used,
            "colors_used": num_colors_used(coloring),
        }
        digest = hashlib.sha256(
            json.dumps(record, sort_keys=True).encode()
        ).hexdigest()
        assert digest == self.GOLDEN[seed]


class TestPastFirstEpochGolden:
    """Theorems 1 and 2 pinned past their first epoch, through the engine.

    Each cell runs at n = 256, Δ = 24 under strict verify and needs a
    second epoch: ``deterministic`` at seed 1 takes 2 epochs and 24 passes
    (5 epochs under ``greedy_slack``), ``list_coloring`` at seed 3 takes 2
    epochs and 53 passes.  The digest covers the coloring in vertex order,
    ``passes``, ``colors_used``, ``peak_space_bits``, ``random_bits`` and
    ``extras["epochs"]``, so the end-of-epoch commit, the space charged on
    the way and the final pass are all pinned.  The digests were recorded
    before the two theorems shared their epoch steps.
    """

    GOLDEN = {
        ("deterministic", 1, "greedy_slack"): "da0df973637985496bbe4e283ded9dd42d3818db55cb927479ff93870ce8e596",
        ("deterministic", 1, "hash_family"): "66691ebe8cb1341a5494a5d21c06372330f7a29142ec932ed97b7bba2b501603",
        ("list_coloring", 3, "greedy_slack"): "a0e14bcf2a7db6e56eb80c3afa68aab3144ef805166be4cd07037b25a47938f7",
        ("list_coloring", 3, "hash_family"): "b0a77fb5ecf1529d0344154ac60454158f6e8e39b183a1e6443318f876a34a55",
    }

    @pytest.mark.parametrize("algorithm,seed,selection", sorted(GOLDEN))
    def test_fingerprint(self, algorithm, seed, selection):
        from repro.engine import RunSpec, run

        result = run(RunSpec(
            algorithm=algorithm, n=256, delta=24, seed=seed,
            config={"selection": selection}, keep_coloring=True,
            verify="strict",
        ))
        assert result.extras["epochs"] >= 2
        record = {
            "coloring": [result.coloring[v] for v in range(result.n)],
            "passes": result.passes,
            "colors_used": result.colors_used,
            "peak_space_bits": result.peak_space_bits,
            "random_bits": result.random_bits,
            "epochs": result.extras["epochs"],
        }
        digest = hashlib.sha256(
            json.dumps(record, sort_keys=True).encode()
        ).hexdigest()
        assert digest == self.GOLDEN[(algorithm, seed, selection)]


class TestPaperPrimeGolden:
    """Theorem 1 at n = 1024, Δ = 24, seed 1, with its defaults, pinned.

    The paper prime there is p = 81929, five times the p = 16411 that
    perfbench's ``det-paper`` pins reach, so this covers the family
    search's part and member sums at a width where the profiles no longer
    fit in cache.  The digest covers the coloring in vertex order,
    ``passes``, ``peak_space_bits`` and ``random_bits``, and was recorded
    before the part sums were read from linear runs.
    """

    GOLDEN = "eab9169b8887b250ef7fe71737de0618665eb9e0c83e8a2fea0818949e60b049"

    def test_fingerprint(self):
        from repro.engine import RunSpec, run

        result = run(RunSpec(
            algorithm="deterministic", n=1024, delta=24, seed=1,
            keep_coloring=True, verify="strict",
        ))
        record = {
            "coloring": [result.coloring[v] for v in range(result.n)],
            "passes": result.passes,
            "peak_space_bits": result.peak_space_bits,
            "random_bits": result.random_bits,
        }
        digest = hashlib.sha256(
            json.dumps(record, sort_keys=True).encode()
        ).hexdigest()
        assert digest == self.GOLDEN
