"""Integration tests for Theorem 2: deterministic (deg+1)-list-coloring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.exceptions import ReproError
from repro.core.list_coloring import (
    DeterministicListColoring,
    _EpochState,
    _PartitionScoreConsumer,
)
from repro.graph.coloring import validate_coloring
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    random_list_assignment,
    random_max_degree_graph,
)
from repro.graph.graph import Graph
from repro.hashing.partitions import PartitionFamily
from repro.streaming.stream import stream_with_lists
from repro.streaming.tokens import ListToken


def run_and_validate(graph, delta, lists, universe, **kwargs):
    stream = stream_with_lists(graph, lists, seed=kwargs.pop("stream_seed", None))
    algo = DeterministicListColoring(graph.n, delta, universe, **kwargs)
    coloring = algo.run(stream)
    validate_coloring(graph, coloring, lists=lists)
    return algo, stream, coloring


class TestBasics:
    def test_edgeless_uses_lists(self):
        g = Graph(5)
        lists = {v: {v + 10} for v in range(5)}
        _, _, coloring = run_and_validate(g, 0, lists, universe=20)
        assert coloring == {v: v + 10 for v in range(5)}

    def test_single_edge_distinct(self):
        g = Graph(2, edges=[(0, 1)])
        lists = {0: {3, 5}, 1: {3, 7}}
        _, _, coloring = run_and_validate(g, 1, lists, universe=8)
        assert coloring[0] != coloring[1]

    def test_adversarial_tight_lists(self):
        """deg+1 lists with heavy overlap: the hard regime."""
        g = complete_graph(5)
        lists = {v: set(range(1, 6)) for v in range(5)}
        _, _, coloring = run_and_validate(g, 4, lists, universe=5)
        assert len(set(coloring.values())) == 5

    def test_disjoint_lists_trivial(self):
        g = cycle_graph(6)
        lists = {v: {10 * v + 1, 10 * v + 2, 10 * v + 3} for v in range(6)}
        run_and_validate(g, 2, lists, universe=60)

    def test_missing_list_raises(self):
        g = Graph(2, edges=[(0, 1)])
        lists = {0: {1, 2}}  # vertex 1 never gets a list
        stream = stream_with_lists(g, lists)
        algo = DeterministicListColoring(2, 1, 4)
        with pytest.raises(ReproError):
            algo.run(stream)

    def test_universe_validation(self):
        with pytest.raises(ReproError):
            DeterministicListColoring(4, 2, 0)

    def test_unknown_selection(self):
        with pytest.raises(ReproError):
            DeterministicListColoring(4, 2, 8, selection="nope")


class TestRandomWorkloads:
    @pytest.mark.parametrize("selection", ["hash_family", "greedy_slack"])
    def test_random_graph_random_lists(self, selection):
        g = random_max_degree_graph(30, 5, seed=21)
        lists = random_list_assignment(g, palette_size=18, seed=22)
        run_and_validate(g, 5, lists, universe=18, selection=selection)

    def test_interleaved_token_order(self):
        g = random_max_degree_graph(24, 4, seed=23)
        lists = random_list_assignment(g, palette_size=15, seed=24)
        run_and_validate(g, 4, lists, universe=15, stream_seed=25)

    def test_lists_with_slack(self):
        g = random_max_degree_graph(24, 4, seed=26)
        lists = random_list_assignment(g, palette_size=20, seed=27, slack=2)
        run_and_validate(g, 4, lists, universe=20)

    def test_determinism(self):
        g = random_max_degree_graph(20, 4, seed=28)
        lists = random_list_assignment(g, palette_size=14, seed=29)
        runs = [run_and_validate(g, 4, lists, universe=14)[2] for _ in range(2)]
        assert runs[0] == runs[1]

    @given(st.integers(0, 10**6))
    @settings(max_examples=5, deadline=None)
    def test_property_random(self, seed):
        g = random_max_degree_graph(18, 3, seed=seed)
        lists = random_list_assignment(g, palette_size=12, seed=seed + 1)
        run_and_validate(g, 3, lists, universe=12)


class TestLemma310Decay:
    def test_list_mass_decays_per_stage(self):
        """The measured sum_x (|P_x ∩ L_x| - 1) drops every partition stage."""
        g = random_max_degree_graph(30, 5, seed=31)
        lists = random_list_assignment(g, palette_size=18, seed=32)
        stream = stream_with_lists(g, lists)
        algo = DeterministicListColoring(30, 5, 18, instrument=True)
        coloring = algo.run(stream)
        validate_coloring(g, coloring, lists=lists)
        masses = algo.stats.list_mass_per_stage
        assert masses, "instrumentation recorded no stages"
        for (ep1, before), (ep2, after) in zip(masses, masses[1:]):
            if ep1 == ep2:  # decay is a within-epoch property
                assert after <= before


# ----------------------------------------------------------------------
# The per-token reference: Theorem 2's partition-group scoring pass as
# first written, one PartitionFamily.class_of per (survivor, candidate)
# and a chain walk per color for P_x membership.  _PartitionScoreConsumer
# replaces both with the family's class table and one occupancy bincount
# per list token.
# ----------------------------------------------------------------------
def reference_contains(state, x, color):
    """Whether ``color`` is in ``P_x`` (walk the chain)."""
    for arr, cls in zip(state.partitions, state.chain[x]):
        if arr[color] != cls:
            return False
    return True


def reference_group_scores(items, uncolored, state, family, groups):
    """``sum over group members of sum_x a_R(P_x ∩ L_x)``, per group."""
    scores = np.zeros(len(groups))
    seen = set()
    for token in items:
        if not isinstance(token, ListToken) or token.x not in uncolored:
            continue
        x = token.x
        if x in seen:
            continue
        seen.add(x)
        survivors = [c for c in token.colors if reference_contains(state, x, c)]
        if not survivors:
            continue
        for gi, group in enumerate(groups):
            for a, b in group:
                counts = np.zeros(family.s, dtype=np.int64)
                for c in survivors:
                    counts[family.class_of(a, b, c)] += 1
                scores[gi] += max(0, int(counts.max()) - 1)
    return scores


@st.composite
def partition_score_states(draw):
    """Chains over a few committed stages, lists, and candidate groups."""
    n = draw(st.integers(1, 10))
    universe = draw(st.integers(2, 12))
    s = draw(st.sampled_from([2, 4]))
    family = PartitionFamily(universe, s)
    keys = list(family.members())
    uncolored = set(draw(st.lists(st.integers(0, n - 1), min_size=1)))
    state = _EpochState(uncolored)
    for _ in range(draw(st.integers(0, 2))):
        key = keys[draw(st.integers(0, len(keys) - 1))]
        state.partitions.append(family.class_array(*key))
        for x in state.members:
            state.chain[x] += (draw(st.integers(0, s - 1)),)
    items = []
    for _ in range(draw(st.integers(0, 2 * n))):
        if draw(st.booleans()):
            x = draw(st.integers(0, n - 1))
            colors = draw(st.frozensets(st.integers(1, universe), min_size=1))
            items.append(ListToken(x, colors))
        else:  # an edge block, which the scoring pass skips
            items.append(np.array([[0, 1]], dtype=np.int64))
    candidates = draw(st.lists(
        st.sampled_from(keys), min_size=1, max_size=12, unique=True,
    ))
    size = draw(st.integers(1, len(candidates)))
    groups = [
        candidates[i : i + size] for i in range(0, len(candidates), size)
    ]
    return n, universe, uncolored, state, family, groups, items


class TestPartitionScoresMatchReference:
    @given(partition_score_states())
    @settings(max_examples=80, deadline=None)
    def test_block_scores_equal_per_token_scores(self, case):
        n, universe, uncolored, state, family, groups, items = case
        algo = DeterministicListColoring(n, 1, universe)
        consumer = _PartitionScoreConsumer(
            algo, uncolored, state, family, groups
        )
        for item in items:
            consumer.feed(item)
        got = consumer.finish()
        want = reference_group_scores(items, uncolored, state, family, groups)
        assert np.array_equal(got, want)
