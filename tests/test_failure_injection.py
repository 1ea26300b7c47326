"""Failure injection: wrong promises, malformed inputs, degenerate streams.

The library's contract is "fail loudly, never silently improper": a
violated promise (understated Delta, missing list, rule-breaking
adversary) must raise a :class:`ReproError`-family exception, and benign
anomalies (duplicate tokens, foreign token types, empty inputs) must be
absorbed without harming correctness.
"""

import pytest

from repro.common.exceptions import AdversaryError, ReproError
from repro.core.deterministic import DeterministicColoring
from repro.core.list_coloring import DeterministicListColoring
from repro.core.robust import RobustColoring
from repro.core.robust_lowrandom import LowRandomnessRobustColoring
from repro.engine import REGISTRY, RunSpec, run
from repro.graph.coloring import validate_coloring
from repro.graph.generators import complete_graph, random_max_degree_graph
from repro.graph.graph import Graph
from repro.streaming.source import FileSource, write_edge_file
from repro.streaming.stream import TokenStream, stream_from_graph
from repro.streaming.tokens import EdgeToken, ListToken


class TestUnderstatedDelta:
    def test_deterministic_raises_not_silent(self):
        """Declaring Delta=2 on K_5 must raise, not emit an improper coloring."""
        g = complete_graph(5)
        algo = DeterministicColoring(5, 2)
        with pytest.raises(ReproError):
            algo.run(stream_from_graph(g))

    def test_list_coloring_short_lists_raise(self):
        g = complete_graph(4)
        lists = {v: {1, 2} for v in range(4)}  # deg+1 = 4 needed
        algo = DeterministicListColoring(4, 3, 4)
        from repro.streaming.stream import stream_with_lists

        with pytest.raises(ReproError):
            algo.run(stream_with_lists(g, lists))

    def test_robust_rejects_over_degree_edge(self):
        algo = RobustColoring(4, 1, seed=1)
        algo.process(0, 1)
        with pytest.raises(ReproError):
            algo.process(1, 2)


LOOP_EDGES = [(0, 1), (1, 2), (2, 2), (2, 3), (3, 0)]


def loop_outcome(name, plane, validate, tmp_path):
    """``(type, message)`` of what a run over LOOP_EDGES raises, or None."""
    tokens = [EdgeToken(u, v) for u, v in LOOP_EDGES]
    if REGISTRY.get(name).needs_lists:
        tokens = [ListToken(x, frozenset(range(1, 5))) for x in range(4)] + tokens
    stream = TokenStream(tokens, 4)
    if plane == "materialized":
        stream = stream.as_source()
    elif plane == "file":
        path = tmp_path / f"{name}-{validate}.bin"
        write_edge_file(path, 4, LOOP_EDGES)
        stream = FileSource(path)
    spec = RunSpec(algorithm=name, n=4, delta=3, seed=1, validate=validate)
    try:
        run(spec, stream)
    except ReproError as error:
        return type(error), str(error)
    finally:
        if plane == "file":
            stream.close()
    return None


class TestSelfLoop:
    @pytest.mark.parametrize("validate", [True, False])
    @pytest.mark.parametrize("name", REGISTRY.names())
    def test_every_plane_fails_the_same_way(self, name, validate, tmp_path):
        planes = ["tokens", "materialized"]
        if not REGISTRY.get(name).needs_lists:
            planes.append("file")
        outcomes = {
            plane: loop_outcome(name, plane, validate, tmp_path)
            for plane in planes
        }
        assert outcomes["tokens"] is not None
        assert all(o == outcomes["tokens"] for o in outcomes.values()), outcomes


class TestBenignAnomalies:
    def test_duplicate_edge_tokens_stay_proper(self):
        """Duplicates only make the slack counters more conservative."""
        g = random_max_degree_graph(20, 4, seed=301)
        tokens = [EdgeToken(u, v) for u, v in g.edge_list()]
        tokens = tokens + tokens[: len(tokens) // 2]  # replay half the stream
        algo = DeterministicColoring(20, 2 * 4)  # degree doubles with dups
        coloring = algo.run(TokenStream(tokens, 20))
        validate_coloring(g, coloring, palette_size=2 * 4 + 1)

    def test_list_tokens_ignored_by_plain_coloring(self):
        g = Graph(3, edges=[(0, 1), (1, 2)])
        tokens = [
            EdgeToken(0, 1),
            ListToken(0, frozenset({9})),
            EdgeToken(1, 2),
        ]
        algo = DeterministicColoring(3, 2)
        coloring = algo.run(TokenStream(tokens, 3))
        validate_coloring(g, coloring, palette_size=3)

    def test_duplicate_list_tokens_first_wins(self):
        g = Graph(2, edges=[(0, 1)])
        tokens = [
            ListToken(0, frozenset({1, 2})),
            ListToken(1, frozenset({1, 3})),
            EdgeToken(0, 1),
            ListToken(0, frozenset({1, 2})),  # replay
        ]
        algo = DeterministicListColoring(2, 1, 4)
        coloring = algo.run(TokenStream(tokens, 2))
        assert coloring[0] != coloring[1]
        assert coloring[0] in {1, 2}
        assert coloring[1] in {1, 3}

    def test_empty_stream_deterministic(self):
        algo = DeterministicColoring(5, 3)
        coloring = algo.run(TokenStream([], 5))
        assert all(1 <= c <= 4 for c in coloring.values())

    def test_zero_vertices(self):
        algo = DeterministicColoring(0, 0)
        assert algo.run(TokenStream([], 0)) == {}

    def test_robust_query_with_no_edges(self):
        algo = RobustColoring(6, 2, seed=2)
        coloring = algo.query()
        assert set(coloring) == set(range(6))

    def test_lowrandom_repeated_queries_consistent_state(self):
        algo = LowRandomnessRobustColoring(10, 3, seed=3)
        algo.process(0, 1)
        c1 = algo.query()
        c2 = algo.query()
        assert c1 == c2  # queries are read-only for Algorithm 3


class TestAdversaryRules:
    def test_duplicate_edge_from_adversary_rejected(self):
        from repro.adversaries.game import run_adversarial_game
        from repro.adversaries.strategies import Adversary

        class Cheater(Adversary):
            def next_edge(self, graph, coloring, delta):
                return (0, 1)  # forever

        algo = RobustColoring(4, 3, seed=4)
        with pytest.raises(AdversaryError):
            run_adversarial_game(algo, Cheater(), n=4, delta=3, rounds=5)

    def test_adversary_may_stop_early(self):
        from repro.adversaries.game import run_adversarial_game
        from repro.adversaries.strategies import StaticStreamAdversary

        algo = RobustColoring(6, 3, seed=5)
        adv = StaticStreamAdversary([(0, 1)])
        result = run_adversarial_game(algo, adv, n=6, delta=3, rounds=100)
        assert result.rounds == 1
        assert result.clean


class TestConstructorValidation:
    def test_bad_selection_modes(self):
        with pytest.raises(ReproError):
            DeterministicColoring(5, 2, selection="quantum")
        with pytest.raises(ReproError):
            DeterministicListColoring(5, 2, 10, selection="quantum")

    def test_bad_universe(self):
        with pytest.raises(ReproError):
            DeterministicListColoring(5, 2, 0)

    def test_bad_beta(self):
        with pytest.raises(ReproError):
            RobustColoring(5, 2, seed=1, beta=-0.1)

    def test_bad_delta(self):
        with pytest.raises(ReproError):
            LowRandomnessRobustColoring(5, 0, seed=1)
