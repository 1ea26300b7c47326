"""Tests for the Corollary 3.11 two-party protocol simulation."""

import math

from repro.core.communication import two_party_coloring_protocol
from repro.core.deterministic import DeterministicColoring
from repro.graph.coloring import validate_coloring
from repro.graph.generators import random_max_degree_graph
from repro.streaming.stream import stream_from_graph


def split_tokens(graph, fraction=0.5):
    tokens = stream_from_graph(graph).tokens
    cut = int(len(tokens) * fraction)
    return tokens[:cut], tokens[cut:]


class TestProtocol:
    def test_produces_valid_coloring(self):
        n, delta = 40, 6
        g = random_max_degree_graph(n, delta, seed=91)
        alice, bob = split_tokens(g)
        algo = DeterministicColoring(n, delta)
        result = two_party_coloring_protocol(algo, alice, bob, n)
        validate_coloring(g, result.coloring, palette_size=delta + 1)

    def test_rounds_track_passes(self):
        n, delta = 30, 4
        g = random_max_degree_graph(n, delta, seed=92)
        alice, bob = split_tokens(g)
        algo = DeterministicColoring(n, delta)
        result = two_party_coloring_protocol(algo, alice, bob, n)
        # Two messages per pass (one extra final), so rounds ~ 2 * passes.
        assert result.passes <= result.rounds <= 2 * result.passes + 1

    def test_total_bits_within_corollary_budget(self):
        n, delta = 48, 6
        g = random_max_degree_graph(n, delta, seed=93)
        alice, bob = split_tokens(g)
        algo = DeterministicColoring(n, delta)
        result = two_party_coloring_protocol(algo, alice, bob, n)
        budget = 40 * n * math.log2(n) ** 4
        assert 0 < result.total_bits <= budget

    def test_uneven_split(self):
        n, delta = 30, 4
        g = random_max_degree_graph(n, delta, seed=94)
        alice, bob = split_tokens(g, fraction=0.1)
        algo = DeterministicColoring(n, delta)
        result = two_party_coloring_protocol(algo, alice, bob, n)
        validate_coloring(g, result.coloring, palette_size=delta + 1)

    def test_degenerate_split_single_message(self):
        n, delta = 20, 3
        g = random_max_degree_graph(n, delta, seed=95)
        tokens = stream_from_graph(g).tokens
        algo = DeterministicColoring(n, delta)
        result = two_party_coloring_protocol(algo, tokens, [], n)
        validate_coloring(g, result.coloring, palette_size=delta + 1)
        assert result.rounds == 1

    def test_list_coloring_over_protocol(self):
        """Theorem 2's algorithm runs through the same reduction."""
        from repro.core.list_coloring import DeterministicListColoring
        from repro.graph.generators import random_list_assignment
        from repro.streaming.stream import stream_with_lists

        n, delta, universe = 20, 3, 12
        g = random_max_degree_graph(n, delta, seed=97)
        lists = random_list_assignment(g, palette_size=universe, seed=98)
        tokens = stream_with_lists(g, lists).tokens
        cut = len(tokens) // 2
        algo = DeterministicListColoring(n, delta, universe)
        result = two_party_coloring_protocol(algo, tokens[:cut], tokens[cut:], n)
        validate_coloring(g, result.coloring, lists=lists)
        assert result.total_bits > 0

    def test_message_bits_recorded(self):
        n, delta = 24, 3
        g = random_max_degree_graph(n, delta, seed=96)
        alice, bob = split_tokens(g)
        algo = DeterministicColoring(n, delta)
        result = two_party_coloring_protocol(algo, alice, bob, n)
        assert len(result.message_bits) == result.rounds
        assert sum(result.message_bits) == result.total_bits


#: Messages of a deterministic run at n = 32, Delta = 4: Alice's at Bob's
#: first token of each pass, Bob's at the first token of the next pass
#: (after the machine folded the previous pass in), one final from Bob.
DET_MESSAGES = [
    512, 13342, 13342, 13342, 13342, 512, 512, 13342, 13342, 13342, 13342,
    512, 512, 13342, 13342, 13342, 13342, 320, 320, 128, 128, 128,
]

#: The list-coloring split of ``test_list_coloring_over_protocol``.
LIST_MESSAGES = [
    260, 300, 300, 290, 290, 300, 300, 500, 500, 8590, 8590, 8590, 8590,
    260, 260, 300, 300, 290, 290, 300, 300, 500, 500, 8590, 8590, 8590,
    8590, 260, 260, 260, 260, 376, 376, 376, 376, 376, 376, 260, 260, 100,
    100, 100,
]


class TestPinnedMessages:
    """The exact handoffs of three splits, recorded from the per-token
    observer the protocol once installed on its stream."""

    def deterministic(self, fraction):
        n, delta = 32, 4
        g = random_max_degree_graph(n, delta, seed=92)
        alice, bob = split_tokens(g, fraction)
        result = two_party_coloring_protocol(
            DeterministicColoring(n, delta), alice, bob, n
        )
        validate_coloring(g, result.coloring, palette_size=delta + 1)
        return result

    def test_even_split(self):
        result = self.deterministic(0.5)
        assert (result.passes, result.rounds) == (11, 22)
        assert result.message_bits == DET_MESSAGES
        assert result.total_bits == sum(DET_MESSAGES) == 163688

    def test_uneven_split(self):
        result = self.deterministic(0.1)
        assert (result.passes, result.rounds) == (11, 22)
        assert result.message_bits == DET_MESSAGES

    def test_list_coloring_split(self):
        from repro.core.list_coloring import DeterministicListColoring
        from repro.graph.generators import random_list_assignment
        from repro.streaming.stream import stream_with_lists

        n, delta, universe = 20, 3, 12
        g = random_max_degree_graph(n, delta, seed=97)
        lists = random_list_assignment(g, palette_size=universe, seed=98)
        tokens = stream_with_lists(g, lists).tokens
        cut = len(tokens) // 2
        algo = DeterministicListColoring(n, delta, universe)
        result = two_party_coloring_protocol(algo, tokens[:cut], tokens[cut:], n)
        validate_coloring(g, result.coloring, lists=lists)
        assert (result.passes, result.rounds) == (21, 42)
        assert result.message_bits == LIST_MESSAGES
        assert result.total_bits == sum(LIST_MESSAGES) == 79176


class TestHandoffSource:
    def test_handoffs_fall_on_bobs_first_token_and_each_restart(self):
        from repro.core.communication import _HandoffSource
        from repro.streaming.stream import TokenStream
        from repro.streaming.tokens import edge_tokens

        events = []
        source = _HandoffSource(
            TokenStream(edge_tokens([(0, 1), (1, 2), (2, 3), (3, 4)]), n=5),
            boundary=2, record=lambda: events.append("message"),
        )
        for _ in range(2):
            for block in source.new_pass():
                events.append(tuple(block[0].tolist()))
        # Alice's message before Bob's first token of every pass; Bob's
        # before the first token of the second pass.
        assert events == [
            (0, 1), (1, 2), "message", (2, 3), (3, 4),
            "message", (0, 1), (1, 2), "message", (2, 3), (3, 4),
        ]
        assert source.passes_used == 2

    def test_bob_holds_everything_single_message(self):
        n, delta = 20, 3
        g = random_max_degree_graph(n, delta, seed=95)
        tokens = stream_from_graph(g).tokens
        algo = DeterministicColoring(n, delta)
        result = two_party_coloring_protocol(algo, [], tokens, n)
        validate_coloring(g, result.coloring, palette_size=delta + 1)
        assert result.rounds == 1
        assert result.message_bits == [algo.meter.current_bits]
