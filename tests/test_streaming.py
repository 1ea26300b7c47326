"""Unit tests for the streaming substrate (tokens, streams, interfaces)."""

import numpy as np
import pytest

from repro.common.exceptions import StreamProtocolError
from repro.graph.generators import cycle_graph, gnp_random_graph
from repro.streaming.model import MultipassStreamingAlgorithm, OnePassAlgorithm
from repro.streaming.stream import TokenStream, stream_from_graph
from repro.streaming.tokens import EdgeToken, ListToken, edge_tokens


class TestTokens:
    def test_edge_token(self):
        t = EdgeToken(3, 5)
        assert t.endpoints() == (3, 5)

    def test_edge_tokens_helper(self):
        ts = edge_tokens([(0, 1), (2, 3)])
        assert ts == [EdgeToken(0, 1), EdgeToken(2, 3)]

    def test_list_token_frozen(self):
        t = ListToken(2, frozenset({1, 5}))
        assert t.colors == {1, 5}
        with pytest.raises(Exception):
            t.x = 3


class TestTokenStream:
    def test_pass_counting(self):
        s = TokenStream(edge_tokens([(0, 1)]), n=2).as_source(1)
        assert s.passes_used == 0
        list(s.new_pass())
        list(s.new_pass())
        assert s.passes_used == 2

    def test_pass_replays_same_order(self):
        tokens = edge_tokens([(0, 1), (1, 2), (0, 2)])
        s = TokenStream(tokens, n=3).as_source(1)
        one_edge_blocks = [[[t.u, t.v]] for t in tokens]
        assert [b.tolist() for b in s.new_pass()] == one_edge_blocks
        assert [b.tolist() for b in s.new_pass()] == one_edge_blocks

    def test_rejects_bad_tokens(self):
        with pytest.raises(StreamProtocolError):
            TokenStream([(0, 1)], n=2)  # raw tuple, not a token

    def test_edge_count_and_max_degree(self):
        tokens = edge_tokens([(0, 1), (0, 2), (0, 3)])
        tokens.append(ListToken(1, frozenset({1})))
        s = TokenStream(tokens, n=4).as_source(1)
        assert s.edge_count() == 3
        assert s.max_degree() == 3

    def test_len(self):
        assert len(TokenStream(edge_tokens([(0, 1)]), n=2)) == 1


class BlockRecorder(OnePassAlgorithm):
    """Keeps every block it is fed; colors vertex ``v`` with ``v + 1``."""

    def __init__(self, n):
        super().__init__()
        self.n = n
        self.blocks = []

    def process_block(self, edges):
        self.blocks.append(np.array(edges))

    def query(self):
        return {v: v + 1 for v in range(self.n)}


class TestOnePassInterface:
    def test_process_block_is_abstract(self):
        class QueryOnly(OnePassAlgorithm):
            def query(self):
                return {}

        with pytest.raises(TypeError, match="process_block"):
            QueryOnly()

    def test_token_stream_arrives_as_one_edge_blocks(self):
        edges = [(0, 1), (1, 2), (0, 2)]
        source = TokenStream(edge_tokens(edges), n=3).as_source(1)
        algo = BlockRecorder(3)
        assert algo.color_stream(source) == {0: 1, 1: 2, 2: 3}
        assert [block.tolist() for block in algo.blocks] == [
            [list(e)] for e in edges
        ]
        assert all(block.dtype == np.int64 for block in algo.blocks)
        assert source.passes_used == 1
        # A token stream handed to color_stream is read the same way.
        again = BlockRecorder(3)
        again.color_stream(TokenStream(edge_tokens(edges), n=3))
        assert [b.tolist() for b in again.blocks] == [
            b.tolist() for b in algo.blocks
        ]
        # The same driver reads token streams for multipass algorithms.
        assert (OnePassAlgorithm.color_stream
                is MultipassStreamingAlgorithm.color_stream)


class TestMultipassInterface:
    @pytest.mark.parametrize(
        "missing", ["blocks_start", "blocks_consumer", "blocks_deliver"]
    )
    def test_pass_machine_is_abstract(self, missing):
        body = {
            "blocks_start": lambda self: None,
            "blocks_consumer": lambda self: None,
            "blocks_deliver": lambda self, result, stream: None,
        }
        del body[missing]
        partial = type("Partial", (MultipassStreamingAlgorithm,), body)
        with pytest.raises(TypeError, match=missing):
            partial()


class TestStreamFromGraph:
    def test_insertion_order_is_sorted(self):
        g = cycle_graph(4)
        s = stream_from_graph(g)
        edges = [(t.u, t.v) for t in s.tokens]
        assert edges == sorted(g.edge_list())

    def test_random_order_is_permutation(self):
        g = gnp_random_graph(15, 0.4, seed=2)
        s = stream_from_graph(g, seed=9, order="random")
        assert sorted((t.u, t.v) for t in s.tokens) == sorted(g.edge_list())

    def test_random_requires_seed(self):
        with pytest.raises(StreamProtocolError):
            stream_from_graph(cycle_graph(4), order="random")

    def test_reverse(self):
        g = cycle_graph(4)
        fwd = stream_from_graph(g).tokens
        rev = stream_from_graph(g, order="reverse").tokens
        assert rev == fwd[::-1]

    def test_unknown_order(self):
        with pytest.raises(StreamProtocolError):
            stream_from_graph(cycle_graph(4), order="sideways")
