"""The token list: a stream of edge and list tokens, fixed in advance.

A :class:`TokenStream` is the paper's input written out token by token
(an adversarial order is just a permuted list).  It has no passes: every
run reads it as a :class:`~repro.streaming.source.StreamSource`, the one
stream type that counts passes (the Theorem 1 statistic) and times them.
``stream.as_source(k)`` wraps the tokens in a
:class:`~repro.streaming.source.MaterializedSource` of ``k``-edge blocks;
the engine reads a token stream through ``as_source(1)``, one edge per
block.  The token list is treated as immutable once the stream is
constructed.
"""


from repro.common.exceptions import StreamProtocolError
from repro.streaming.tokens import EdgeToken, ListToken

__all__ = [
    "TokenStream",
    "order_edges",
    "ordered_edge_list",
    "stream_from_graph",
    "stream_with_lists",
]


class TokenStream:
    """An in-memory list of :class:`EdgeToken` / :class:`ListToken`.

    Parameters
    ----------
    tokens:
        The fixed token sequence (adversarial order is just a permuted list).
    n:
        Number of vertices of the underlying graph.
    """

    def __init__(self, tokens, n: int):
        self.tokens = list(tokens)
        self.n = n
        for t in self.tokens:
            if not isinstance(t, (EdgeToken, ListToken)):
                raise StreamProtocolError(f"bad token {t!r}")

    def __len__(self) -> int:
        return len(self.tokens)

    def as_source(self, chunk_size=None):
        """The tokens as a :class:`~repro.streaming.source.MaterializedSource`.

        Each call builds a fresh source with its own pass counter; edge
        runs are cut into blocks of at most ``chunk_size`` edges.
        """
        from repro.streaming.source import DEFAULT_CHUNK_SIZE, MaterializedSource

        if chunk_size is None:
            chunk_size = DEFAULT_CHUNK_SIZE
        return MaterializedSource(self, chunk_size=chunk_size)


def order_edges(edges: list, seed=None, order="insertion") -> list:
    """Arrange an edge list into a stream order (in place for ``random``).

    ``order`` is one of ``"insertion"`` (the list as given — callers pass
    sorted edge lists), ``"random"`` (shuffled with ``seed``), or
    ``"reverse"``.  Deterministic for a given ``(edges, order, seed)`` —
    block sources rely on this to regenerate identical streams on every
    pass.
    """
    if order == "random":
        if seed is None:
            raise StreamProtocolError("random order requires a seed")
        from repro.common.rng import SeededRng

        SeededRng(seed).shuffle(edges)
    elif order == "reverse":
        edges = edges[::-1]
    elif order != "insertion":
        raise StreamProtocolError(f"unknown order {order!r}")
    return edges


def ordered_edge_list(graph, seed=None, order="insertion") -> list:
    """The graph's (sorted) edges in a stream order (see :func:`order_edges`)."""
    return order_edges(graph.edge_list(), seed=seed, order=order)


def stream_from_graph(graph, seed=None, order="insertion") -> TokenStream:
    """Build an edge stream from a graph (see :func:`ordered_edge_list`)."""
    edges = ordered_edge_list(graph, seed=seed, order=order)
    return TokenStream([EdgeToken(u, v) for u, v in edges], graph.n)


def stream_with_lists(graph, lists, seed=None) -> TokenStream:
    """Build the Theorem 2 input: edges and ``(x, L_x)`` tokens, interleaved.

    With a ``seed`` the tokens are shuffled into an arbitrary interleaving
    (the theorem allows any order); otherwise lists come first.
    """
    tokens: list = [ListToken(x, frozenset(colors)) for x, colors in lists.items()]
    tokens.extend(EdgeToken(u, v) for u, v in graph.edge_list())
    if seed is not None:
        from repro.common.rng import SeededRng

        SeededRng(seed).shuffle(tokens)
    return TokenStream(tokens, graph.n)
