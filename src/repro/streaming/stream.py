"""A replayable token stream that counts passes.

Multipass algorithms consume the stream only through ``new_pass()``; the
stream records how many passes were taken, which is the statistic
Theorem 1's ``O(log Delta * log log Delta)`` bound constrains.  An optional
per-token observer supports the communication-protocol simulation
(Corollary 3.11), which needs to know when the read position crosses the
Alice/Bob boundary.

``TokenStream`` is the token-at-a-time view of the data plane; the
array-backed, chunked view lives in :mod:`repro.streaming.source`
(:class:`StreamSource` and friends).  ``stream.as_source()`` wraps a token
stream in a block source sharing its pass counter; multipass algorithms
read a token stream through ``stream.as_source(1)``, one edge per block.
The token list is treated as immutable once the stream is constructed
(``edge_count``/``max_degree`` are cached on first use).
"""


from repro.common.exceptions import StreamProtocolError
from repro.streaming.tokens import EdgeToken, ListToken
import repro.obs as obs
from repro.obs.clock import perf_now

__all__ = [
    "TokenStream",
    "order_edges",
    "ordered_edge_list",
    "stream_from_graph",
    "stream_with_lists",
]


class TokenStream:
    """An in-memory stream of :class:`EdgeToken` / :class:`ListToken`.

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
        self.passes_used = 0
        self.pass_seconds: list[float] = []
        self._observer = None
        self._edge_count = None
        self._max_degree = None
        for t in self.tokens:
            if not isinstance(t, (EdgeToken, ListToken)):
                raise StreamProtocolError(f"bad token {t!r}")

    def __len__(self) -> int:
        return len(self.tokens)

    def set_observer(self, callback) -> None:
        """Install ``callback(pass_index, token_index)`` fired before each token."""
        self._observer = callback

    def new_pass(self):
        """Begin a pass; yields every token in order and counts the pass.

        The wall time from the first token to exhaustion (including the
        consumer's per-token work) is appended to :attr:`pass_seconds`.
        """
        self.passes_used += 1
        pass_index = self.passes_used
        start = perf_now()
        if self._observer is None:
            yield from self.tokens
        else:
            for i, token in enumerate(self.tokens):
                self._observer(pass_index, i)
                yield token
        elapsed = perf_now() - start
        self.pass_seconds.append(elapsed)
        obs.emit_span("stream.pass", elapsed, backend="tokens",
                      pass_index=pass_index)

    def as_source(self, chunk_size=None):
        """A chunked :class:`~repro.streaming.source.MaterializedSource` view.

        The view shares this stream's pass counter and timings, so passes
        taken through either interface count once, consistently.
        """
        from repro.streaming.source import DEFAULT_CHUNK_SIZE, MaterializedSource

        if chunk_size is None:
            chunk_size = DEFAULT_CHUNK_SIZE
        return MaterializedSource(self, chunk_size=chunk_size)

    def edge_count(self) -> int:
        """Number of edge tokens in the stream (cached after first scan)."""
        if self._edge_count is None:
            self._edge_count = sum(
                1 for t in self.tokens if isinstance(t, EdgeToken)
            )
        return self._edge_count

    def max_degree(self) -> int:
        """Max degree of the streamed graph (cached; harnesses call this a lot)."""
        if self._max_degree is None:
            deg = [0] * self.n
            for t in self.tokens:
                if isinstance(t, EdgeToken):
                    deg[t.u] += 1
                    deg[t.v] += 1
            self._max_degree = max(deg, default=0)
        return self._max_degree


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
