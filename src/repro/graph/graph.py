"""A minimal, fast simple-undirected-graph data structure.

Vertices are the integers ``0 .. n-1``.  Edges are unordered pairs of
distinct vertices; parallel edges and self-loops are rejected.  The class is
used both for offline subroutines and as the "ground truth" graph that
adversarial games accumulate.
"""

from repro.common.exceptions import ReproError


class Graph:
    """Simple undirected graph on vertex set ``{0, ..., n-1}``.

    Parameters
    ----------
    n:
        Number of vertices.
    edges:
        Optional iterable of ``(u, v)`` pairs to insert.
    """

    def __init__(self, n: int, edges=None):
        if n < 0:
            raise ReproError(f"graph needs n >= 0, got {n}")
        self.n = n
        self._adj: list[set[int]] = [set() for _ in range(n)]
        self._m = 0
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int) -> bool:
        """Insert edge ``{u, v}``; return ``False`` if it already existed."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ReproError(f"self-loop at vertex {u} is not allowed")
        if v in self._adj[u]:
            return False
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._m += 1
        return True

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def has_edge(self, u: int, v: int) -> bool:
        """Return whether ``{u, v}`` is an edge."""
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adj[u]

    def neighbors(self, v: int) -> frozenset[int]:
        """A read-only snapshot of the adjacency set of ``v``.

        Returns a :class:`frozenset` so callers cannot corrupt the graph by
        mutating what used to be the live internal set.
        """
        return frozenset(self._adj[v])

    def degree(self, v: int) -> int:
        """Degree of ``v``."""
        return len(self._adj[v])

    def max_degree(self) -> int:
        """Maximum degree Delta of the graph (0 for edgeless graphs)."""
        if self.n == 0:
            return 0
        return max(len(a) for a in self._adj)

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._m

    def edges(self):
        """Iterate over edges as ``(u, v)`` with ``u < v``, in sorted order.

        The order is deterministic (lexicographic), independent of edge
        insertion order — set iteration order is an implementation detail
        that must not leak into streams built from graphs.
        """
        for u in range(self.n):
            for v in sorted(self._adj[u]):
                if u < v:
                    yield (u, v)

    def edge_list(self) -> list[tuple[int, int]]:
        """All edges as a sorted list of ``(u, v)`` with ``u < v``."""
        return list(self.edges())

    def edge_array(self):
        """All edges as a sorted ``(m, 2)`` int64 numpy array (``u < v``)."""
        import numpy as np

        if self._m == 0:
            return np.empty((0, 2), dtype=np.int64)
        return np.asarray(self.edge_list(), dtype=np.int64)

    def to_csr(self) -> "CSRGraph":
        """A frozen, array-backed :class:`repro.graph.csr.CSRGraph` view."""
        from repro.graph.csr import CSRGraph

        return CSRGraph.from_graph(self)

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """Deep copy."""
        g = Graph(self.n)
        for u, v in self.edges():
            g.add_edge(u, v)
        return g

    # ------------------------------------------------------------------
    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ReproError(f"vertex {v} out of range [0, {self.n})")

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self._m})"
