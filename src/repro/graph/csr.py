"""Frozen CSR (compressed sparse row) graph representation.

:class:`Graph` stores Python sets — ideal for the incremental mutation the
adversarial game needs, terrible for whole-graph scans at n >= 10^4.
:class:`CSRGraph` is the array-backed complement: an immutable snapshot in
the standard ``indptr``/``indices`` layout, where vertex ``v``'s neighbors
are ``indices[indptr[v]:indptr[v+1]]`` (sorted).  Degrees, the maximum
degree, edge enumeration, and properness checks are all vectorized, which
is what lets the engine validate n=16384+ runs without a Python-level
per-edge loop.
"""

import numpy as np

from repro.common.exceptions import ReproError

__all__ = ["CSRGraph", "dedupe_edges"]


def dedupe_edges(n: int, edges: np.ndarray, keep_order: bool = False) -> np.ndarray:
    """Unique undirected edges of an ``(m, 2)`` array, normalized to ``u < v``.

    The canonical dedup: orientation-normalize, key as ``lo * n + hi``
    (requires ``n**2 < 2**63``, comfortably true for every workload here),
    and unique.  ``keep_order=True`` returns edges in first-occurrence
    order instead of sorted — the selector's tie-break follows float64
    sums accumulated in edge order (its member sums and its part-sum
    near-tie re-score), so keeping stream order selects the same member
    at every chunk size.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if len(edges) == 0:
        return np.empty((0, 2), dtype=np.int64)
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    keys, first_index = np.unique(lo * n + hi, return_index=True)
    if keep_order:
        keys = keys[np.argsort(first_index, kind="stable")]
    return np.stack([keys // n, keys % n], axis=1)


class CSRGraph:
    """Immutable undirected graph in CSR form (vertices ``0 .. n-1``).

    Build one with :meth:`from_edge_array`, :meth:`from_graph`, or
    :meth:`repro.graph.graph.Graph.to_csr`; direct construction expects
    already-validated ``indptr``/``indices`` arrays.
    """

    __slots__ = ("n", "indptr", "indices")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray):
        self.n = n
        self.indptr = indptr
        self.indices = indices
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edge_array(cls, n: int, edges) -> "CSRGraph":
        """Build from an ``(m, 2)`` array of edges (any orientation).

        Duplicate edges are collapsed; self-loops and out-of-range
        endpoints raise :class:`ReproError`.
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if len(edges) and (edges.min() < 0 or edges.max() >= n):
            raise ReproError(f"edge endpoint out of range [0, {n})")
        if len(edges) and (edges[:, 0] == edges[:, 1]).any():
            raise ReproError("self-loops are not allowed")
        unique = dedupe_edges(n, edges)
        lo, hi = unique[:, 0], unique[:, 1]
        # Both directions, grouped by source, neighbors sorted within group.
        src = np.concatenate([lo, hi])
        dst = np.concatenate([hi, lo])
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return cls(n, indptr, dst)

    @classmethod
    def from_graph(cls, graph) -> "CSRGraph":
        """Snapshot a mutable :class:`repro.graph.graph.Graph`."""
        return cls.from_edge_array(graph.n, graph.edge_array())

    # ------------------------------------------------------------------
    # queries (vectorized)
    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Number of (undirected) edges."""
        return len(self.indices) // 2

    @property
    def degrees(self) -> np.ndarray:
        """Degree of every vertex as an int64 array."""
        return np.diff(self.indptr)

    def degree(self, v: int) -> int:
        """Degree of ``v``."""
        return int(self.indptr[v + 1] - self.indptr[v])

    def max_degree(self) -> int:
        """Maximum degree Delta (0 for edgeless graphs)."""
        if self.n == 0:
            return 0
        return int(self.degrees.max())

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of ``v`` as a read-only array slice."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge (binary search in ``u``'s slice)."""
        nbrs = self.neighbors(u)
        i = int(np.searchsorted(nbrs, v))
        return i < len(nbrs) and int(nbrs[i]) == v

    def edge_array(self) -> np.ndarray:
        """All edges as an ``(m, 2)`` int64 array with ``u < v``, sorted."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        mask = src < self.indices
        return np.stack([src[mask], self.indices[mask]], axis=1)

    # ------------------------------------------------------------------
    # vectorized coloring checks
    # ------------------------------------------------------------------
    def color_array(self, coloring: dict) -> np.ndarray:
        """A length-n int64 array of colors (0 where unset/None)."""
        from repro.graph.coloring import coloring_array

        return coloring_array(self.n, coloring)

    def monochromatic_edge_count(self, colors: np.ndarray) -> int:
        """Number of edges whose (assigned) endpoints share a color.

        0 encodes "unset" and never conflicts; any other equal pair counts.
        """
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        mask = src < self.indices
        cu = colors[src[mask]]
        cv = colors[self.indices[mask]]
        return int(((cu != 0) & (cu == cv)).sum())

    def to_graph(self):
        """Expand back into a mutable :class:`repro.graph.graph.Graph`."""
        from repro.graph.graph import Graph

        return Graph(self.n, self.edge_array().tolist())

    def __repr__(self) -> str:
        return f"CSRGraph(n={self.n}, m={self.m})"
