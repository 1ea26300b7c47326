"""Workload generators: the graph families the experiment suite streams.

The paper's theorems are worst-case, so no single distribution is canonical;
the suite uses a spread of families that stress different parts of the
algorithms:

- ``random_max_degree_graph``: dense-as-allowed graphs with a hard Delta cap
  (the main workload; matches the "Delta-based coloring" setting).
- ``gnp_random_graph``: classical Erdos-Renyi.
- ``random_bipartite_graph``: chromatic number 2 but large Delta; a regime
  where (Delta+1) palettes are very loose.
- ``clique_blowup_graph``: unions of cliques; degeneracy == Delta, the
  hardest case for degeneracy-based coloring.
- ``cycle_graph``, ``star_graph``, ``complete_graph``, ``path_graph``:
  deterministic edge cases used heavily by tests.
- ``random_list_assignment``: per-vertex color lists with
  ``|L_v| = deg(v) + 1 + slack`` for the Theorem 2 workload.
"""

import numpy as np

from repro.common.exceptions import ParameterError
from repro.common.rng import SeededRng
from repro.graph.graph import Graph


def complete_graph(n: int) -> Graph:
    """K_n."""
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            g.add_edge(u, v)
    return g


def path_graph(n: int) -> Graph:
    """Simple path on n vertices."""
    g = Graph(n)
    for v in range(n - 1):
        g.add_edge(v, v + 1)
    return g


def cycle_graph(n: int) -> Graph:
    """Simple cycle on n >= 3 vertices."""
    g = path_graph(n)
    if n >= 3:
        g.add_edge(n - 1, 0)
    return g


def star_graph(n: int) -> Graph:
    """Star: vertex 0 joined to 1..n-1 (Delta = n-1)."""
    g = Graph(n)
    for v in range(1, n):
        g.add_edge(0, v)
    return g


def gnp_random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p)."""
    rng = SeededRng(seed)
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def random_max_degree_graph(n: int, delta: int, seed: int, fill: float = 0.9) -> Graph:
    """Random graph with max degree <= delta and roughly ``fill * n * delta / 2`` edges.

    Edges are proposed uniformly at random and accepted while both endpoints
    are below the degree cap; proposals stop after enough failures, so the
    graph is near-``delta``-regular for ``fill`` close to 1.
    """
    if delta >= n:
        raise ParameterError(f"delta={delta} must be < n={n}")
    rng = SeededRng(seed)
    g = Graph(n)
    target = int(fill * n * delta / 2)
    budget = 20 * target + 1000
    while g.m < target and budget > 0:
        budget -= 1
        u = rng.randint(0, n - 1)
        v = rng.randint(0, n - 1)
        if u == v:
            continue
        if g.degree(u) >= delta or g.degree(v) >= delta:
            continue
        g.add_edge(u, v)
    return g


def random_bipartite_graph(n: int, delta: int, seed: int) -> Graph:
    """Random bipartite graph on halves {0..n/2-1}, {n/2..n-1}, degree cap delta."""
    rng = SeededRng(seed)
    g = Graph(n)
    half = n // 2
    if half == 0:
        return g
    target = int(0.8 * n * delta / 2)
    budget = 20 * target + 1000
    while g.m < target and budget > 0:
        budget -= 1
        u = rng.randint(0, half - 1)
        v = rng.randint(half, n - 1)
        if g.degree(u) >= delta or g.degree(v) >= delta:
            continue
        g.add_edge(u, v)
    return g


def clique_blowup_graph(n: int, clique_size: int) -> Graph:
    """Disjoint cliques of the given size covering 0..n-1 (Delta = size-1)."""
    g = Graph(n)
    for start in range(0, n, clique_size):
        members = range(start, min(start + clique_size, n))
        for u in members:
            for v in members:
                if u < v:
                    g.add_edge(u, v)
    return g


def shared_neighborhood_graph(groups: int, group_size: int, hubs: int) -> Graph:
    """Groups of twins sharing all their (hub) neighbors.

    Vertices ``0 .. groups*group_size - 1`` are partitioned into groups;
    every member of group ``i`` is joined to the same ``hubs`` hub
    vertices (appended after the twins).  Twins have *identical*
    neighborhoods, so under any coloring-by-hashing scheme they collide
    maximally — the stress case for Algorithm 1's conflict potential and
    for the robust algorithms' block recoloring.
    """
    n = groups * group_size + hubs
    g = Graph(n)
    hub_base = groups * group_size
    for i in range(groups):
        for j in range(group_size):
            v = i * group_size + j
            for h in range(hubs):
                g.add_edge(v, hub_base + h)
    return g


def random_list_assignment(
    graph: Graph,
    palette_size: int,
    seed: int,
    slack: int = 0,
) -> dict[int, set[int]]:
    """Random per-vertex lists with ``|L_v| = deg(v) + 1 + slack``.

    Colors are drawn from ``[1, palette_size]``; the palette must be large
    enough (``palette_size >= max deg + 1 + slack``).  This is the workload
    for the (deg+1)-list-coloring experiments (Theorem 2).
    """
    rng = SeededRng(seed)
    max_needed = graph.max_degree() + 1 + slack
    if palette_size < max_needed:
        raise ParameterError(
            f"palette_size={palette_size} too small; need >= {max_needed}"
        )
    lists = {}
    universe = list(range(1, palette_size + 1))
    for v in range(graph.n):
        size = graph.degree(v) + 1 + slack
        lists[v] = set(rng.sample(universe, size))
    return lists


# ----------------------------------------------------------------------
# Vectorized edge-array generator (the block data plane's workload).
#
# The set-based generators above propose one edge at a time through Python
# loops, which dominates runtime long before any streaming pass does once
# n reaches 10^4-10^5.  The function below builds an (m, 2) int64 edge
# array with numpy only; it feeds StreamSource backends and CSRGraph
# directly and never materializes a Python object per edge.  It is a
# separate family (its seeds give different graphs than the loop-based
# generators), not a vectorized re-implementation of one.
# ----------------------------------------------------------------------


def near_regular_edge_array(n: int, degree: int, seed: int) -> np.ndarray:
    """Near-``degree``-regular edge array via random Hamiltonian cycles.

    Takes the union of ``degree // 2`` uniformly random cycles on all of
    ``[n]`` (plus one random perfect matching when ``degree`` is odd) and
    deduplicates.  Max degree is at most ``degree``; the graph is exactly
    regular up to the (rare, for ``degree << n``) collisions removed by the
    dedup.  Runs in O(m) numpy time — an n=10^5, degree=24 instance builds
    in milliseconds where the proposal-loop generator takes minutes.
    """
    if degree >= n:
        raise ParameterError(f"degree={degree} must be < n={n}")
    if n < 3 and degree > 0:
        raise ParameterError("need n >= 3 for a cycle construction")
    from repro.graph.csr import dedupe_edges

    rng = np.random.default_rng(seed)
    chunks = []
    for _ in range(degree // 2):
        perm = rng.permutation(n).astype(np.int64)
        chunks.append(np.stack([perm, np.roll(perm, -1)], axis=1))
    if degree % 2 == 1:
        # Random matching; for odd n a uniformly random vertex sits out
        # (the permutation is over all of [n], the trailing element drops).
        perm = rng.permutation(n).astype(np.int64)[: n - (n % 2)]
        chunks.append(perm.reshape(-1, 2))
    if not chunks:
        return np.empty((0, 2), dtype=np.int64)
    return dedupe_edges(n, np.concatenate(chunks))
