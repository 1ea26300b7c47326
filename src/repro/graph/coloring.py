"""Offline coloring subroutines and validation.

Colors are positive integers (the paper's canonical palette ``[Delta+1]`` is
``{1, ..., Delta+1}``).  A coloring is a dict ``vertex -> color``; a *partial*
coloring may omit vertices or map them to ``None``.
"""

from repro.common.exceptions import (
    ImproperColoringError,
    ListViolationError,
    PaletteExceededError,
    ReproError,
)
from repro.graph.graph import Graph


def first_missing_positive(used) -> int:
    """Smallest positive integer not in the set ``used``."""
    c = 1
    while c in used:
        c += 1
    return c


def greedy_coloring(graph: Graph, order=None, palette_size=None) -> dict[int, int]:
    """Greedy (first-fit) proper coloring in the given vertex order.

    Uses at most ``max_degree + 1`` colors.  If ``palette_size`` is given and
    the greedy choice would exceed it, raises :class:`PaletteExceededError`.
    """
    if order is None:
        order = range(graph.n)
    coloring: dict[int, int] = {}
    for v in order:
        used = {coloring[w] for w in graph.neighbors(v) if w in coloring}
        c = first_missing_positive(used)
        if palette_size is not None and c > palette_size:
            raise PaletteExceededError(v, c, palette_size)
        coloring[v] = c
    return coloring


def greedy_list_coloring(graph: Graph, lists: dict[int, set[int]], order=None):
    """Greedy list coloring: each vertex gets the smallest free color on its list.

    Succeeds whenever ``|L_v| >= deg(v) + 1`` for all ``v`` (the
    ``(deg+1)``-list-coloring regime of Theorem 2).  Raises
    :class:`ReproError` if some vertex has no free color.
    """
    if order is None:
        order = range(graph.n)
    coloring: dict[int, int] = {}
    for v in order:
        used = {coloring[w] for w in graph.neighbors(v) if w in coloring}
        free = sorted(lists[v] - used)
        if not free:
            raise ReproError(f"greedy list coloring stuck at vertex {v}")
        coloring[v] = free[0]
    return coloring


def complete_partial_coloring(
    graph: Graph,
    coloring: dict[int, int],
    uncolored,
    lists: dict[int, set[int]],
) -> None:
    """Extend a proper partial coloring greedily over ``uncolored``, in place.

    This is the final pass of Algorithm 1 (line 7): every uncolored vertex
    picks a color from its list that no neighbor uses.  Succeeds whenever
    ``|L_v| >= deg(v) + 1``.
    """
    for v in uncolored:
        used = {coloring[w] for w in graph.neighbors(v) if coloring.get(w) is not None}
        free = sorted(lists[v] - used)
        if not free:
            raise ReproError(f"cannot complete coloring at vertex {v}")
        coloring[v] = free[0]


def is_proper_coloring(graph: Graph, coloring: dict[int, int]) -> bool:
    """Check partial-coloring properness (uncolored vertices never conflict)."""
    for u, v in graph.edges():
        cu = coloring.get(u)
        cv = coloring.get(v)
        if cu is not None and cu == cv:
            return False
    return True


def monochromatic_edges(graph: Graph, coloring: dict[int, int]):
    """List the edges violated by the (partial) coloring."""
    bad = []
    for u, v in graph.edges():
        cu = coloring.get(u)
        cv = coloring.get(v)
        if cu is not None and cu == cv:
            bad.append((u, v))
    return bad


def num_colors_used(coloring: dict[int, int]) -> int:
    """Number of distinct colors assigned (ignores ``None``)."""
    return len({c for c in coloring.values() if c is not None})


def validate_coloring(
    graph: Graph,
    coloring: dict[int, int],
    palette_size=None,
    lists=None,
    require_total=True,
) -> None:
    """Raise a specific exception if the coloring is invalid.

    Checks, in order: totality (if required), properness, palette bound
    (colors must lie in ``[1, palette_size]``), and list membership.
    """
    if require_total:
        for v in range(graph.n):
            if coloring.get(v) is None:
                raise ReproError(f"vertex {v} left uncolored")
    for u, v in graph.edges():
        cu = coloring.get(u)
        cv = coloring.get(v)
        if cu is not None and cu == cv:
            raise ImproperColoringError(u, v, cu)
    if palette_size is not None:
        for v, c in coloring.items():
            if c is not None and not 1 <= c <= palette_size:
                raise PaletteExceededError(v, c, palette_size)
    if lists is not None:
        for v, c in coloring.items():
            if c is not None and c not in lists[v]:
                raise ListViolationError(v, c)


def coloring_array(n: int, coloring: dict[int, int]):
    """A length-n int64 numpy array of colors, 0 where unset/``None``.

    The one canonical dict-to-array conversion the vectorized paths share
    (validators, properness measures, the block data plane's state
    snapshots).
    """
    import numpy as np

    colors = np.zeros(n, dtype=np.int64)
    for v, c in coloring.items():
        if c is not None:
            colors[v] = c
    return colors


def first_monochromatic(colors, edges):
    """First edge of the ``(k, 2)`` array violated by ``colors``, or None.

    ``colors`` is a :func:`coloring_array`; 0 (unset) never conflicts.
    Any other equal pair is a violation — including out-of-domain
    non-positive colors, matching :func:`validate_coloring`'s
    ``is not None`` test.
    """
    import numpy as np

    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    cu = colors[edges[:, 0]]
    cv = colors[edges[:, 1]]
    bad = np.flatnonzero((cu != 0) & (cu == cv))
    if len(bad):
        i = int(bad[0])
        return int(edges[i, 0]), int(edges[i, 1]), int(cu[i])
    return None


def validate_coloring_blocks(
    n: int,
    edges,
    coloring: dict[int, int],
    palette_size=None,
    require_total=True,
) -> None:
    """Vectorized :func:`validate_coloring` over an ``(m, 2)`` edge array.

    Raises the same exceptions with the same witnesses (first violation in
    vertex/edge order) without materializing a :class:`Graph`.  List
    constraints are not supported here — list-coloring runs validate
    through :func:`validate_coloring` on the reconstructed graph.
    """
    import numpy as np

    colors = coloring_array(n, coloring)
    if require_total:
        unset = np.flatnonzero(colors == 0)
        if len(unset):
            raise ReproError(f"vertex {int(unset[0])} left uncolored")
    witness = first_monochromatic(colors, edges)
    if witness is not None:
        raise ImproperColoringError(*witness)
    if palette_size is not None:
        out = np.flatnonzero((colors != 0) & ((colors < 1) | (colors > palette_size)))
        if len(out):
            v = int(out[0])
            raise PaletteExceededError(v, int(colors[v]), palette_size)
