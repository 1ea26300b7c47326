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


def first_fit_colors(edges, colors) -> None:
    """First-fit colors, in ascending vertex order, of the graph on ``edges``.

    ``edges`` is an ``(m, 2)`` integer array, repeats and either
    orientation allowed; the colors go into ``colors``, an int64 array
    that must hold 1 for every vertex.  A vertex sees only its lower
    neighbours, which are colored before it, so one without lower
    neighbours keeps color 1: this is :func:`greedy_coloring` in vertex
    order on the graph of ``edges`` (and, on a disjoint union of blocks,
    on each block in ascending order), without building the graph.
    """
    import numpy as np

    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    low = np.minimum(edges[:, 0], edges[:, 1])
    high = np.maximum(edges[:, 0], edges[:, 1])
    by_high = np.argsort(high, kind="stable")
    high, low = high[by_high], low[by_high].tolist()
    first = np.flatnonzero(np.diff(high, prepend=-1))
    last = np.append(first[1:], len(high))
    color: dict[int, int] = {}
    for v, lo, hi in zip(high[first].tolist(), first.tolist(), last.tolist()):
        color[v] = first_missing_positive({color.get(w, 1) for w in low[lo:hi]})
    colors[list(color)] = list(color.values())


def complete_partial_coloring(coloring: dict[int, int], order, neighbors, allowed) -> None:
    """Extend a proper partial coloring first-fit over ``order``, in place.

    The final pass of Theorems 1 and 2 (Algorithm 1, line 7): each vertex
    ``v`` in ``order`` takes the smallest color of the set ``allowed(v)``
    (``[Delta+1]`` for Theorem 1, ``L_v`` for Theorem 2) that none of
    ``neighbors(v)`` holds.  Succeeds whenever ``|allowed(v)| >= deg(v) + 1``.
    """
    for v in order:
        used = {coloring[w] for w in neighbors(v) if coloring.get(w) is not None}
        free = allowed(v) - used
        if not free:
            raise ReproError(f"final pass found no free color for vertex {v}")
        coloring[v] = min(free)


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


def coloring_and_unset(n: int, coloring: dict[int, int]):
    """``(colors, unset)``: :func:`coloring_array` and the mask of the
    vertices that have no color (missing or ``None``).

    The array's 0 stands both for "no color" and for color 0, which is
    outside every palette but still a color; the dict tells the two apart,
    looked up at the zeros only.
    """
    import numpy as np

    colors = coloring_array(n, coloring)
    unset = colors == 0
    zeros = np.flatnonzero(unset)
    if len(zeros):
        unset[zeros] = [coloring.get(v) is None for v in zeros.tolist()]
    return colors, unset


def first_monochromatic(colors, unset, edges):
    """First edge of the ``(k, 2)`` array violated by ``colors``, or None.

    ``colors`` and ``unset`` come from :func:`coloring_and_unset`.  Two
    adjacent vertices with equal colors are a violation unless one of them
    has no color, matching :func:`validate_coloring`'s ``is not None``
    test, so out-of-domain colors such as 0 conflict too.
    """
    import numpy as np

    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    cu = colors[edges[:, 0]]
    same = np.flatnonzero(cu == colors[edges[:, 1]])
    if len(same):
        same = same[~(unset[edges[same, 0]] | unset[edges[same, 1]])]
    if len(same):
        i = int(same[0])
        return int(edges[i, 0]), int(edges[i, 1]), int(cu[i])
    return None
