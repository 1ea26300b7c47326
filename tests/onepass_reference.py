"""The per-edge pseudocode of the one-pass algorithms, as a test reference.

A one-pass algorithm takes edges only through ``process_block``, which
reconstructs the pseudocode's per-edge bookkeeping for a whole block in
closed form.  The functions here transcribe that pseudocode one insertion
at a time onto an algorithm's own state: Algorithm 2 lines 10-17
(:func:`robust_process`), lines 6-14 of Algorithm 3 and the [CGS22]
baseline (:func:`dsketch_process`), and the one-shot strawman's conflict
store (:func:`oneshot_process`).  Tests feed one stream both ways and
compare the errors, the queries and ``state_dict()``.
"""

import numpy as np

from repro.baselines.naive import OneShotRandomColoring
from repro.common.exceptions import ReproError
from repro.common.integer_math import ceil_div
from repro.core.dsketch import DSketchColoring
from repro.core.robust import RobustColoring
from repro.streaming.blocks import append_rows, cached_hash_rows


def level_of_degree(algo: RobustColoring, d: int) -> int:
    """Level ``l`` such that degree is in ``((l-1) T, l T]`` (T = fast threshold)."""
    return max(1, ceil_div(d, algo.params.fast_threshold))


def robust_process(algo: RobustColoring, u: int, v: int) -> None:
    """Algorithm 2, lines 10-17 for one insertion.

    A self-loop or an edge past the degree promise raises
    :class:`ReproError` before any state changes.
    """
    p = algo.params
    if u == v:
        raise ReproError(
            f"self-loop ({u},{v}) at stream index {algo._edges_seen}"
        )
    du, dv = algo._degree.item(u), algo._degree.item(v)
    if du >= algo.delta or dv >= algo.delta:
        raise ReproError(
            f"edge ({u},{v}) at stream index {algo._edges_seen} exceeds the "
            f"promised max degree {algo.delta}"
        )
    # Lines 10-11: roll the buffer/epoch when full.
    if len(algo._buffer) == p.buffer_capacity:
        algo._roll_buffer(1)
    algo._buffer = append_rows(algo._buffer, ((u, v),), p.buffer_capacity)
    algo._buffer_degree[u] += 1
    algo._buffer_degree[v] += 1
    # Line 13: degree counters.
    algo._degree[u] = du + 1
    algo._degree[v] = dv + 1
    algo._edges_seen += 1
    # Lines 14-15: h_i-sketches for future epochs.
    epochs = [
        i for i in range(algo._curr + 1, p.num_epochs + 1)
        if algo._h[i - 1](u) == algo._h[i - 1](v)
    ]
    if epochs:
        algo._a_edges = append_rows(algo._a_edges, ((u, v),) * len(epochs))
        algo._a_ids = append_rows(algo._a_ids, epochs)
    # Lines 16-17: g_i-sketches for levels above both endpoints.
    top = level_of_degree(algo, max(du, dv) + 1)
    levels = [
        i for i in range(top + 1, p.num_levels + 1)
        if algo._g[i - 1](u) == algo._g[i - 1](v)
    ]
    if levels:
        algo._c_edges = append_rows(algo._c_edges, ((u, v),) * len(levels))
        algo._c_ids = append_rows(algo._c_ids, levels)
    algo._update_space()


def hash_all(algo: DSketchColoring, x: int) -> np.ndarray:
    """Values ``h_{i,j}(x)`` for all (i, j): row ``x`` of the hash table."""
    return cached_hash_rows(algo, np.array([x], dtype=np.int64))[x]


def dsketch_process(algo: DSketchColoring, u: int, v: int) -> None:
    """Algorithm 3 and [CGS22], lines 6-14 for one insertion.

    A self-loop raises :class:`ReproError` before any state changes.
    """
    capacity = algo.buffer_capacity
    if u == v:
        index = (algo._curr - 1) * capacity + len(algo._buffer)
        raise ReproError(f"self-loop ({u},{v}) at stream index {index}")
    # Lines 6-8: buffer roll.
    if len(algo._buffer) == capacity:
        algo._buffer = algo._buffer[:0]
        algo._curr += 1
    algo._buffer = append_rows(algo._buffer, ((u, v),), capacity)
    # Lines 9-14: future epochs' sketches.  Monochromatic (i, j) pairs
    # are rare, so find them vectorized and only touch those sketches;
    # column i holds epoch i + 1, which takes the edge while curr <= i.
    mono_i, mono_j = np.nonzero(hash_all(algo, u) == hash_all(algo, v))
    reps = algo._d_sizes.shape[1]
    grow, wipe = [], []
    for i, j in zip(mono_i.tolist(), mono_j.tolist()):
        size = algo._d_sizes[i, j]
        if i < algo._curr or size < 0:
            continue
        (grow if size < algo.overflow_cap else wipe).append(i * reps + j)
    if grow:
        algo._store(((u, v),) * len(grow), grow)
    if wipe:
        algo._wipe(wipe)  # it grew too large (line 14)
    algo._update_space()


def oneshot_process(algo: OneShotRandomColoring, u: int, v: int) -> None:
    """Store a monochromatic edge while the store has room, else drop it."""
    if algo._chi[u] == algo._chi[v]:
        if len(algo._stored) < algo.capacity:
            algo._store(u, v)
        else:
            algo.dropped_edges += 1  # silently improper from here on


_PROCESS = (
    (RobustColoring, robust_process),
    (DSketchColoring, dsketch_process),
    (OneShotRandomColoring, oneshot_process),
)


def feed(algo, edges) -> None:
    """Every edge of ``edges``, in order, through the per-edge body of
    ``algo``'s class."""
    for cls, body in _PROCESS:
        if isinstance(algo, cls):
            for u, v in np.asarray(edges).tolist():
                body(algo, u, v)
            return
    raise TypeError(f"no per-edge reference for {type(algo).__name__}")


class ReferenceFed:
    """``algo`` with every ``process_block`` call fed edge by edge through
    the reference; everything else is ``algo``'s own."""

    def __init__(self, algo):
        self.algo = algo

    def process_block(self, edges) -> None:
        feed(self.algo, edges)

    def __getattr__(self, name):
        return getattr(self.algo, name)
