"""Shared helpers for the one-pass algorithms' ``process_block``.

The sketch-based one-pass algorithms (Algorithms 2 and 3, the [CGS22]
baseline, the one-shot strawman) all follow the same shape: a buffer that
rolls when it reaches capacity, rare "monochromatic" sketch events found
by comparing hash values of the two endpoints, and per-edge space-gauge
updates.  ``process_block`` is their only way in: it takes a whole
``(k, 2)`` edge array at once, one edge or many, and these helpers
compute the per-edge bookkeeping of the paper's pseudocode (buffer
epochs, running degrees, sketch caps) in closed form, so the state after
a block equals the state after its edges one at a time.

The D-sketch algorithms (Algorithm 3 and the [CGS22] baseline, both
:class:`~repro.core.dsketch.DSketchColoring`) keep the values of all
their hash functions in one vertex-major ``(n, E, P)`` table of the
narrowest unsigned dtype that holds the range (uint8 at ``Delta = 24``),
filled row by row for the vertices a block touches
(:func:`cached_hash_rows`) with one exact matrix product per chunk.  A
block hands the table, its two raw endpoint columns and the first epoch
that can still receive an edge to the ``sketch_event_filter`` kernel,
applies the cap/wipe rule to every receiving sketch at once, and appends
the new rows to the sketch log with one amortised append
(:func:`sketch_process_block`).
"""


from repro.common.exceptions import ParameterError, ReproError
from repro.kernels import dispatch
import numpy as np

__all__ = [
    "append_rows",
    "buffer_timeline",
    "cached_hash_rows",
    "edge_rows",
    "group_pairs",
    "running_degrees",
    "sketch_process_block",
    "sorted_distinct",
]

#: Hash values computed per ``eval_coeffs`` call while filling a hash
#: table, which keeps the float64 product and its reduction temporaries
#: near 512 KB each; chunks of 2^20 values filled the n = 5000, Delta = 24
#: table about 1.4x slower.
HASH_FILL_VALUES = 1 << 16


def append_rows(live: np.ndarray, rows, limit=None) -> np.ndarray:
    """The array ``live`` with ``rows`` appended after it.

    ``live`` is an array of its own or the leading rows of its ``base``,
    the store, whose rows past ``live`` are spare.  The result is the
    leading rows of the same store, or of a new one twice the size (at
    most ``limit`` rows) when the store is full, so appends cost
    amortised ``O(len(rows))``.  The store keeps ``live``'s dtype and row
    shape.
    """
    store = live if live.base is None else live.base
    start = len(live)
    end = start + len(rows)
    if end > len(store):
        size = max(end, 2 * len(store), 16)
        if limit is not None:
            size = min(size, limit)
        store = np.empty((size,) + live.shape[1:], dtype=live.dtype)
        store[:start] = live
    store[start:end] = rows
    return store[:end]


def edge_rows(edges, empty: np.ndarray) -> np.ndarray:
    """A list of edge tuples as an ``(m, 2)`` array of ``empty``'s dtype,
    or ``empty`` itself when the list is empty.

    Restoring a checkpoint written by the list-based sketch code turns
    its buffers and sketches into edge arrays with it.
    """
    return np.array(edges, dtype=empty.dtype).reshape(-1, 2) if edges else empty


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of ``values``, ascending, as a 1-d array.

    One ``np.sort`` and a neighbour mask.  Plain ``np.unique`` gives the
    same array, but on numpy 2.x it imports ``numpy.ma`` (about 0.7 MB
    per process), and on an 8192-edge block it took 1.2 ms against
    0.19 ms (2-CPU x86_64 host, numpy 2.4).
    """
    flat = np.sort(values, axis=None)
    keep = np.empty(len(flat), dtype=bool)
    keep[:1] = True
    np.not_equal(flat[1:], flat[:-1], out=keep[1:])
    return flat[keep]


def group_pairs(pairs: np.ndarray):
    """Group directed ``(x, y)`` pairs by ``x``: yields ``(x, ys_array)``.

    The canonical vectorized adjacency reduction shared by the block
    passes: one stable sort on the first column, then boundary splits, so
    each group's ``ys`` keep their input order.  ``x`` is a Python int;
    ``ys`` an int64 array view.  The sort core runs through the
    kernel-dispatch layer (stable sorts share one unique permutation, so
    tiers agree bit for bit).
    """
    if not len(pairs):
        return
    xs, ys, starts = dispatch("group_pairs", pairs)
    for x, group in zip(xs[starts].tolist(), np.split(ys, starts[1:])):
        yield x, group


def buffer_timeline(start_len: int, capacity: int, k: int):
    """Per-edge roll counts and buffer lengths for a roll-at-capacity buffer.

    Models the sketch algorithms' rule: before each insertion, a buffer
    holding ``capacity`` edges is cleared (one *roll*); the edge is then
    appended.  For ``k`` insertions starting from ``start_len`` buffered
    edges, returns ``(rolls, lengths)`` int64 arrays of length ``k``:
    ``rolls[e]`` counts the rolls that happened at or before edge ``e``
    (the epoch while processing edge ``e`` is ``curr0 + rolls[e]``), and
    ``lengths[e]`` is the buffer size just after edge ``e``'s append.

    After the block, the buffer holds the last ``lengths[-1]`` edges; a
    roll occurred within the block iff ``rolls[-1] > 0``.
    """
    if capacity < 1:
        raise ParameterError(f"buffer capacity must be >= 1, got {capacity}")
    e = np.arange(k, dtype=np.int64)
    rolls = (start_len + e) // capacity
    lengths = (start_len + e) % capacity + 1
    return rolls, lengths


def running_degrees(deg0: np.ndarray, edges: np.ndarray):
    """Degrees of each edge's endpoints just *before* its own insertion.

    ``deg0`` is the degree array entering the block.  Returns a ``(k, 2)``
    int64 array where row ``e`` holds the degrees of ``edges[e]`` after
    the first ``e`` insertions of the block — the value the degree-cap
    check reads.  Degrees *after* edge ``e`` are this plus 1.
    The count of earlier occurrences comes from one sort of the ``2k``
    endpoints keyed by ``(vertex, position)``, in the kernel-dispatch
    layer; vertex ids must be below ``2^(63 - s)``, ``s`` the bit length
    of ``2k - 1``.
    """
    deg0 = np.ascontiguousarray(deg0, dtype=np.int64)
    edges = np.ascontiguousarray(edges, dtype=np.int64)
    return dispatch("running_degrees", deg0, edges)


def cached_hash_rows(algo, keys: np.ndarray) -> np.ndarray:
    """The D-sketch hash table of ``algo``, with the rows of ``keys`` filled.

    The table is ``(n, E, P)``: row ``x`` holds ``h_{i,j}(x)`` for every
    epoch ``i`` and repetition ``j``, in ``np.min_scalar_type(m - 1)``
    (uint8 for ``m <= 256``).  It is allocated on first use and filled
    lazily: ``keys`` is a 1-d int64 array of distinct vertices, and only
    the rows not yet filled are computed, each once, through
    ``family.eval_coeffs`` in chunks of about :data:`HASH_FILL_VALUES`
    values.  The table holds at most ``n`` rows by construction, and it
    is a simulation speedup only: the real algorithm re-evaluates from
    the stored ``O(log n)``-bit seeds, so snapshots skip it.
    """
    table = algo._hash_table
    if table is None:
        members = algo._coeffs.shape[:-1]
        table = algo._hash_table = np.empty(
            (algo.n,) + members, dtype=np.min_scalar_type(algo.family.m - 1)
        )
        algo._hash_filled = np.zeros(algo.n, dtype=bool)
    missing = keys[~algo._hash_filled[keys]]
    step = max(1, HASH_FILL_VALUES // max(1, algo._coeffs[..., 0].size))
    for start in range(0, len(missing), step):
        xs = missing[start:start + step]
        table[xs] = algo.family.eval_coeffs(algo._coeffs, xs)
    algo._hash_filled[missing] = True
    return table


def sketch_process_block(algo, edges: np.ndarray, *, capacity: int) -> None:
    """``process_block`` for the D-sketch algorithms.

    Shared by Algorithm 3 (:class:`~repro.core.robust_lowrandom.
    LowRandomnessRobustColoring`) and the [CGS22] baseline, whose lines
    6-14 differ only in parameters: roll the buffer at ``capacity``, hash
    both endpoints under every ``(epoch, repetition)`` polynomial, and
    append the rare monochromatic edges to the live future sketches
    ``D_{i, j}`` (wiping any that exceed ``algo.overflow_cap``).

    The events come from one gather per endpoint in the vertex-major hash
    table, over the epochs from the block's starting ``curr`` on (no
    earlier epoch can receive an edge).  A stable sort by sketch gives
    each event its rank among its sketch's events, which decides it
    against the room ``overflow_cap - |D_{i, j}|``: a lower rank
    appends, an equal rank wipes, a higher rank finds the sketch already
    wiped.  The appended rows go to the sketch log in discovery order
    with one amortised append; a wiped sketch's rows leave it.  A block
    holding a self-loop feeds the edges before it, then raises
    :class:`ReproError` naming the loop and its stream index.

    The state evolution — sketch contents and log, buffer, epoch
    counter, and the :class:`~repro.common.space.SpaceMeter` peak that
    per-edge ``_update_space`` calls would reach — does not depend on how
    the stream was cut into blocks.
    """
    edges = np.asarray(edges, dtype=np.int64)
    k = len(edges)
    if k == 0:
        return
    us = np.ascontiguousarray(edges[:, 0])
    vs = np.ascontiguousarray(edges[:, 1])
    loop = us == vs
    if loop.any():
        bad = int(np.argmax(loop))
        sketch_process_block(algo, edges[:bad], capacity=capacity)
        index = (algo._curr - 1) * capacity + len(algo._buffer)
        u, v = edges[bad].tolist()
        raise ReproError(f"self-loop ({u},{v}) at stream index {index}")
    start_len = len(algo._buffer)
    rolls, lengths = buffer_timeline(start_len, capacity, k)
    curr0 = algo._curr
    reps = algo._d_sizes.shape[1]
    # Size of every sketch D_{i + 1, j} by flat id i * reps + j; -1 once
    # wiped.
    sizes = algo._d_sizes.ravel()
    stored0 = len(algo._d_edges)
    table = cached_hash_rows(algo, sorted_distinct(edges))
    # Column i holds epoch i + 1, which takes the edge while curr <= i.
    ev_e, ev_i, ev_j = dispatch("sketch_event_filter", table, us, vs, curr0)
    sketch = ev_i * reps + ev_j
    keep = (ev_i >= curr0 + rolls[ev_e]) & (sizes[sketch] >= 0)
    ev_e, sketch = ev_e[keep], sketch[keep]
    # Rank of each event among its sketch's events, in stream order: one
    # stable sort by sketch (a radix sort once the ids are narrowed).
    order = np.argsort(sketch.astype(np.min_scalar_type(len(sizes))),
                       kind="stable")
    grouped = sketch[order]
    starts = np.flatnonzero(np.diff(grouped, prepend=-1))
    rank = np.empty(len(sketch), dtype=np.int64)
    rank[order] = np.arange(len(sketch)) - np.repeat(
        starts, np.diff(starts, append=len(sketch))
    )
    held = sizes[sketch]
    room = np.maximum(algo.overflow_cap - held, 0)
    append = rank < room
    wipe = rank == room
    # A wipe drops the sketch with everything it held, this block's
    # appends included.
    stored_delta = np.bincount(ev_e[append], minlength=k) - np.bincount(
        ev_e[wipe], weights=(held + room)[wipe], minlength=k
    ).astype(np.int64)
    wiped = sketch[wipe]
    if len(wiped):
        algo._wipe(wiped)  # line 14: the sketch grew too large
        append &= sizes[sketch] >= 0
    algo._store(edges[ev_e[append]], sketch[append])
    # Buffer and epoch counter.
    if rolls[-1] > 0:
        algo._buffer = append_rows(algo._buffer[:0], edges[k - int(lengths[-1]):],
                                   capacity)
    else:
        algo._buffer = append_rows(algo._buffer, edges, capacity)
    algo._curr = curr0 + int(rolls[-1])
    # Space peak of per-edge gauge updates, in closed form.
    # ``_update_space`` sets the D gauge before the buffer gauge, so at a
    # roll a per-edge update's transient total pairs the new sketch size
    # with the *pre-roll* buffer — reproduced here via the running maximum
    # of the adjacent buffer lengths.
    prev_lengths = np.concatenate(([start_len], lengths[:-1]))
    eff_lengths = np.maximum(lengths, prev_lengths)
    per_edge_total = (
        stored0 + np.cumsum(stored_delta) + eff_lengths
    ) * algo._edge_bits
    base = (
        algo.meter.current_bits
        - algo.meter.gauge("D sketches")
        - algo.meter.gauge("buffer B")
    )
    algo.meter.observe_peak(base + int(per_edge_total.max()))
    # Zero the varying gauges before the final update: setting one gauge
    # to its new value while the other still holds the pre-block value
    # would register a transient total no edge reaches.
    algo.meter.set_gauge("D sketches", 0)
    algo.meter.set_gauge("buffer B", 0)
    algo._update_space()
