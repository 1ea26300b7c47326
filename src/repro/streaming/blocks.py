"""Shared helpers for vectorized ``process_block`` implementations.

The sketch-based one-pass algorithms (Algorithms 2 and 3, the [CGS22]
baseline, the one-shot strawman) all follow the same shape: a buffer that
rolls when it reaches capacity, rare "monochromatic" sketch events found
by comparing hash values of the two endpoints, and per-edge space-gauge
updates.  Their block paths replay a whole ``(k, 2)`` edge array at once;
these helpers compute the sequential bookkeeping (buffer epochs, running
degrees, sketch caps) in closed form so each algorithm's
``process_block`` stays a thin, vectorized transcription of its scalar
``process``.

The D-sketch algorithms (Algorithm 3 and the [CGS22] baseline) keep the
values of all their hash functions in one vertex-major ``(n, E, P)``
table of the narrowest unsigned dtype that holds the range (uint8 at
``Delta = 24``), filled row by row for the vertices a block touches
(:func:`cached_hash_rows`).  A block hands the table and its two raw
endpoint columns to the ``sketch_event_filter`` kernel, then applies the
cap/wipe rule to every receiving sketch at once
(:func:`sketch_process_block`).
"""


from repro.common.exceptions import ParameterError
from repro.kernels import dispatch
import numpy as np

__all__ = [
    "buffer_timeline",
    "cached_hash_rows",
    "group_pairs",
    "running_degrees",
    "sketch_process_block",
]

#: Hash values computed per ``eval_coeffs`` call while filling a hash
#: table, which keeps its int64 Horner temporaries near 512 KB each.
HASH_FILL_VALUES = 1 << 16


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
    the first ``e`` insertions of the block — the value the scalar path's
    degree-cap check reads.  Degrees *after* edge ``e`` are this plus 1.
    The rank computation runs through the kernel-dispatch layer.
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
    """Vectorized ``process_block`` for the D-sketch algorithms.

    Shared by Algorithm 3 (:class:`~repro.core.robust_lowrandom.
    LowRandomnessRobustColoring`) and the [CGS22] baseline, whose scalar
    ``process`` differs only in parameters: roll the buffer at
    ``capacity``, hash both endpoints under every ``(epoch, repetition)``
    polynomial, and append the rare monochromatic edges to the live future
    sketches ``D_{i, j}`` (wiping any that exceed ``algo.overflow_cap``).

    The events come from one gather per endpoint in the vertex-major hash
    table.  They are grouped by sketch with one stable sort, so an
    event's rank among its sketch's events decides it against the room
    ``overflow_cap - len(D_{i, j})``: a lower rank appends, an equal rank
    wipes, a higher rank finds the sketch already wiped.  Each receiving
    sketch gets one ``list.extend``.  A block holding a self-loop falls
    back to the scalar loop, so the error names the same edge with the
    same partial state.

    The state evolution — sketch contents, buffer, epoch counter, and the
    :class:`~repro.common.space.SpaceMeter` peak that the scalar path
    reaches via per-edge ``_update_space`` calls — is bit-identical to the
    equivalent ``process`` sequence.
    """
    edges = np.asarray(edges, dtype=np.int64)
    k = len(edges)
    if k == 0:
        return
    us = np.ascontiguousarray(edges[:, 0])
    vs = np.ascontiguousarray(edges[:, 1])
    if (us == vs).any():
        for u, v in edges.tolist():
            algo.process(u, v)
        return
    start_len = len(algo._buffer)
    rolls, lengths = buffer_timeline(start_len, capacity, k)
    curr0 = algo._curr
    reps = algo._coeffs.shape[1]
    # Size of every sketch D_{i, j} by flat id i * reps + j; -1 once wiped.
    sizes = np.array(
        [[-1 if d is None else len(d) for d in d_i] for d_i in algo._d_sets],
        dtype=np.int64,
    ).ravel()
    stored0 = int(sizes[sizes > 0].sum())
    table = cached_hash_rows(algo, np.unique(edges))
    ev_e, ev_i, ev_j = dispatch("sketch_event_filter", table, us, vs)
    # Only the live sketches of future epochs (i > curr) take events.
    sketch = (ev_i + 1) * reps + ev_j
    keep = (ev_i >= curr0 + rolls[ev_e]) & (sizes[sketch] >= 0)
    # Group by sketch with one stable sort (a radix sort once the ids are
    # narrowed); within a sketch, events stay in stream order.
    ev_e, sketch = ev_e[keep], sketch[keep]
    order = np.argsort(sketch.astype(np.min_scalar_type(len(sizes))),
                       kind="stable")
    ev_e, sketch = ev_e[order], sketch[order]
    starts = np.flatnonzero(np.diff(sketch, prepend=-1))
    rank = np.arange(len(sketch)) - np.repeat(
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
    pairs = list(zip(us.tolist(), vs.tolist()))
    rows = [pairs[e] for e in ev_e[append].tolist()]
    receivers = sketch[append]
    first = np.flatnonzero(np.diff(receivers, prepend=-1))
    last = np.append(first[1:], len(receivers))
    for s, lo, hi in zip(receivers[first].tolist(), first.tolist(),
                         last.tolist()):
        i, j = divmod(s, reps)
        algo._d_sets[i][j].extend(rows[lo:hi])
    for s in sketch[wipe].tolist():
        i, j = divmod(s, reps)
        algo._d_sets[i][j] = None  # line 14: the sketch grew too large
    # Buffer and epoch counter.
    if rolls[-1] > 0:
        algo._buffer = pairs[k - int(lengths[-1]):]
    else:
        algo._buffer.extend(pairs)
    algo._curr = curr0 + int(rolls[-1])
    # Space peak: the scalar path updates gauges after every edge; the
    # per-edge totals are reconstructed in closed form instead.  The
    # scalar ``_update_space`` sets the D gauge before the buffer gauge,
    # so at a roll its transient total pairs the new sketch size with the
    # *pre-roll* buffer — reproduced here via the running maximum of the
    # adjacent buffer lengths.
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
    # would register a transient total the scalar path never reaches.
    algo.meter.set_gauge("D sketches", 0)
    algo.meter.set_gauge("buffer B", 0)
    algo._update_space()
