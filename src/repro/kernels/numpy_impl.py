"""The data plane's hot-loop kernels, in pure numpy.

Each function here is the hot inner loop of one algorithm layer, moved
out of its original call site so that every call goes through
:func:`repro.kernels.dispatch`, which counts and (on request) times it.

All kernels are array-in/array-out and state-free: no ``self``, no dict
lookups, no Python objects beyond ints/bools/strings.  Arithmetic-domain
guards (whether the arithmetic fits int64, or is exact in float64) live
at the *call sites*; kernels assume the mode they are given is
admissible.
"""

import numpy as np

__all__ = ["NUMPY_KERNELS"]


def mod_horner(coeffs: np.ndarray, xs: np.ndarray, p: int,
               stepwise: bool) -> np.ndarray:
    """Horner-evaluate ``sum_i coeffs[i] * x^i mod p`` over int64 keys.

    ``coeffs`` is low-to-high degree, values in ``[0, p)``; ``xs`` is 1-d
    int64.  With ``stepwise=False`` the accumulation is mod-free with one
    final reduction (caller guarantees ``horner_fits_int64``); with
    ``stepwise=True`` every step reduces mod ``p`` (caller guarantees the
    per-step product fits int64).
    """
    acc = np.zeros(xs.shape, dtype=np.int64)
    if stepwise:
        for d in range(len(coeffs) - 1, -1, -1):
            acc = (acc * xs + coeffs[d]) % p
        return acc
    for d in range(len(coeffs) - 1, -1, -1):
        acc = acc * xs + coeffs[d]
    return acc % p


def eval_coeffs(coeffs2: np.ndarray, xs: np.ndarray, p: int,
                mode: str) -> np.ndarray:
    """Evaluate ``M`` polynomial members at every key: ``(N, M)`` mod p.

    ``coeffs2`` is ``(M, k)`` int64 (low-to-high degree), ``xs`` 1-d
    int64; the result is int64.  ``mode`` picks the arithmetic, whose
    admissibility the caller checks:

    - ``"stepwise"``: Horner reducing every step, as in :func:`mod_horner`
      with ``stepwise=True``;
    - ``"float"``: one float64 product ``V @ C`` of the ``(N, k)`` powers
      ``V[t, d] = xs[t]^d mod p`` and the ``(k, M)`` coefficients, for
      ``k (p - 1)^2 < 2^53``.  Every term and partial sum of a dot product
      is then an integer below ``2^53``, so the product is exact in any
      summation order.  It is reduced with ``q = floor(y / p)`` taken as
      ``floor(y * (1 / p))``, which is off by at most one, so ``y - q p``
      is exact and one ``±p`` correction lands it in ``[0, p)``.
    """
    if mode == "float":
        k = coeffs2.shape[1]
        powers = np.empty((len(xs), k), dtype=np.int64)
        powers[:, 0] = 1
        x = xs % p
        for d in range(1, k):
            powers[:, d] = powers[:, d - 1] * x % p
        y = powers.astype(np.float64) @ coeffs2.T.astype(np.float64)
        q = y * (1.0 / p)
        np.floor(q, out=q)
        q *= p
        y -= q
        y[y < 0] += p
        y[y >= p] -= p
        return y.astype(np.int64)
    k = coeffs2.shape[1]
    x_col = xs.reshape(-1, 1)
    acc = np.zeros((len(xs), coeffs2.shape[0]), dtype=np.int64)
    for d in range(k - 1, -1, -1):
        acc = (acc * x_col + coeffs2[:, d]) % p
    return acc


def partition_class_array(a: int, b: int, p: int, s: int,
                          universe: int) -> np.ndarray:
    """Color -> class array for the 2-universal partition ``(a, b)``.

    ``arr[c] = ((a c + b) mod p) mod s`` for ``c`` in ``1..universe``;
    index 0 is unused (colors are 1-based) and set to 0.  The caller
    guarantees ``a * universe + b`` fits int64 (``horner_fits_int64``).
    """
    arr = np.zeros(universe + 1, dtype=np.int64)
    xs = np.arange(1, universe + 1, dtype=np.int64)
    arr[1:] = (a * xs + b) % p % s
    return arr


def sketch_event_filter(table: np.ndarray, us: np.ndarray, vs: np.ndarray,
                        first: int):
    """Monochromatic ``(edge, epoch, repetition)`` events of a D-sketch block.

    ``table`` is the vertex-major ``(n, epochs, reps)`` hash table, in any
    integer dtype (uint8 or uint16 in practice); ``us`` / ``vs`` are the
    block's raw int64 endpoint ids, so edge ``t`` compares rows ``us[t]``
    and ``vs[t]``.  Only epoch columns ``i >= first`` are scanned.
    Returns three int64 arrays ``(ev_e, ev_i, ev_j)`` in row-major order
    — by edge, then epoch, then repetition — the order of the
    pseudocode's per-edge loop.

    Both endpoints' rows, from column ``first`` on, are gathered for edge
    sub-batches of about 2^18 table entries, which bounds the
    temporaries; the flat positions of the equal entries then split into
    the three indices by ``divmod``.
    """
    k = len(us)
    epochs, reps = table.shape[1:]
    if k == 0 or first >= epochs or not table.size:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    rows = table.reshape(len(table), epochs * reps)
    start_col = first * reps
    row_size = (epochs - first) * reps
    sub = max(1, (1 << 18) // row_size)
    flat = np.concatenate([
        np.flatnonzero(
            rows[us[start:start + sub], start_col:]
            == rows[vs[start:start + sub], start_col:]
        ) + start * row_size
        for start in range(0, k, sub)
    ])
    ev_e, rest = np.divmod(flat, row_size)
    ev_i, ev_j = np.divmod(rest, reps)
    return ev_e, ev_i + first, ev_j


def running_degrees(deg0: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Degrees of each edge's endpoints just *before* its own insertion.

    ``deg0`` is the int64 degree array entering the block and ``edges``
    the ``(k, 2)`` int64 block; returns a ``(k, 2)`` int64 array (see
    ``streaming.blocks.running_degrees``).  One in-place ``np.sort`` of
    the distinct int64 keys ``(vertex << s) | position``, ``s`` the bit
    length of ``2k - 1``, puts the endpoints in their stable sorted
    order, so an endpoint's rank in its vertex's run counts the earlier
    occurrences of that vertex; the degrees are read in sorted order and
    the sums scattered back once.  The keys fit while vertex ids are
    below ``2^(63 - s)``.
    """
    flat = edges.ravel()
    shift = (len(flat) - 1).bit_length()
    position = np.arange(len(flat), dtype=np.int64)
    keys = flat << shift
    keys |= position
    keys.sort()
    vertex = keys >> shift
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(vertex[1:], vertex[:-1], out=first[1:])
    # The sorted position where each endpoint's run starts.
    start = np.where(first, position, 0)
    np.maximum.accumulate(start, out=start)
    before = deg0[vertex] + position
    before -= start
    out = np.empty(len(flat), dtype=np.int64)
    out[keys & ((1 << shift) - 1)] = before
    return out.reshape(-1, 2)


def group_pairs(pairs: np.ndarray):
    """Sort core of the grouped adjacency reduction.

    One stable sort on the first column, then boundary detection.
    Returns ``(xs_sorted, ys_sorted, starts)``: the sorted key/value
    columns (int64) and the int64 start offsets of each equal-``x`` run
    (``starts[0] == 0``).  Stability makes the permutation unique, so any
    stable sort gives the same arrays.
    """
    order = np.argsort(pairs[:, 0], kind="stable")
    xs = pairs[order, 0].astype(np.int64, copy=False)
    ys = pairs[order, 1].astype(np.int64, copy=False)
    boundaries = np.flatnonzero(np.diff(xs)) + 1
    starts = np.concatenate(([0], boundaries)).astype(np.int64)
    return xs, ys, starts


def det_slack_keys(x: np.ndarray, y: np.ndarray, chi_arr: np.ndarray,
                   unc: np.ndarray, cube_value: np.ndarray, low_mask: int,
                   fixed: int, s: int) -> np.ndarray:
    """Flat ``(vertex, pattern)`` histogram keys of one slack-pass direction.

    For each directed pair ``(x, y)``: if ``x`` is uncolored, ``y`` is
    colored, and ``chi(y)`` lies in ``x``'s subcube (low bits match the
    cube value), emit key ``x * s + pattern`` where ``pattern`` is the
    color's free-bit block.  Selection order is input order.
    """
    cy = chi_arr[y]
    sel = unc[x] & (cy > 0) & (((cy - 1) & low_mask) == cube_value[x])
    if not sel.any():
        return np.empty(0, dtype=np.int64)
    pattern = ((cy[sel] - 1) >> fixed) & (s - 1)
    return x[sel] * s + pattern


def det_conflict_mask(u: np.ndarray, v: np.ndarray, unc: np.ndarray,
                      cube_value: np.ndarray) -> np.ndarray:
    """Mask of edges whose endpoints are both uncolored in the same subcube."""
    return unc[u] & unc[v] & (cube_value[u] == cube_value[v])


def chain_conflict_mask(u: np.ndarray, v: np.ndarray, member_mask: np.ndarray,
                        chain_matrix: np.ndarray) -> np.ndarray:
    """Mask of edges whose endpoints are members sharing the same chain."""
    sel = member_mask[u] & member_mask[v]
    for t in range(chain_matrix.shape[0]):
        sel &= chain_matrix[t, u] == chain_matrix[t, v]
    return sel


def contains_pairs(part_stack: np.ndarray, chain_matrix: np.ndarray,
                   xs: np.ndarray, colors: np.ndarray) -> np.ndarray:
    """Mask where ``colors[i]`` lies in ``P_{xs[i]}`` — the chain walk.

    ``part_stack`` stacks the stage class arrays ``(stages, universe+1)``;
    ``chain_matrix`` is ``(stages, n)`` with -1 for non-members.
    """
    mask = np.ones(len(xs), dtype=bool)
    for t in range(part_stack.shape[0]):
        mask &= part_stack[t][colors] == chain_matrix[t, xs]
    return mask


def partition_scores(sub_table: np.ndarray, survivors: np.ndarray,
                     group_ids: np.ndarray, num_groups: int,
                     s: int) -> np.ndarray:
    """Per-group ``a_R`` increments of one list token (Lemma 3.10 scoring).

    ``sub_table`` is the ``(M, universe+1)`` class table over the
    candidate members; ``survivors`` the token's colors still inside
    ``P_x``.  Per member: occupancy bincount over its ``s`` classes, then
    ``max(0, max_class_occupancy - 1)``; summed per group.  All values
    are small integers, so the float64 sums are exact — bit-identical
    regardless of summation order.
    """
    m_count = sub_table.shape[0]
    offsets = np.arange(m_count, dtype=np.int64)[:, None] * s
    occupancy = np.bincount(
        (sub_table[:, survivors] + offsets).ravel(),
        minlength=m_count * s,
    ).reshape(m_count, s)
    per_member = np.maximum(0, occupancy.max(axis=1) - 1)
    return np.bincount(group_ids, weights=per_member, minlength=num_groups)


#: Name -> implementation; :func:`repro.kernels.dispatch` looks kernels
#: up here.
NUMPY_KERNELS = {
    "mod_horner": mod_horner,
    "eval_coeffs": eval_coeffs,
    "partition_class_array": partition_class_array,
    "sketch_event_filter": sketch_event_filter,
    "running_degrees": running_degrees,
    "group_pairs": group_pairs,
    "det_slack_keys": det_slack_keys,
    "det_conflict_mask": det_conflict_mask,
    "chain_conflict_mask": chain_conflict_mask,
    "contains_pairs": contains_pairs,
    "partition_scores": partition_scores,
}
