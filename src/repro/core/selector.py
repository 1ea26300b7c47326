"""Derandomized proposal selection: the g_w map and the hash-family search.

This module implements the heart of Algorithm 1's stage (lines 13-27):

1. Each uncolored vertex ``x`` has *candidate proposals* (for Algorithm 1,
   the ``2^k`` bit patterns of eq. (6); for the list-coloring extension,
   classes of a Lemma 3.10 partition, or individual colors in the final
   stage).  Each candidate carries a nonnegative integer *slack* value; the
   target sampling distribution is ``w_{x,j} = slack_j / sum_i slack_i``
   (eq. (4)).

2. The ``g_w`` rounding map of Lemma 3.2 converts a uniform value in
   ``[p]`` into a draw from (approximately) ``w_{x, .}``: candidate ``j``
   owns a contiguous block of ``floor(p * w_{x,j} * (1 + 1/(8 log n)))``
   slots.  Implementation note (DESIGN.md section 3): every positive-weight
   candidate is guaranteed at least one slot and leftover slots go to the
   last positive candidate, so the map is total even when the caller uses a
   smaller-than-paper prime; this preserves the crucial invariant that only
   positive-slack candidates can be selected (Lemma 3.6).

3. The Carter-Wegman family ``H = {x -> ax+b mod p}`` is searched for a
   member ``h*`` whose induced proposal assignment has (near-)minimal
   potential contribution ``sum_edges 1{cid_u = cid_v} (1/slack_u +
   1/slack_v)`` (eq. (2) restricted to conflict edges).  The search follows
   the paper's two-level scheme: split ``H`` into ``sqrt(|H|) = p`` parts
   keyed by the coefficient ``a`` (pass 2: per-part sums), then scan the
   best part over ``b`` (pass 3: per-member sums).  Exact computation is a
   sub-case of the paper's ``(1 + 1/(8 log n))``-approximate accumulators;
   the space charge is the same ``O(sqrt(|H|) log n)`` bits.

Both sums use the affine structure of ``H``.  An edge ``(u, v)`` collides
on a shared candidate ``c`` exactly when ``h(u)`` lies in ``u``'s block
``A_c`` and ``h(v)`` in ``v``'s block ``B_c``.

- **Part sums**, ``Θ(|E_U| 2^k + #δ p)`` with ``#δ < 2n`` distinct values
  of ``δ = (v - u) mod p``.  Within part ``a``, ``h(v) - h(u) = a δ`` is
  fixed, so the sum over ``b`` is the cyclic overlap profile
  ``S_δ[d] = sum_c W_c |A_c ∩ (B_c - d)|`` read at ``d = a δ``.  Each
  overlap is a trapezoid in ``d`` with four second-difference impulses, so
  a group's profile follows from its sorted impulses and its closed-form
  values at ``d = p - 1`` and ``d = p - 2`` with one width-``p``
  cumulative sum; a discrete-log table turns the read at ``a δ mod p``
  into a shifted read of one shared index.  The weights ``1/s_u + 1/s_v``
  are scaled by the lcm ``L`` of the slacks involved, so this runs in
  exact int64 (in Python integers when ``2 L p |E_U|`` would reach
  ``2^62``).
- **Member sums**, ``Θ(|E_U| 2^k)`` interval arithmetic plus one slice
  add per colliding interval: for fixed ``a`` the colliding ``b`` of one
  shared candidate form ``(A_c - a u) ∩ (B_c - a v)``, at most four
  linear intervals on ``Z_p``.

**Tie-break contract.**  :meth:`SlackWeightedSelector.best_part` and
:meth:`~SlackWeightedSelector.best_member` take the ``argmin`` of either
array, so both must reproduce the historical selection bit for bit: *the
first minimizer of float64 sums accumulated edge by edge, in the order of
``conflict_edges``*.  Exact arithmetic alone does not give that — exact
ties (and float ties of exactly unequal sums) are broken by rounding.
``member_sums`` performs the very same float additions in the very same
order, so its array is bit-identical.  ``part_sums`` returns the exact sums
as floats, except that every part whose exact sum lies within the proven
float-error band of the exact minimum — every term is nonnegative, so the
historical accumulation has relative error at most ``γ_m``,
``m = |E_U| + 2^k + O(1)`` — is re-scored with the historical per-edge
formula in edge order; parts outside the band cannot be the float
minimizer.  Edge order therefore matters only for that re-score and for
the member sums' rounding.

Candidates are identified by *canonical ids* (cids) shared across vertices,
so that ``cid_u == cid_v`` means "the two proposals land in the same color
class" — for subcube stages the cid is the bit pattern ``j``; for the final
list-coloring stage it is the color itself.
"""

import math
from typing import NamedTuple

import numpy as np

from repro.common.exceptions import ReproError
from repro.common.integer_math import ceil_log2, primitive_root

#: Elements per temporary of the float re-score (2**16 float64 = 512 KiB).
_CHUNK_ELEMS = 1 << 16

#: The exact int64 tier needs every intermediate below this bound.
_INT64_LIMIT = 2**62


class VertexBlocks:
    """The g_w map for one vertex: cids, slacks, and slot-block boundaries."""

    __slots__ = ("cids", "slacks", "sizes", "cum")

    def __init__(self, cids: np.ndarray, slacks: np.ndarray, sizes: np.ndarray):
        self.cids = cids
        self.slacks = slacks
        self.sizes = sizes
        self.cum = np.concatenate(([0], np.cumsum(sizes)))

    def cid_of_slot(self, t: int) -> int:
        """The candidate owning slot ``t`` (g_w(x, t))."""
        idx = int(np.searchsorted(self.cum, t, side="right")) - 1
        idx = min(idx, len(self.cids) - 1)
        return int(self.cids[idx])


class _Packed(NamedTuple):
    """Every registered vertex's blocks, flattened for vectorized lookup."""

    row: np.ndarray  # vertex id -> pack row (-1: unregistered)
    start: np.ndarray  # pack row -> first flat candidate
    count: np.ndarray  # pack row -> number of candidates
    cid: np.ndarray  # flat candidate -> cid
    slack: np.ndarray
    lo: np.ndarray  # flat candidate -> block start slot
    hi: np.ndarray  # flat candidate -> block end slot (exclusive)
    keys: np.ndarray  # sorted (pack row * width + cid)
    key_order: np.ndarray  # keys[i] belongs to flat candidate key_order[i]
    width: int


class _SharedBlocks(NamedTuple):
    """One row per (conflict edge, shared candidate), in edge order and,
    within an edge, in the order of ``u``'s candidates."""

    edge: np.ndarray  # index into the conflict-edge array
    a0: np.ndarray  # u's block [a0, a1) of the candidate
    a1: np.ndarray
    b0: np.ndarray  # v's block [b0, b1) of the candidate
    b1: np.ndarray
    su: np.ndarray  # the two slacks
    sv: np.ndarray
    weight: np.ndarray  # float64 1/su + 1/sv, rounded as the sums round it


def _as_edges(conflict_edges) -> np.ndarray:
    return np.asarray(conflict_edges, dtype=np.int64).reshape(-1, 2)


def _cyclic_overlap(a0, a1, b0, b1, d, p: int):
    """``|[a0, a1) ∩ ([b0, b1) - d)|`` on ``Z_p`` (blocks never wrap)."""
    t0 = (b0 - d) % p
    end = t0 + (b1 - b0)
    ov = np.maximum(0, np.minimum(a1, np.minimum(end, p)) - np.maximum(a0, t0))
    ov += np.maximum(0, np.minimum(a1, end - p) - a0)
    return ov


def int64_exact(scale: int, p: int, num_edges: int) -> bool:
    """Whether the scaled part sums fit the int64 tier.

    Every scaled weight is at most ``2 L`` and one edge's overlaps sum to
    at most ``p`` at any shift, so no profile or part sum exceeds
    ``2 L p |E_U|``.  A profile's first differences are at most the sum of
    its weights, ``2 L 2^k |E_U|`` with ``2^k <= p``, and running impulse
    sums are differences of two of them; ``2 L p |E_U| < 2^62`` therefore
    keeps every intermediate below ``2^63``.
    """
    return 2 * scale * p * num_edges < _INT64_LIMIT


def _float_band_slack(minimum: int, num_edges: int, max_shared: int) -> int:
    """Exact-sum margin above ``minimum`` that can still be the float argmin.

    The historical float sum of part ``a`` rounds ``m = |E_U| + 2^k + 4``
    times on any term's path (two reciprocals, their sum and the overlap
    product, at most ``2^k`` profile adds and ``|E_U|`` part adds), and all
    terms are nonnegative, so it lies within ``(1 ± γ_m) X_a``.  A part can
    only beat the exact minimizer's float when
    ``X_a <= X_min (1 + γ_m) / (1 - γ_m) = X_min / (1 - 2 m u)``.
    """
    m = num_edges + max_shared + 4
    den = 2**53 - 2 * m
    return -(-minimum * 2 * m // den)


class SlackWeightedSelector:
    """g_w construction + deterministic Carter-Wegman family search."""

    # The flattened block table is derived from ``_blocks``.
    _snapshot_skip_ = ("_pack",)

    def _snapshot_init_(self) -> None:
        self._pack = None

    def __init__(self, p: int, n: int, cid_space: int):
        """``p``: family prime; ``n``: vertex count (sets the rounding eps);
        ``cid_space``: exclusive upper bound on canonical ids."""
        self.p = p
        self.n = n
        self.cid_space = cid_space
        # Lemma 3.2's slack factor 1 + 1/(8 log n).
        self.eps = 1.0 / (8.0 * max(1.0, np.log2(max(2, n))))
        self._blocks: dict[int, VertexBlocks] = {}
        self._pack = None

    # ------------------------------------------------------------------
    # g_w construction (Lemma 3.2)
    # ------------------------------------------------------------------
    def register_vertex(self, x: int, cids, slacks) -> None:
        """Install vertex ``x``'s candidates and slacks; build its blocks.

        Only candidates with slack > 0 receive slots, so the selected
        proposal always has positive slack (the Lemma 3.6 invariant).
        """
        cids = np.asarray(cids, dtype=np.int64)
        slacks = np.asarray(slacks, dtype=np.int64)
        if len(cids) != len(slacks):
            raise ReproError("cids and slacks must align")
        positive = slacks > 0
        if not positive.any():
            raise ReproError(
                f"vertex {x} has no positive-slack candidate; "
                "the s_x >= 1 invariant (Lemma 3.6) was violated upstream"
            )
        cids = cids[positive]
        slacks = slacks[positive]
        total = float(slacks.sum())
        w = slacks / total
        sizes = np.floor(self.p * w * (1.0 + self.eps)).astype(np.int64)
        # Every positive-weight candidate keeps >= 1 slot (see module doc).
        sizes = np.maximum(sizes, 1)
        # Truncate to exactly p slots, then hand leftovers (if the floor
        # lost mass, possible for sub-paper primes) to the last candidate.
        cum = np.cumsum(sizes)
        over = int(np.searchsorted(cum, self.p, side="left"))
        if over < len(sizes):
            sizes = sizes[: over + 1].copy()
            cids = cids[: over + 1]
            slacks = slacks[: over + 1]
            sizes[over] = self.p - (cum[over - 1] if over > 0 else 0)
        else:
            sizes = sizes.copy()
            sizes[-1] += self.p - int(cum[-1])
        if int(sizes.sum()) != self.p or (sizes <= 0).any():
            raise ReproError(f"g_w block construction failed for vertex {x}")
        self._blocks[x] = VertexBlocks(cids, slacks, sizes)
        self._pack = None

    def blocks(self, x: int) -> VertexBlocks:
        """The registered block structure of vertex ``x``."""
        return self._blocks[x]

    # ------------------------------------------------------------------
    # family search
    # ------------------------------------------------------------------
    def _packed(self) -> _Packed:
        if not self._blocks:
            raise ReproError("no vertex was registered")
        if self._pack is None:
            verts = np.fromiter(self._blocks, dtype=np.int64,
                                count=len(self._blocks))
            blks = list(self._blocks.values())
            count = np.array([len(b.cids) for b in blks], dtype=np.int64)
            cid = np.concatenate([b.cids for b in blks])
            slack = np.concatenate([b.slacks for b in blks])
            row = np.full(int(verts.max()) + 1, -1, dtype=np.int64)
            row[verts] = np.arange(len(verts))
            width = int(cid.max()) + 1
            keys = np.repeat(np.arange(len(verts)), count) * width + cid
            key_order = np.argsort(keys, kind="stable")
            self._pack = _Packed(
                row=row,
                start=np.cumsum(count) - count,
                count=count,
                cid=cid,
                slack=slack,
                lo=np.concatenate([b.cum[:-1] for b in blks]),
                hi=np.concatenate([b.cum[1:] for b in blks]),
                keys=keys[key_order],
                key_order=key_order,
                width=width,
            )
        return self._pack

    def _pack_rows(self, pack: _Packed, vertices: np.ndarray) -> np.ndarray:
        known = (vertices >= 0) & (vertices < len(pack.row))
        rows = np.where(known, pack.row[np.where(known, vertices, 0)], -1)
        if (rows < 0).any():
            missing = int(vertices[np.flatnonzero(rows < 0)[0]])
            raise ReproError(f"vertex {missing} was never registered")
        return rows

    def _shared_blocks(self, edges: np.ndarray) -> _SharedBlocks:
        """The candidates each conflict edge's endpoints share, and their
        slot blocks (one row per edge and shared cid)."""
        pack = self._packed()
        iu = self._pack_rows(pack, edges[:, 0])
        iv = self._pack_rows(pack, edges[:, 1])
        count = pack.count[iu]
        edge = np.repeat(np.arange(len(edges)), count)
        fu = np.arange(len(edge)) + np.repeat(
            pack.start[iu] - (np.cumsum(count) - count), count
        )
        key = iv[edge] * pack.width + pack.cid[fu]
        pos = np.minimum(np.searchsorted(pack.keys, key), len(pack.keys) - 1)
        hit = pack.keys[pos] == key
        edge, fu = edge[hit], fu[hit]
        fv = pack.key_order[pos[hit]]
        su, sv = pack.slack[fu], pack.slack[fv]
        return _SharedBlocks(
            edge=edge,
            a0=pack.lo[fu], a1=pack.hi[fu], b0=pack.lo[fv], b1=pack.hi[fv],
            su=su, sv=sv, weight=1.0 / su + 1.0 / sv,
        )

    def part_sums(self, conflict_edges) -> np.ndarray:
        """Pass 2: ``sum_b Phi-contribution`` for every part ``a``.

        ``conflict_edges`` is a list of ``(u, v)`` pairs or a ``(k, 2)``
        array.  The values are the exact sums rounded to float64, except
        near the minimum, where they are bit for bit the historical
        edge-order float sums that decide the ``argmin`` (module docstring).
        """
        p = self.p
        edges = _as_edges(conflict_edges)
        if len(edges) == 0:
            return np.zeros(p)
        shared = self._shared_blocks(edges)
        if len(shared.edge) == 0:
            return np.zeros(p)
        scale = math.lcm(*np.unique(np.concatenate((shared.su, shared.sv))).tolist())
        dtype = np.int64 if int64_exact(scale, p, len(edges)) else object
        weight = scale // shared.su.astype(dtype) + scale // shared.sv.astype(dtype)
        delta = (edges[:, 1] - edges[:, 0]) % p
        exact = _exact_part_sums(p, delta[shared.edge], shared, weight, dtype)
        parts = (exact / scale).astype(np.float64)
        minimum = int(exact.min())
        max_shared = int(np.bincount(shared.edge).max())
        limit = minimum + _float_band_slack(minimum, len(edges), max_shared)
        band = np.flatnonzero(exact <= limit)
        parts[band] = _float_part_sums(p, delta, shared, band)
        return parts

    def member_sums(self, a: int, conflict_edges) -> np.ndarray:
        """Pass 3: exact potential of every member ``h_{a, b}`` of part ``a``.

        Bit-identical to accumulating each edge's collision weights in edge
        order: an edge's colliding ``b`` for one shared candidate is at most
        four intervals, and one edge's intervals are disjoint.
        """
        p = self.p
        phi = np.zeros(p)
        edges = _as_edges(conflict_edges)
        if len(edges) == 0:
            return phi
        shared = self._shared_blocks(edges)
        shift_u = a * edges[shared.edge, 0]
        shift_v = a * edges[shared.edge, 1]
        # Each arc (A_c - a u), (B_c - a v) as two linear pieces on [0, p).
        pieces = []
        for lo, hi, shift in ((shared.a0, shared.a1, shift_u),
                              (shared.b0, shared.b1, shift_v)):
            start = (lo - shift) % p
            end = start + (hi - lo)
            pieces.append(((start, np.minimum(end, p)),
                           (np.zeros_like(start), np.maximum(end - p, 0))))
        starts, stops = [], []
        for a_lo, a_hi in pieces[0]:
            for b_lo, b_hi in pieces[1]:
                starts.append(np.maximum(a_lo, b_lo))
                stops.append(np.minimum(a_hi, b_hi))
        starts = np.stack(starts, axis=1)
        stops = np.stack(stops, axis=1)
        keep = stops > starts
        weights = np.broadcast_to(shared.weight[:, None], keep.shape)[keep]
        for lo, hi, w in zip(starts[keep].tolist(), stops[keep].tolist(),
                             weights.tolist()):
            phi[lo:hi] += w
        return phi

    def best_part(self, conflict_edges) -> int:
        """Pass 2's choice ``a*``: the first minimizer of :meth:`part_sums`.

        Without conflict edges every member has potential 0, so it is 0.
        """
        if len(conflict_edges) == 0:
            return 0
        return int(np.argmin(self.part_sums(conflict_edges)))

    def best_member(self, a: int, conflict_edges) -> int:
        """Pass 3's choice ``b*`` in part ``a``: the first minimizer of
        :meth:`member_sums`, or 0 without conflict edges."""
        if len(conflict_edges) == 0:
            return 0
        return int(np.argmin(self.member_sums(a, conflict_edges)))

    def proposal_for(self, x: int, a: int, b: int) -> int:
        """The cid vertex ``x`` adopts under ``h_{a,b}``: ``g_w(x, h(x))``."""
        t = (a * x + b) % self.p
        return self._blocks[x].cid_of_slot(t)

    # ------------------------------------------------------------------
    # space accounting helpers
    # ------------------------------------------------------------------
    def accumulator_bits(self) -> int:
        """Paper accounting: sqrt(|H|) = p accumulators of O(log n) bits."""
        return self.p * 2 * max(1, ceil_log2(max(2, self.n)))


def _powers_of_generator(p: int) -> np.ndarray:
    """``g^i mod p`` for ``i in [0, p - 1)``, ``g`` a primitive root of ``p``.

    Baby steps ``g^r`` times giant steps ``g^(B k)``: ``O(sqrt p)`` scalar
    work and one width-``p`` product.
    """
    g = primitive_root(p)
    count = p - 1
    side = math.isqrt(count) + 1
    baby = [1]
    for _ in range(side - 1):
        baby.append(baby[-1] * g % p)
    giant_step = pow(g, side, p)
    giant = [1]
    for _ in range(-(-count // side) - 1):
        giant.append(giant[-1] * giant_step % p)
    table = np.multiply.outer(np.array(giant, dtype=np.int64),
                              np.array(baby, dtype=np.int64)) % p
    return table.reshape(-1)[:count]


def _exact_part_sums(p, delta, shared: _SharedBlocks, weight, dtype) -> np.ndarray:
    """Scaled part sums ``sum_e S_{δ_e}[a δ_e mod p]`` for every ``a``, exactly.

    ``delta`` and ``weight`` are per row of ``shared``.  Rows are grouped
    by ``δ``.  An overlap trapezoid has second-difference impulses
    ``+W, -W, -W, +W`` at ``d = b0 - a1`` plus ``0``, ``min(la, lb)``,
    ``max(la, lb)`` and ``la + lb`` (mod ``p``).  A group's sorted impulses
    and its closed-form profile at ``d = p - 1`` and ``p - 2`` give the
    profile's slope on each segment between impulses (the first cumulative
    sum); one width-``p`` cumulative sum of those slopes gives the profile.
    Writing ``a = g^i`` and ``δ = g^j`` for a primitive root ``g`` turns
    the gather at ``a δ`` into a read of the profile at ``g^(i + j)``: one
    shared index table, shifted by ``j`` per group.  Groups are expanded one
    at a time, so the temporaries are a few width-``p`` arrays.
    """
    groups, group_of = np.unique(delta, return_inverse=True)
    num_groups = len(groups)
    a0, a1, b0, b1 = shared.a0, shared.a1, shared.b0, shared.b1
    la, lb = a1 - a0, b1 - b0
    first = b0 - a1
    pos = np.concatenate((first, first + np.minimum(la, lb),
                          first + np.maximum(la, lb), b1 - a0)) % p
    # Every group also gets a zero impulse at d = 0, where its profile starts.
    key = np.concatenate((np.tile(group_of, 4) * p + pos,
                          np.arange(num_groups) * p))
    val = np.concatenate((weight, -weight, -weight, weight,
                          np.zeros(num_groups, dtype=dtype)))
    order = np.argsort(key, kind="stable")
    key, val = key[order], val[order]
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    owner, at = np.divmod(key[starts], p)
    impulse = np.add.reduceat(val, starts)
    last = np.zeros(num_groups, dtype=dtype)
    prev = np.zeros(num_groups, dtype=dtype)
    np.add.at(last, group_of, weight * _cyclic_overlap(a0, a1, b0, b1, p - 1, p))
    np.add.at(prev, group_of, weight * _cyclic_overlap(a0, a1, b0, b1, p - 2, p))
    # Slope g[d] = S[d + 1] - S[d]: g[p - 1] from the seeds, then
    # g[d] = g[p - 1] + sum_{t <= d} impulse[t] (each group's impulses sum
    # to zero, so one running sum serves every group); S[0] = S[p-1] + g[p-1].
    wrap = np.zeros(num_groups, dtype=dtype)
    wrap[owner[at == p - 1]] = impulse[at == p - 1]
    slope_end = last - prev + wrap
    origin = last + slope_end
    slope = slope_end[owner] + np.cumsum(impulse)
    ends = np.concatenate((at[1:], [p]))
    ends[np.flatnonzero(owner[1:] != owner[:-1])] = p
    # Per group: [S[0]] then each segment's slope, one cumulative sum.
    group_start = np.searchsorted(owner, np.arange(num_groups + 1))
    seg_values = np.insert(slope, group_start[:-1], origin)
    seg_lengths = np.insert(ends - at, group_start[:-1], 1)
    powers = _powers_of_generator(p)
    log = np.empty(p, dtype=np.int64)
    log[powers] = np.arange(p - 1)
    powers = np.concatenate((powers, powers))
    total = np.zeros(p - 1, dtype=dtype)
    gathered = np.empty(p - 1, dtype=dtype)
    everywhere = origin[groups == 0].sum()  # δ = 0 reads S[0] for every a
    for k in np.flatnonzero(groups).tolist():
        lo, hi = group_start[k] + k, group_start[k + 1] + k + 1
        profile = np.repeat(seg_values[lo:hi], seg_lengths[lo:hi])
        np.cumsum(profile, out=profile)
        j = int(log[groups[k]])
        np.take(profile, powers[j:j + p - 1], out=gathered, mode="clip")
        total += gathered
    exact = np.empty(p, dtype=dtype)
    exact[0] = origin.sum()
    exact[powers[:p - 1]] = total + everywhere
    return exact


def _float_part_sums(p, delta, shared: _SharedBlocks, parts) -> np.ndarray:
    """The historical float part sums at ``parts``, bit for bit.

    Per edge, ``S[d]`` adds ``weight * overlap`` over shared candidates in
    ``u``'s order; the part sum adds ``S[a δ mod p]`` over edges in edge
    order.  Edges or candidates that contribute nothing add ``0.0``, which
    leaves a float unchanged.
    """
    num_edges = len(delta)
    rank = np.arange(len(shared.edge)) - np.searchsorted(shared.edge, shared.edge)
    out = np.empty(len(parts))
    width = max(1, _CHUNK_ELEMS // num_edges)
    for c0 in range(0, len(parts), width):
        cols = parts[c0:c0 + width]
        shifts = np.multiply.outer(delta, cols) % p
        profile = np.zeros((num_edges, len(cols)))
        for r in range(int(rank.max()) + 1):
            rows = np.flatnonzero(rank == r)
            e = shared.edge[rows]
            ov = _cyclic_overlap(shared.a0[rows, None], shared.a1[rows, None],
                                shared.b0[rows, None], shared.b1[rows, None],
                                shifts[e], p)
            profile[e] += shared.weight[rows, None] * ov
        out[c0:c0 + width] = np.cumsum(profile, axis=0)[-1]
    return out
