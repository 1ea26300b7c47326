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
   positive-slack candidates can be selected (Lemma 3.6).  A stage builds
   every member's blocks in one batch of array operations that make, row
   by row, the float operations of the per-vertex construction.

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

- **Part sums**, ``Θ(|E_U| 2^k + p + sum_δ s k)`` over the ``#δ < 2n``
  distinct values of ``δ = (v - u) mod p``, a group of step ``s = min(δ,
  p - δ) < n`` and ``k`` kinks costing its ``s k`` kink events.  Within
  part ``a``, ``h(v) - h(u) = a δ`` is fixed, so the sum over ``b`` is the
  cyclic overlap profile ``S_δ[d] = sum_c W_c |A_c ∩ (B_c - d)|`` read at
  ``d = a δ``.  Each overlap is a trapezoid in ``d`` with four
  second-difference impulses, so a group's profile is linear between its
  sorted impulses, its kinks: the impulses and the closed-form values at
  ``d = p - 1`` and ``p - 2`` give each segment's slope.  As ``a`` steps
  by one, ``a δ mod p`` moves by ``±s``, so along ``a`` the profile read
  is linear between ``s k`` kink events.  The events go into two
  difference arrays over ``a``, and two cumulative sums finish every
  group at once; no width-``p`` profile is written.  The weights ``1/s_u
  + 1/s_v`` are scaled by the lcm ``L`` of the slacks involved, so this
  runs in exact int64 (in Python integers when ``2 L p |E_U|`` would
  reach ``2^62``).
- **Member sums**, ``Θ(|E_U| 2^k + p)``: for fixed ``a`` the colliding
  ``b`` of one shared candidate form ``(A_c - a u) ∩ (B_c - a v)``, at
  most four linear intervals on ``Z_p``; the exact scaled sums over all
  ``b`` take one difference array and one cumulative sum.

**Tie-break contract.**  :meth:`SlackWeightedSelector.best_part` and
:meth:`~SlackWeightedSelector.best_member` take the ``argmin`` of either
array, so both must reproduce the historical selection bit for bit: *the
first minimizer of float64 sums accumulated edge by edge, in the order of
``conflict_edges``*.  Exact arithmetic alone does not give that — exact
ties (and float ties of exactly unequal sums) are broken by rounding.
Both sums therefore return the exact sums as floats, except that every
entry whose exact sum lies within the proven float-error band of the
exact minimum — every term is nonnegative, so the historical
accumulation has relative error at most ``γ_m``, with ``m = |E_U| +
O(2^k)`` roundings on any term's path — is re-scored with the historical
per-edge formula in edge order; entries outside the band cannot be the
float minimizer.  Edge order therefore matters only for that re-score.

Candidates are identified by *canonical ids* (cids) shared across vertices,
so that ``cid_u == cid_v`` means "the two proposals land in the same color
class" — for subcube stages the cid is the bit pattern ``j``; for the final
list-coloring stage it is the color itself.
"""

import math
from typing import NamedTuple

import numpy as np

from repro.common.exceptions import ReproError
from repro.common.integer_math import ceil_log2

#: Elements per temporary of the float re-score (2**16 float64 = 512 KiB).
_CHUNK_ELEMS = 1 << 16

#: Kink events per batch of the part sums (2**14 int64 = 128 KiB
#: per temporary; batches of 2**16 raised det-paper's peak RSS by 1.3-1.8 MB).
_EVENT_BATCH = 1 << 14

#: The exact int64 tier needs every intermediate below this bound.
_INT64_LIMIT = 2**62


class VertexBlocks:
    """The g_w map for one vertex: cids, slacks, and slot-block boundaries.

    Candidate ``cids[i]`` (slack ``slacks[i]``) owns the slots
    ``[cum[i], cum[i + 1])``, ``sizes[i]`` of them; ``cum`` runs from 0 to
    ``p``.
    """

    __slots__ = ("cids", "slacks", "sizes", "cum")

    def __init__(self, cids: np.ndarray, slacks: np.ndarray, sizes: np.ndarray,
                 cum: np.ndarray):
        self.cids = cids
        self.slacks = slacks
        self.sizes = sizes
        self.cum = cum


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
    slot_keys: np.ndarray  # flat candidate -> pack row * p + lo, ascending


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
    """Whether the scaled part and member sums fit the int64 tier.

    Every scaled weight is at most ``2 L``, one edge's overlaps sum to at
    most ``p`` at any shift, and one edge collides at most once per
    member, so no profile value, part sum or member sum exceeds
    ``B = 2 L p |E_U|``.  The segment tables and the member sums keep
    every intermediate such a value or the difference of two (slopes,
    impulses, running sums of impulses; see :func:`_profile_segments` and
    :meth:`SlackWeightedSelector.member_sums`), so ``B < 2^62`` keeps each
    one below ``2^63``.  The part sums (:func:`_exact_part_sums`) let
    intermediates wrap instead: they only add, subtract and multiply, and
    their results are part sums below ``B``, so int64 wrap-around gives
    them exactly.
    """
    return 2 * scale * p * num_edges < _INT64_LIMIT


def _float_band_slack(minimum: int, roundings: int) -> int:
    """Exact-sum margin above ``minimum`` that can still be the float argmin.

    ``roundings`` bounds the roundings ``m`` on any term's path into a
    historical float sum.  All terms are nonnegative, so that sum lies
    within ``(1 ± γ_m) X`` of the exact sum ``X``, and an entry can only
    beat the exact minimizer's float when
    ``X <= X_min (1 + γ_m) / (1 - γ_m) = X_min / (1 - 2 m u)``,
    ``u = 2^-53``.
    """
    den = 2**53 - 2 * roundings
    return -(-minimum * 2 * roundings // den)


def _scaled_weights(shared: _SharedBlocks, p: int, num_edges: int):
    """``(L, dtype, W)``: the lcm ``L`` of the slacks in ``shared``, the
    exact tier's dtype, and the scaled weights ``W = L/s_u + L/s_v``."""
    scale = math.lcm(*np.unique(np.concatenate((shared.su, shared.sv))).tolist())
    dtype = np.int64 if int64_exact(scale, p, num_edges) else object
    weight = scale // shared.su.astype(dtype) + scale // shared.sv.astype(dtype)
    return scale, dtype, weight


def _near_minimum_rescored(exact, scale: int, roundings: int, rescore) -> np.ndarray:
    """``exact / scale`` as float64, with the float band of the exact
    minimum replaced by ``rescore(band)``, the historical float sums there.

    With an exact minimum of 0 the band holds only zero sums, which the
    historical accumulation leaves at ``0.0`` too, so nothing is re-scored.
    """
    out = (exact / scale).astype(np.float64, copy=False)
    minimum = int(exact.min())
    if minimum > 0:
        band = np.flatnonzero(exact <= minimum + _float_band_slack(minimum, roundings))
        out[band] = rescore(band)
    return out


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
    def register_vertex(self, xs, cids, slacks) -> None:
        """Install a batch of vertices' candidates and slacks; build their
        blocks.

        ``xs`` holds ``m`` vertex ids and ``cids`` and ``slacks`` are
        ``(m, w)`` rows, one per vertex; a single vertex may be given as
        its id and two 1-D rows.  A zero slack pads a short row: only
        candidates with slack > 0 receive slots, so the selected proposal
        always has positive slack (the Lemma 3.6 invariant).

        Row by row, the positive candidates keep their order and candidate
        ``j`` gets ``max(1, floor(p w_j (1 + eps)))`` slots, ``w_j`` its
        slack over the row's total, with the float operations of the
        per-vertex construction.  The first block that reaches slot ``p``
        is cut there and the candidates after it get none; if no block
        reaches it (possible for sub-paper primes), the last one takes the
        leftover slots.
        """
        p = self.p
        xs = np.atleast_1d(np.asarray(xs, dtype=np.int64))
        cids = np.atleast_2d(np.asarray(cids, dtype=np.int64))
        slacks = np.atleast_2d(np.asarray(slacks, dtype=np.int64))
        if cids.shape != slacks.shape or len(cids) != len(xs):
            raise ReproError("cids and slacks must align")
        positive = slacks > 0
        count = positive.sum(axis=1)
        if not count.all():
            x = int(xs[np.flatnonzero(count == 0)[0]])
            raise ReproError(
                f"vertex {x} has no positive-slack candidate; "
                "the s_x >= 1 invariant (Lemma 3.6) was violated upstream"
            )
        total = np.where(positive, slacks, 0).sum(axis=1).astype(np.float64)
        row = np.repeat(np.arange(len(xs)), count)
        cids, slacks = cids[positive], slacks[positive]
        sizes = np.floor(p * (slacks / total[row]) * (1.0 + self.eps))
        sizes = np.maximum(sizes.astype(np.int64), 1)
        # Block starts within each row; a block that starts at or past p
        # is dropped, and the last kept block ends at p.
        first = np.cumsum(count) - count
        ends = np.cumsum(sizes)
        starts = ends - sizes - np.repeat(ends[first] - sizes[first], count)
        kept = starts < p
        count = np.add.reduceat(kept.astype(np.int64), first)
        row, cids, slacks = row[kept], cids[kept], slacks[kept]
        starts, sizes = starts[kept], sizes[kept]
        bounds = np.cumsum(count)
        sizes[bounds - 1] = p - starts[bounds - 1]
        # Row r's cum is its kept starts and then p, at [bounds - count + r,
        # bounds + r] of one flat array.
        cum = np.empty(len(starts) + len(xs), dtype=np.int64)
        cum[np.arange(len(starts)) + row] = starts
        cum[bounds + np.arange(len(xs))] = p
        spans = zip(xs.tolist(), (bounds - count).tolist(), bounds.tolist())
        for r, (x, lo, hi) in enumerate(spans):
            self._blocks[x] = VertexBlocks(cids[lo:hi], slacks[lo:hi],
                                           sizes[lo:hi], cum[lo + r:hi + r + 1])
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
            lo = np.concatenate([b.cum[:-1] for b in blks])
            row = np.full(int(verts.max()) + 1, -1, dtype=np.int64)
            row[verts] = np.arange(len(verts))
            width = int(cid.max()) + 1
            flat_row = np.repeat(np.arange(len(verts)), count)
            keys = flat_row * width + cid
            key_order = np.argsort(keys, kind="stable")
            self._pack = _Packed(
                row=row,
                start=np.cumsum(count) - count,
                count=count,
                cid=cid,
                slack=slack,
                lo=lo,
                hi=np.concatenate([b.cum[1:] for b in blks]),
                keys=keys[key_order],
                key_order=key_order,
                width=width,
                slot_keys=flat_row * self.p + lo,
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
        A part's historical sum rounds at most ``|E_U| + 2^k + 4`` times on
        any term's path: two reciprocals, their sum and the overlap
        product, at most ``2^k`` profile adds and ``|E_U|`` part adds.
        """
        p = self.p
        edges = _as_edges(conflict_edges)
        if len(edges) == 0:
            return np.zeros(p)
        shared = self._shared_blocks(edges)
        if len(shared.edge) == 0:
            return np.zeros(p)
        scale, dtype, weight = _scaled_weights(shared, p, len(edges))
        delta = (edges[:, 1] - edges[:, 0]) % p
        exact = _exact_part_sums(p, delta[shared.edge], shared, weight, dtype)
        max_shared = int(np.bincount(shared.edge).max())
        return _near_minimum_rescored(
            exact, scale, len(edges) + max_shared + 4,
            lambda band: _float_part_sums(p, delta, shared, band),
        )

    def member_sums(self, a: int, conflict_edges) -> np.ndarray:
        """Pass 3: the potential of every member ``h_{a, b}`` of part ``a``.

        An edge's colliding ``b`` for one shared candidate form at most
        four intervals, and one edge's intervals are disjoint, so each
        member adds at most one weight per edge.  The values are the exact
        sums rounded to float64 — one difference array of the scaled
        weights and one cumulative sum, whose prefixes are member sums —
        except near the minimum, where they are bit for bit the historical
        edge-order float sums.  A member's historical sum rounds at most
        ``|E_U| + 3`` times on any term's path: two reciprocals, their sum
        and at most ``|E_U|`` member adds.  At one member at most one
        interval of each edge starts and one ends, so the difference
        array's entries stay within ``2 L |E_U|`` while they accumulate.
        """
        p = self.p
        edges = _as_edges(conflict_edges)
        if len(edges) == 0:
            return np.zeros(p)
        shared = self._shared_blocks(edges)
        if len(shared.edge) == 0:
            return np.zeros(p)
        rows, lo, hi = _member_intervals(p, a, edges, shared)
        scale, dtype, weight = _scaled_weights(shared, p, len(edges))
        weight = weight[rows]
        diff = np.zeros(p + 1, dtype=dtype)
        np.add.at(diff, lo, weight)
        np.subtract.at(diff, hi, weight)
        exact = np.cumsum(diff, out=diff)[:p]
        return _near_minimum_rescored(
            exact, scale, len(edges) + 3,
            lambda band: _float_member_sums(
                shared.edge[rows], lo, hi, shared.weight[rows], band),
        )

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

    def proposal_for(self, xs, a: int, b: int):
        """The cids vertices ``xs`` adopt under ``h_{a,b}``: ``g_w(x, h(x))``
        for each, in the shape of ``xs`` (a scalar for one vertex id)."""
        pack = self._packed()
        xs = np.asarray(xs, dtype=np.int64)
        flat = xs.reshape(-1)
        slots = (a * flat + b) % self.p
        keys = self._pack_rows(pack, flat) * self.p + slots
        owner = np.searchsorted(pack.slot_keys, keys, side="right") - 1
        return pack.cid[owner].reshape(xs.shape)[()]

    # ------------------------------------------------------------------
    # space accounting helpers
    # ------------------------------------------------------------------
    def accumulator_bits(self) -> int:
        """Paper accounting: sqrt(|H|) = p accumulators of O(log n) bits."""
        return self.p * 2 * max(1, ceil_log2(max(2, self.n)))


class _Segments(NamedTuple):
    """Every ``δ``-group's overlap profile as linear segments.

    Group ``k`` (step ``groups[k]``) owns segments ``bounds[k]:bounds[k +
    1]`` of the per-segment tables; its first segment starts at ``d = 0``.
    """

    groups: np.ndarray  # the distinct δ, ascending
    bounds: np.ndarray
    at: np.ndarray  # segment start d
    slope: np.ndarray  # S[d + 1] - S[d] on the segment
    impulse: np.ndarray  # slope minus the cyclically previous segment's
    origin: np.ndarray  # per group: S[0]


def _profile_segments(p, delta, shared: _SharedBlocks, weight, dtype) -> _Segments:
    """Every ``δ``-group's overlap profile as linear segments.

    ``delta`` and ``weight`` are per row of ``shared``.  Rows are grouped
    by ``δ``.  An overlap trapezoid has second-difference impulses
    ``+W, -W, -W, +W`` at ``d = b0 - a1`` plus ``0``, ``min(la, lb)``,
    ``max(la, lb)`` and ``la + lb`` (mod ``p``).  A group's sorted impulses
    and its closed-form profile at ``d = p - 1`` and ``p - 2`` give the
    profile's slope on each segment between impulses and its start value
    ``S[0]``.

    No intermediate leaves the :func:`int64_exact` bound: a slope is a
    difference of two profile values and an impulse a difference of two
    slopes.  The running sum of impulses may run across groups because
    each group's impulses sum to zero.
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
    # g[d] = g[p - 1] + sum_{t <= d} impulse[t]; S[0] = S[p-1] + g[p-1].
    wrap = np.zeros(num_groups, dtype=dtype)
    wrap[owner[at == p - 1]] = impulse[at == p - 1]
    slope_end = last - prev + wrap
    origin = last + slope_end
    slope = slope_end[owner] + np.cumsum(impulse)
    bounds = np.searchsorted(owner, np.arange(num_groups + 1))
    return _Segments(groups, bounds, at, slope, impulse, origin)


def _exact_part_sums(p, delta, shared: _SharedBlocks, weight, dtype) -> np.ndarray:
    """Scaled part sums ``sum_e S_{δ_e}[a δ_e mod p]`` for every ``a``, exactly.

    Each ``δ``-group's profile ``S`` is linear between its kinks
    (:func:`_profile_segments`).  With step ``s = min(δ, p - δ)``, unroll
    it along ``a``: ``T(x) = S[x mod p]`` on ``x in [0, s p)``, read at
    ``x = a s``.  Its slope at ``x`` is ``S``'s slope at ``p - 1`` plus
    every impulse at or before ``x``, one copy ``(w, j)`` of impulse ``j``
    at ``pos = w p + at_j`` per wrap ``w in [0, s)`` (a whole wrap's
    impulses sum to zero).  Summed up,

        ``S[a s mod p] = S[0] + a s g + sum_{pos <= a s} I_j (a s - pos)``,

    ``g`` the slope at ``p - 1``.  So event ``(w, j)`` starts at ``a =
    ceil(pos / s)`` and adds ``C + D a`` from there on, with ``D = I_j s``
    and ``C = -I_j pos``; the base event ``(S[0], s g)`` starts at 0.  Each
    event's ``C`` and ``D`` go into one width-``(p + 1)`` difference array
    each, and two cumulative sums give ``ΣC(a) + a ΣD(a)`` for every
    ``a``.  A group with ``δ > p/2`` reads ``S[a δ] = S'[a (p - δ)]`` of
    the reflection ``S'[d] = S[-d mod p]``, whose impulses are ``S``'s at
    ``-at_j mod p`` and whose slope at ``p - 1`` is ``-S``'s slope at 0;
    ``δ = 0`` is the step-0 run, its base event alone.  Events are made in
    batches of ``_EVENT_BATCH``, so the temporaries are ``O(batch + p)``.

    *Exactness, by int64 wrap-around.*  ``C``, ``D``, their running sums
    and ``a ΣD`` can pass ``2^63``, but every value is made by ``+``,
    ``-`` and ``×`` alone, which int64 array arithmetic computes in
    ``Z/2^64``, and the true result is a part sum in ``[0, 2^62)`` (the
    :func:`int64_exact` bound), so the int64 result is the true one.
    Scalars are only read or stored, never combined, as numpy scalars
    warn on overflow.  The event positions are made the same way, and
    their true values ``pos < s p < p^2 < 2^63`` are what the division
    reads.  The Python-integer tier takes the same path in
    ``dtype=object`` arrays, where nothing wraps.

    On the part-sum calls of ``deterministic`` at n = 256 to 2048, Δ = 24,
    ``Σ s k`` is 1-6% of the ``#δ p`` values that writing every group's
    profile out would take, and on those of ``list_coloring`` 1-16%.
    """
    seg = _profile_segments(p, delta, shared, weight, dtype)
    owner = np.repeat(np.arange(len(seg.groups)), np.diff(seg.bounds))
    first, last = seg.bounds[:-1], seg.bounds[1:] - 1
    flip = seg.groups > p // 2
    step = np.where(flip, p - seg.groups, seg.groups)
    end_slope = np.where(flip, -seg.slope[first], seg.slope[last])
    diff = np.zeros((2, p + 1), dtype=dtype)  # rows: C, D
    diff[0, 0] = seg.origin.sum()
    diff[1, 0] = (step * end_slope).sum()
    rows = np.flatnonzero((step > 0)[owner] & (seg.impulse != 0))
    flipped = flip[owner[rows]]
    at = np.where(flipped, (p - seg.at[rows]) % p, seg.at[rows])
    count = step[owner[rows]]  # one event per wrap
    offset = np.cumsum(count) - count
    base = at - offset * p  # event e of row r sits at pos = e p + base[r]
    impulse = seg.impulse[rows]
    total = int(count.sum())
    for e0 in range(0, total, _EVENT_BATCH):
        e1 = min(e0 + _EVENT_BATCH, total)
        r0 = int(np.searchsorted(offset, e0, side="right")) - 1
        r1 = int(np.searchsorted(offset, e1, side="left"))
        span = (np.minimum(offset[r0:r1] + count[r0:r1], e1)
                - np.maximum(offset[r0:r1], e0))
        pos = np.arange(e0 * p, e1 * p, p) + np.repeat(base[r0:r1], span)
        s = np.repeat(count[r0:r1], span)
        kink = np.repeat(impulse[r0:r1], span)
        start = (pos + (s - 1)) // s
        np.subtract.at(diff[0], start, kink * pos)
        np.add.at(diff[1], start, kink * s)
    np.cumsum(diff, axis=1, out=diff)
    return diff[0, :p] + np.arange(p) * diff[1, :p]


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
        np.cumsum(profile, axis=0, out=profile)
        out[c0:c0 + width] = profile[-1]
    return out


def _member_intervals(p, a, edges, shared: _SharedBlocks):
    """The members ``b`` at which each row of ``shared`` collides in part
    ``a``: ``(rows, lo, hi)``, intervals ``[lo, hi)`` in row order.

    Row ``(u, v, c)`` collides for ``b`` in ``(A_c - a u) ∩ (B_c - a v)``;
    each arc is two linear pieces on ``[0, p)``, so a row has at most four
    intervals, and one edge's intervals are disjoint.
    """
    shift_u = a * edges[shared.edge, 0]
    shift_v = a * edges[shared.edge, 1]
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
    return np.nonzero(keep)[0], starts[keep], stops[keep]


def _float_member_sums(edge, lo, hi, weight, members) -> np.ndarray:
    """The historical float member sums at ``members`` (ascending), bit
    for bit.

    ``edge``, ``lo``, ``hi`` and ``weight`` give each colliding interval
    ``[lo, hi)``, in edge order.  Member ``b`` adds, edge by edge, the
    weight of the edge's interval that holds ``b``, if any: one edge's
    intervals are disjoint, so a running sum of interval ids along the
    members finds it exactly.  Only the edges with an interval over some
    member become rows of the terms matrix; the others would add ``0.0``,
    which leaves a float unchanged.
    """
    i0 = np.searchsorted(members, lo)
    i1 = np.searchsorted(members, hi)
    hit = i1 > i0
    i0, i1 = i0[hit], i1[hit]
    ids = np.arange(1, len(i0) + 1)
    table = np.concatenate(([0.0], weight[hit]))  # interval id -> weight
    row = np.unique(edge[hit], return_inverse=True)[1]
    num_rows = int(row.max()) + 1
    out = np.empty(len(members))
    width = max(1, _CHUNK_ELEMS // num_rows)
    for c0 in range(0, len(members), width):
        c1 = min(c0 + width, len(members))
        owner = np.zeros((num_rows, c1 - c0 + 1), dtype=np.int64)
        np.add.at(owner, (row, np.clip(i0, c0, c1) - c0), ids)
        np.subtract.at(owner, (row, np.clip(i1, c0, c1) - c0), ids)
        np.cumsum(owner, axis=1, out=owner)
        terms = table[owner[:, :-1]]
        del owner
        np.cumsum(terms, axis=0, out=terms)
        out[c0:c1] = terms[-1]
    return out
