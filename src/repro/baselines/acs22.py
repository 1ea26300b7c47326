"""Deterministic multipass baselines in the style of [ACS22].

[ACS22] (Assadi, Chen, Sun, STOC 2022) proved that deterministic
single-pass Delta-based coloring is impossible with sub-exponential
palettes, but that ``O(Delta^2)`` colors are achievable in 2 passes and
``O(Delta)`` colors in ``O(log Delta)`` passes.  The paper under
reproduction cites these as the prior state of the art that Theorem 1
improves to ``Delta + 1``.

The two baselines here achieve the same (colors, passes) regimes with
self-contained machinery (DESIGN.md section 2.3):

- :class:`TwoPassQuadraticColoring`: search the 2-universal family
  ``((ax+b) mod p) mod R`` (R = 4 Delta^2) for a member with few
  monochromatic edges — the same part/member two-level trick as Algorithm
  1, using the closed-form per-part collision count — then store the
  conflicting edges' neighborhoods and repair with a fresh ``Delta+1``
  block.  4 passes, ``<= 4 Delta^2 + Delta + 1`` colors.
- :class:`ColorReductionColoring`: start from the quadratic coloring and
  repeatedly halve the palette by grouping ``2(Delta+1)`` color classes
  per bucket, storing each bucket's induced edges, and recoloring the
  bucket offline with ``Delta+1`` fresh colors (Kuhn-Wattenhofer-style
  reduction).  ``O(log Delta)`` reduction rounds; buckets whose stored
  edges would exceed the space budget are deferred to extra passes, so the
  measured pass count is data dependent (reported by experiments T9).

Both run on the resumable pass machine of :mod:`repro.streaming.machine`:
every cross-pass quantity (the selected ``(a*, b*)``, the conflicted set,
the round's bucket state) lives in ``self._mach``, so runs are
suspend/restorable at pass boundaries.
"""


import numpy as np

from repro.common.exceptions import ReproError
from repro.common.integer_math import ceil_div, ceil_log2, next_prime
from repro.streaming.machine import PassConsumer, require_machine
from repro.streaming.model import MultipassStreamingAlgorithm

#: The quadratic range ``R = 4 Delta^2`` of the two-pass coloring.
_RANGE_FACTOR = 4
#: Edges a reduction pass may store, per vertex: the semi-streaming budget
#: ``4n``.
_BUDGET_EDGES_PER_VERTEX = 4


class _PartCountsConsumer(PassConsumer):
    """Pass 1: for each part ``a``, ``sum_b #monochromatic edges of h_{a,b}``.

    Closed form per edge and part: with ``d = a(v-u) mod p``, as ``b``
    varies, ``t = h'(u)`` sweeps ``F_p`` and ``f(u) = t mod R`` collides
    with ``f(v) = ((t+d) mod p) mod R`` for exactly
    ``(p-d) * 1{R | d} + d * 1{R | (d-p)}`` values of ``t``.  That
    depends on the edge only through ``(v - u) mod p``, so one
    ``bincount`` of differences per block followed by a single
    (difference x part) reduction replaces the per-edge ``O(p)`` update
    — exact int64 arithmetic throughout.
    """

    def __init__(self, algo):
        self.algo = algo
        self.diff_counts = np.zeros(algo.p, dtype=np.int64)

    def feed(self, item) -> None:
        if not isinstance(item, np.ndarray):
            return
        p = self.algo.p
        diffs = (item[:, 1] - item[:, 0]) % p
        self.diff_counts += np.bincount(diffs, minlength=p)

    def finish(self):
        p, r = self.algo.p, self.algo.range_size
        a = np.arange(1, p, dtype=np.int64)
        totals = np.zeros(p - 1, dtype=np.int64)
        present = np.flatnonzero(self.diff_counts)
        batch = max(1, (1 << 22) // max(1, p))
        for start in range(0, len(present), batch):
            dvals = present[start : start + batch]
            d = (dvals[:, None] * a[None, :]) % p
            collide = (p - d) * (d % r == 0) + d * ((d - p) % r == 0)
            totals += self.diff_counts[dvals] @ collide
        return totals


class _MemberCountsConsumer(PassConsumer):
    """Pass 2: exact monochromatic-edge count of every ``h_{a*, b}``.

    A member ``b`` sees edge ``(u, v)`` collide iff ``t = (a* u + b)
    mod p`` lands in ``[0, p - d)`` with ``r | d``, or in ``[p - d, p)``
    with ``r | (d - p)`` (``d = a*(v - u) mod p``).  Edges with neither
    divisibility (the vast majority) contribute to no member at all;
    each contributing edge becomes one circular ``b``-interval in a
    difference array — ``O(1)`` per edge instead of ``O(p)``.
    """

    def __init__(self, algo, a_star: int):
        self.algo = algo
        self.a_star = a_star
        self.diff = np.zeros(algo.p + 1, dtype=np.int64)

    def _add_intervals(self, starts, lengths) -> None:
        p = self.algo.p
        ends = starts + lengths
        np.add.at(self.diff, starts, 1)
        np.add.at(self.diff, np.minimum(ends, p), -1)
        wrap = ends > p
        if wrap.any():
            self.diff[0] += int(wrap.sum())
            np.add.at(self.diff, ends[wrap] - p, -1)

    def feed(self, item) -> None:
        if not isinstance(item, np.ndarray):
            return
        p, r = self.algo.p, self.algo.range_size
        a_star = self.a_star
        d = (a_star * ((item[:, 1] - item[:, 0]) % p)) % p
        t0 = (a_star * item[:, 0]) % p
        low = d % r == 0  # t in [0, p - d)
        if low.any():
            self._add_intervals((-t0[low]) % p, p - d[low])
        high = ((d - p) % r == 0) & (d > 0)  # t in [p - d, p)
        if high.any():
            self._add_intervals((p - d[high] - t0[high]) % p, d[high])

    def finish(self):
        return np.cumsum(self.diff[: self.algo.p])


class _MonoEdgesConsumer(PassConsumer):
    """Pass 3: the monochromatic edges of ``f`` -> conflicted set."""

    def __init__(self, algo, a_star: int, b_star: int):
        self.algo = algo
        self.a_star = a_star
        self.b_star = b_star
        self.conflicted: set[int] = set()
        self.mono = 0

    def feed(self, item) -> None:
        if not isinstance(item, np.ndarray):
            return
        fb = ((self.a_star * item + self.b_star) % self.algo.p) % self.algo.range_size
        mask = fb[:, 0] == fb[:, 1]
        self.mono += int(mask.sum())
        if mask.any():
            self.conflicted.update(np.unique(item[mask]).tolist())

    def finish(self):
        return self.conflicted, self.mono


class _RepairAdjacencyConsumer(PassConsumer):
    """Pass 4: every edge incident to a conflicted vertex, grouped by sort."""

    def __init__(self, algo, conflicted: set):
        self.conflicted = conflicted
        conf = np.zeros(algo.n, dtype=bool)
        if conflicted:
            conf[list(conflicted)] = True
        self.conf = conf
        self.chunks: list = []
        self.stored = 0

    def feed(self, item) -> None:
        if not isinstance(item, np.ndarray):
            return
        mu = self.conf[item[:, 0]]
        mv = self.conf[item[:, 1]]
        self.stored += int(mu.sum()) + int(mv.sum())
        if mu.any():
            self.chunks.append(item[mu])
        if mv.any():
            self.chunks.append(item[mv][:, ::-1])

    def finish(self):
        adjacency: dict[int, set[int]] = {v: set() for v in self.conflicted}
        if self.chunks:
            from repro.streaming.blocks import group_pairs

            for x, ys in group_pairs(np.concatenate(self.chunks)):
                adjacency[x] = set(ys.tolist())
        return adjacency, self.stored


class TwoPassQuadraticColoring(MultipassStreamingAlgorithm):
    """Deterministic ``O(Delta^2)``-coloring in four streaming passes."""

    def __init__(self, n: int, delta: int):
        super().__init__()
        if delta < 1:
            raise ReproError("delta must be >= 1")
        self.n = n
        self.delta = delta
        self.range_size = _RANGE_FACTOR * delta * delta
        self.p = next_prime(max(n, self.range_size) + 1)
        self.palette_size = self.range_size + delta + 1

    # ------------------------------------------------------------------
    # pass machine
    # ------------------------------------------------------------------
    def blocks_start(self) -> None:
        self._mach = {"phase": "parts"}

    def blocks_consumer(self):
        mach = require_machine(self)
        phase = mach["phase"]
        if phase == "parts":
            return _PartCountsConsumer(self)
        if phase == "members":
            return _MemberCountsConsumer(self, mach["a_star"])
        if phase == "mono":
            return _MonoEdgesConsumer(self, mach["a_star"], mach["b_star"])
        if phase == "repair":
            return _RepairAdjacencyConsumer(self, mach["conflicted"])
        return None

    def blocks_deliver(self, result, stream) -> None:
        mach = require_machine(self)
        phase = mach["phase"]
        n = self.n
        if phase == "parts":
            self.meter.set_gauge(
                "part accumulators", (self.p - 1) * 2 * ceil_log2(max(2, n))
            )
            mach["a_star"] = int(np.argmin(result)) + 1
            mach["phase"] = "members"
        elif phase == "members":
            mach["b_star"] = int(np.argmin(result))
            self.meter.clear_gauge("part accumulators")
            mach["phase"] = "mono"
        elif phase == "mono":
            conflicted, mono = result
            mach["conflicted"] = conflicted
            self.meter.set_gauge("mono edges", mono * 2 * ceil_log2(max(2, n)))
            mach["phase"] = "repair"
        elif phase == "repair":
            adjacency, stored = result
            self.meter.set_gauge("repair edges", stored * 2 * ceil_log2(max(2, n)))
            coloring = self._repair(
                mach["a_star"], mach["b_star"], mach["conflicted"], adjacency
            )
            self.meter.clear_gauge("mono edges")
            self.meter.clear_gauge("repair edges")
            self._mach = {"phase": "done", "coloring": coloring}

    # ------------------------------------------------------------------
    def _repair(self, a_star, b_star, conflicted, adjacency) -> dict[int, int]:
        """Unconflicted vertices keep ``f(v)+1``; conflicted ones are
        repaired greedily inside the fresh block ``[R+1, R+Delta+1]``."""

        def f(x: int) -> int:
            return ((a_star * x + b_star) % self.p) % self.range_size

        coloring = {v: f(v) + 1 for v in range(self.n)}
        for x in sorted(conflicted):
            used = {coloring[y] for y in adjacency[x] if y not in conflicted}
            used |= {
                coloring[y]
                for y in adjacency[x]
                if y in conflicted and coloring[y] > self.range_size
            }
            c = self.range_size + 1
            while c in used:
                c += 1
            if c > self.palette_size:
                raise ReproError("repair block exhausted; delta promise violated?")
            coloring[x] = c
        return coloring


class _ReductionPassConsumer(PassConsumer):
    """One reduction pass: admit pending buckets, evict at the edge budget.

    Evicted buckets retry next pass.  The (state-independent)
    intra-bucket filter is vectorized per block; the budget/eviction
    state machine runs on the surviving pairs sequentially, in stream
    order.
    """

    def __init__(self, algo, bucket_arr: np.ndarray, pending: set):
        self.algo = algo
        self.bucket_arr = bucket_arr
        self.batch = set(pending)
        self.stored_edges: dict[int, list] = {b: [] for b in self.batch}
        self.stored = 0

    def feed(self, item) -> None:
        if not isinstance(item, np.ndarray):
            return
        bu_arr = self.bucket_arr[item[:, 0]]
        keep = bu_arr == self.bucket_arr[item[:, 1]]
        for (u, v), bu in zip(item[keep].tolist(), bu_arr[keep].tolist()):
            if bu not in self.batch:
                continue
            if self.stored >= self.algo.space_budget_edges:
                self.batch.discard(bu)
                self.stored -= len(self.stored_edges.pop(bu, []))
                continue
            self.stored_edges[bu].append((u, v))
            self.stored += 1

    def finish(self):
        return self.stored_edges, self.stored, self.batch


class ColorReductionColoring(MultipassStreamingAlgorithm):
    """Deterministic ``O(Delta)``-coloring via iterated palette halving."""

    def __init__(self, n: int, delta: int):
        super().__init__()
        self.n = n
        self.delta = delta
        self.base = TwoPassQuadraticColoring(n, delta)
        # Store at most this many edges per reduction pass (semi-streaming).
        self.space_budget_edges = _BUDGET_EDGES_PER_VERTEX * n
        self.final_palette_bound = 4 * (delta + 1)

    @property
    def palette_bound(self) -> int:
        return self.final_palette_bound

    # ------------------------------------------------------------------
    # pass machine: base stage, then reduction rounds
    # ------------------------------------------------------------------
    def blocks_start(self) -> None:
        self.base.blocks_start()
        self._mach = {"phase": "base"}

    def blocks_consumer(self):
        mach = require_machine(self)
        phase = mach["phase"]
        if phase == "base":
            return self.base.blocks_consumer()
        if phase == "reduce":
            return _ReductionPassConsumer(self, mach["bucket_arr"], mach["pending"])
        return None

    def blocks_deliver(self, result, stream) -> None:
        mach = require_machine(self)
        phase = mach["phase"]
        if phase == "base":
            self.base.blocks_deliver(result, stream)
            if self.base.blocks_consumer() is None:
                coloring = self.base.blocks_result()
                # Merge the base meter so peak space reflects the pipeline.
                self.meter.set_gauge("base stage peak", self.base.meter.peak_bits)
                self.meter.clear_gauge("base stage peak")
                mach["coloring"] = coloring
                mach["palette"] = max(coloring.values())
                self._next_round()
        elif phase == "reduce":
            stored_edges, stored, batch = result
            self.meter.set_gauge(
                "reduction edges", stored * 2 * ceil_log2(max(2, self.n))
            )
            for b in batch:
                self._recolor_bucket(
                    b, mach["bucket_width"], mach["coloring"],
                    mach["new_coloring"], stored_edges[b],
                )
            mach["pending"] -= batch
            if not batch:
                raise ReproError(
                    "a single bucket exceeds the space budget of "
                    f"{self.space_budget_edges} edges"
                )
            if not mach["pending"]:
                mach["coloring"] = mach["new_coloring"]
                mach["palette"] = ceil_div(
                    mach["palette"], mach["bucket_width"]
                ) * (self.delta + 1)
                self.meter.clear_gauge("reduction edges")
                self._next_round()

    def _next_round(self) -> None:
        """Enter the next reduction round, or finish below the bound."""
        mach = self._mach
        if mach["palette"] <= self.final_palette_bound:
            self._mach = {"phase": "done", "coloring": mach["coloring"]}
            return
        bucket_width = 2 * (self.delta + 1)
        coloring = mach["coloring"]
        color_arr = np.zeros(self.n, dtype=np.int64)
        for v, c in coloring.items():
            color_arr[v] = c
        self._mach = {
            "phase": "reduce",
            "coloring": coloring,
            "palette": mach["palette"],
            "bucket_width": bucket_width,
            "pending": set(range(ceil_div(mach["palette"], bucket_width))),
            "new_coloring": dict(coloring),
            "bucket_arr": (color_arr - 1) // bucket_width,
        }

    # ------------------------------------------------------------------
    def _recolor_bucket(self, b, bucket_width, old, new, edges) -> None:
        """Greedy (Delta+1)-recoloring of one bucket's induced subgraph."""
        delta = self.delta
        members = sorted({u for e in edges for u in e} | {
            v for v, c in old.items() if (c - 1) // bucket_width == b
        })
        adjacency: dict[int, set[int]] = {v: set() for v in members}
        for u, v in edges:
            adjacency[u].add(v)
            adjacency[v].add(u)
        offset = b * (delta + 1)
        assigned: dict[int, int] = {}
        for v in members:
            used = {assigned[w] for w in adjacency[v] if w in assigned}
            c = 1
            while c in used:
                c += 1
            if c > delta + 1:
                raise ReproError("bucket subgraph exceeded degree Delta")
            assigned[v] = c
            new[v] = offset + c
