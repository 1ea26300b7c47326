"""Algorithm 2: adversarially robust O(Delta^{5/2})-coloring (Theorem 3).

Single pass, adaptive adversary, ``~O(n)`` working space plus an
``O(n Delta)``-bit random oracle (the uniformly random coloring functions
``h_i`` and ``g_i``).  The ``beta`` parameter implements the Corollary 4.7
colors/space tradeoff: buffer ``n Delta^beta``, ``Delta^{1-beta}`` epochs,
``h``-range ``Delta^{2-2beta}``, fast threshold ``Delta^{(1+beta)/2}``,
``Delta^{(1-beta)/2}`` levels, ``g``-range ``Delta^{3(1-beta)/2}``, for
``O(Delta^{(5-3beta)/2})`` colors in ``O(n Delta^beta)`` space; ``beta=0``
is the base algorithm.

Terminology (Section 4.1): **buffer** B of the current epoch's edges;
**epoch** = which chunk the buffer is on; **level** of a vertex = ceil of
its degree over the fast threshold; **zone** fast/slow by buffer-degree;
**blocks** = color classes of ``h_curr`` (slow) and ``g_l`` (fast);
**sketches** ``A_i`` (``h_i``-monochromatic edges) and ``C_i``
(``g_i``-monochromatic edges).

Query: ``(degree+1)``-color each slow ``h_curr``-block on ``A_curr | B``,
``(degeneracy+1)``-color each fast ``g_l``-block on ``C_l | B``, fresh
palette per block (Lemma 4.6).

Indexing note (DESIGN.md, faithfulness discussion): the paper's prose and
pseudocode say the slow zone recolors on ``A_{curr-1} | B``, but its own
Lemma 4.6 proof uses ``A_curr | B`` ("the algorithm would have stored
{x,y} in A_curr"), and with the pseudocode's update rule (line 14: sketches
``i >= curr+1`` receive the edge) only ``A_curr | B`` covers the full
prefix: an edge from epoch ``curr-1`` is in ``A_curr`` but *not* in
``A_{curr-1}`` nor in ``B``.  Robustness is preserved because ``A_curr``
is frozen before ``h_curr`` is first revealed.  We implement
``A_curr | B``.

State layout: the ``n`` degree counters and buffer degrees are int64
arrays updated in place, and buffer B is an int64 ``(|B|, 2)`` edge
array.  The sketches are two append-only logs: ``_a_edges`` beside
``_a_ids`` holds the rows of every ``A_i`` with its epoch ``i``, and
``_c_edges`` beside ``_c_ids`` those of every ``C_l`` with its level
``l``, the rows in ``np.min_scalar_type(n - 1)`` and the ids in the
narrowest unsigned dtype that holds ``E`` or ``L``.  Rows are in
discovery order (by edge, then epoch or level), so the state does not
depend on how the stream was cut into blocks;
:meth:`RobustColoring.sketch_edges` reads one sketch back in stream
order.  Each array is the leading rows of a store that grows by
doubling, and snapshots hold the live rows only.
:meth:`RobustColoring.process_block` therefore costs ``Theta(k (E + L))``
for a block of ``k`` edges (``E`` epochs, ``L`` levels) plus one append
per log, with no ``Theta(n)`` term; only a buffer roll, once per
``n Delta^beta`` edges, clears the ``n`` buffer degrees.
"""

from dataclasses import dataclass

import numpy as np

from repro.common.exceptions import ReproError
from repro.common.integer_math import ceil_div, ceil_log2
from repro.graph.coloring import first_fit_colors
from repro.graph.degeneracy import degeneracy_coloring
from repro.graph.graph import Graph
from repro.hashing.random_oracle import RandomOracle
from repro.streaming.blocks import (
    append_rows,
    edge_rows,
    running_degrees,
    sorted_distinct,
)
from repro.streaming.model import OnePassAlgorithm


@dataclass(frozen=True)
class RobustParameters:
    """The Corollary 4.7 parameterization, integer-rounded.

    All quantities are ``>= 1``; ``beta = 0`` reproduces Algorithm 2's
    base setting exactly (buffer ``n``, ``Delta`` epochs, ``h``-range
    ``Delta^2``, threshold/levels ``sqrt(Delta)``, ``g``-range
    ``Delta^{3/2}``).
    """

    n: int
    delta: int
    beta: float
    buffer_capacity: int
    num_epochs: int
    h_range: int
    fast_threshold: int
    num_levels: int
    g_range: int

    @classmethod
    def create(cls, n: int, delta: int, beta: float = 0.0) -> "RobustParameters":
        if not 0.0 <= beta <= 1.0:
            raise ReproError(f"beta must be in [0, 1], got {beta}")
        if delta < 1:
            raise ReproError(f"delta must be >= 1, got {delta}")

        def power(exponent: float) -> int:
            return max(1, round(delta**exponent))

        buffer_capacity = max(1, round(n * delta**beta))
        num_epochs = power(1.0 - beta)
        h_range = power(2.0 - 2.0 * beta)
        fast_threshold = power((1.0 + beta) / 2.0)
        num_levels = max(1, ceil_div(delta, fast_threshold))
        g_range = power(3.0 * (1.0 - beta) / 2.0)
        return cls(
            n=n,
            delta=delta,
            beta=beta,
            buffer_capacity=buffer_capacity,
            num_epochs=num_epochs,
            h_range=h_range,
            fast_threshold=fast_threshold,
            num_levels=num_levels,
            g_range=g_range,
        )

    @property
    def color_bound(self) -> float:
        """The claimed palette size ``O(Delta^{(5-3beta)/2})`` (shape only)."""
        return self.delta ** ((5.0 - 3.0 * self.beta) / 2.0)


class RobustColoring(OnePassAlgorithm):
    """Adversarially robust ``O(Delta^{5/2})``-coloring (Algorithm 2)."""

    # The vertex-major oracle table is derived from _h/_g on first use;
    # snapshots carry the functions, not the table.  Snapshots hold
    # ``_buffer`` and the sketch logs as they are: exactly their live
    # rows, without the stores' spare rows.
    _snapshot_skip_ = ("_table",)

    def _snapshot_init_(self) -> None:
        self._table = None
        if isinstance(self._degree, list):
            # Written while the counters were lists of ints and B a list
            # of edge tuples.
            self._degree = np.array(self._degree, dtype=np.int64)
            self._buffer_degree = np.array(self._buffer_degree, dtype=np.int64)
            self._buffer = edge_rows(self._buffer, _NO_EDGES)
        if "_a_sets" in self.__dict__:
            # Written while each sketch A_i and C_l was an edge array or
            # list of its own; the logs take them sketch by sketch.
            self._a_edges, self._a_ids = _sketch_log(
                self.__dict__.pop("_a_sets"), self._a_edges.dtype, self._a_ids.dtype
            )
            self._c_edges, self._c_ids = _sketch_log(
                self.__dict__.pop("_c_sets"), self._c_edges.dtype, self._c_ids.dtype
            )

    def __init__(self, n: int, delta: int, seed: int, beta: float = 0.0):
        super().__init__()
        self.n = n
        self.delta = delta
        self.params = RobustParameters.create(n, delta, beta)
        p = self.params
        self._oracle = RandomOracle(seed)
        # h_1..h_E : V -> [h_range]; g_1..g_L : V -> [g_range].
        self._h = [
            self._oracle.function(f"h/{i}", n, p.h_range)
            for i in range(1, p.num_epochs + 1)
        ]
        self._g = [
            self._oracle.function(f"g/{i}", n, p.g_range)
            for i in range(1, p.num_levels + 1)
        ]
        self.meter.charge_random_bits(self._oracle.bits_served)
        self._degree = np.zeros(n, dtype=np.int64)
        self._buffer = _NO_EDGES
        self._buffer_degree = np.zeros(n, dtype=np.int64)
        vertex = np.min_scalar_type(max(0, n - 1))
        self._a_edges = np.empty((0, 2), dtype=vertex)
        self._a_ids = np.empty(0, dtype=np.min_scalar_type(p.num_epochs))
        self._c_edges = np.empty((0, 2), dtype=vertex)
        self._c_ids = np.empty(0, dtype=np.min_scalar_type(p.num_levels))
        self._curr = 1
        self._edges_seen = 0
        # Vertex-major oracle table for the block path, built on first use.
        self._table = None
        log_n = ceil_log2(max(2, n))

        self._edge_bits = 2 * log_n
        self._update_space()

    # ------------------------------------------------------------------
    def _update_space(self) -> None:
        p = self.params
        self.meter.set_gauge("buffer B", len(self._buffer) * self._edge_bits)
        self.meter.set_gauge("A sketches", len(self._a_edges) * self._edge_bits)
        self.meter.set_gauge("C sketches", len(self._c_edges) * self._edge_bits)
        self.meter.set_gauge(
            "degree counters", self.n * ceil_log2(max(2, self.delta + 1))
        )

    def _oracle_table(self) -> np.ndarray:
        """The ``(n, E + L)`` table of ``h_1 .. h_E`` then ``g_1 .. g_L``.

        Vertex-major, so a block gathers one short row per endpoint, and
        in the narrowest unsigned dtype that holds both ranges.
        """
        if self._table is None:
            p = self.params
            self._table = np.array(
                [function.table() for function in self._h + self._g],
                dtype=np.min_scalar_type(max(p.h_range, p.g_range) - 1),
            ).T.copy()
        return self._table

    def _roll_buffer(self, rolls: int) -> None:
        """Lines 10-11: empty B and advance the epoch by ``rolls``."""
        self._buffer = self._buffer[:0]
        self._buffer_degree[:] = 0
        self._curr += rolls

    # ------------------------------------------------------------------
    def process_block(self, edges: np.ndarray) -> None:
        """Lines 10-17 over a ``(k, 2)`` block of insertions, in order.

        The per-edge bookkeeping is reconstructed in closed form: running
        degrees via one sort of the block's endpoints, buffer epochs and
        the space peak from the buffer's fill, and the rare
        monochromatic sketch events via one row gather per endpoint from
        the vertex-major oracle table of all ``E + L`` functions, whose
        equal entries come out by edge, ``A`` epochs before ``C`` levels.
        The degree counters and buffer degrees are updated in place, and
        B and the two sketch logs take one append each, so with the numpy
        kernels a block costs ``Theta(k (E + L))`` with no ``Theta(n)``
        term.  A self-loop or an edge past the degree promise raises
        :class:`ReproError`, naming the edge and its stream index, after
        the edges before it and before any change for it.
        """
        p = self.params
        edges = np.asarray(edges, dtype=np.int64)
        k = len(edges)
        if k == 0:
            return
        us, vs = edges[:, 0], edges[:, 1]
        deg_before = running_degrees(self._degree, edges)
        if (deg_before >= self.delta).any() or (us == vs).any():
            raise self._violation(edges, deg_before)
        cap, start = p.buffer_capacity, len(self._buffer)
        stored0 = self.sketch_edge_count
        table = self._oracle_table()
        ev_e, ev_col = np.divmod(
            np.flatnonzero(np.take(table, us, axis=0) == np.take(table, vs, axis=0)),
            table.shape[1],
        )
        # Lines 14-15: h_i-monochromatic events for epochs i > curr, i.e.
        # columns i - 1 >= curr; edge e sees (start + e) // cap rolls.
        is_a = ev_col < p.num_epochs
        a_e, a_col = ev_e[is_a], ev_col[is_a]
        keep = a_col >= self._curr + (start + a_e) // cap
        a_e, a_epochs = a_e[keep], a_col[keep] + 1
        # Lines 16-17: g_l-monochromatic events (column E + l - 1) for
        # levels l above top = ceil((d + 1) / T), d the larger endpoint
        # degree before the edge: (l - 1) T > d.
        c_e, c_above = ev_e[~is_a], ev_col[~is_a] - p.num_epochs
        keep = c_above * p.fast_threshold > deg_before[c_e].max(axis=1)
        c_e, c_levels = c_e[keep], c_above[keep] + 1
        self._a_edges = append_rows(self._a_edges, edges[a_e])
        self._a_ids = append_rows(self._a_ids, a_epochs)
        self._c_edges = append_rows(self._c_edges, edges[c_e])
        self._c_ids = append_rows(self._c_ids, c_levels)
        # Degree counters (line 13) and the buffer (lines 10-12).
        np.add.at(self._degree, edges.ravel(), 1)
        # B ends the block holding its last (start + k - 1) % cap + 1 edges.
        rolls, last = divmod(start + k - 1, cap)
        kept = edges
        if rolls:
            self._roll_buffer(rolls)
            kept = edges[k - last - 1:]
        self._buffer = append_rows(self._buffer, kept, cap)
        np.add.at(self._buffer_degree, kept.ravel(), 1)
        self._edges_seen += k
        # Space peak, as if the gauges were updated after every edge.
        # Between two rolls B and the sketches only grow, so the largest
        # total comes after an edge that fills B or after the last edge.
        ends = np.append(np.arange((cap - 1 - start) % cap, k - 1, cap), k - 1)
        held = (
            np.searchsorted(a_e, ends, side="right")
            + np.searchsorted(c_e, ends, side="right")
            + (start + ends) % cap + 1
        )
        base = (
            self.meter.current_bits
            - self.meter.gauge("buffer B")
            - self.meter.gauge("A sketches")
            - self.meter.gauge("C sketches")
        )
        self.meter.observe_peak(base + (stored0 + int(held.max())) * self._edge_bits)
        # Zero the varying gauges before the final update: setting one
        # gauge to its new value while another still holds the pre-block
        # value would register a transient total no edge reaches.
        self.meter.set_gauge("buffer B", 0)
        self.meter.set_gauge("A sketches", 0)
        self.meter.set_gauge("C sketches", 0)
        self._update_space()

    def _violation(self, edges: np.ndarray, deg_before: np.ndarray) -> ReproError:
        """Feed the block's edges before its first self-loop or degree-cap
        violation; the error that names that edge."""
        loop = edges[:, 0] == edges[:, 1]
        bad = int(np.argmax(loop | (deg_before >= self.delta).any(axis=1)))
        self.process_block(edges[:bad])
        u, v = edges[bad].tolist()
        index = self._edges_seen
        if loop[bad]:
            return ReproError(f"self-loop ({u},{v}) at stream index {index}")
        return ReproError(
            f"edge ({u},{v}) at stream index {index} exceeds the promised "
            f"max degree {self.delta}"
        )

    # ------------------------------------------------------------------
    def query(self) -> dict[int, int]:
        """Lines 18-27: recolor slow blocks and fast blocks with fresh palettes.

        Blocks take fresh palettes in ascending :meth:`_block_keys` order
        (slow blocks by ``h_curr`` color, then fast blocks by level and
        ``g_l`` color), and the returned dict lists the vertices in that
        order, ascending within a block.  Slow blocks are
        ``(degree+1)``-colored by one first-fit sweep; each fast block with
        an edge is :func:`degeneracy_coloring`-ed on its pool edges in
        pool order, over the endpoints of those edges only; a vertex
        without an intra-block edge takes its block's first color.  That
        equals coloring the whole block: the bucket queue peels its
        isolated members first, from bucket 0, without touching the other
        buckets, so they take color 1 and every other vertex keeps its
        place in the order and its color.
        """
        p = self.params
        key = self._block_keys()
        pool = self._intra_block_pool(key)
        pool_key = key[pool[:, 0]]
        local = np.ones(self.n, dtype=np.int64)
        first_fit_colors(pool[pool_key < p.h_range], local)
        # The degeneracy order depends on the order edges enter the block
        # graph, so each fast block gets its edges in pool order.
        fast = pool[pool_key >= p.h_range]
        fast = fast[np.argsort(key[fast[:, 0]], kind="stable")]
        first_edge = np.flatnonzero(np.diff(key[fast[:, 0]], prepend=-1))
        for edges in np.split(fast, first_edge[1:]):
            members = sorted_distinct(edges)
            sub, index = self._induced(members.tolist(), edges.tolist())
            colors = degeneracy_coloring(sub)
            local[members] = [colors[local_id] for local_id in index.values()]
        # Vertices grouped by block, ascending within each block.  The
        # keys fit the narrowest dtype holding h_range + L g_range - 1
        # (uint16 at Delta = 24), where numpy's stable sort is a radix sort.
        order = np.argsort(
            key.astype(np.min_scalar_type(p.h_range + p.num_levels * p.g_range - 1)),
            kind="stable",
        )
        starts = np.flatnonzero(np.diff(key[order], prepend=-1))
        ends = np.append(starts[1:], self.n)
        width = np.maximum.reduceat(local[order], starts)
        offset = np.cumsum(width) - width + 1
        colors = offset[np.repeat(np.arange(len(starts)), ends - starts)]
        colors += local[order] - 1
        return dict(zip(order.tolist(), colors.tolist()))

    def _block_keys(self) -> np.ndarray:
        """Each vertex's block as one int64 key, slow blocks first.

        A slow vertex's key is its ``h_curr`` color; a vertex fast at
        level ``l`` has key ``h_range + (l - 1) g_range + g_l(v)``.
        """
        p = self.params
        table = self._oracle_table()
        key = table[:, min(self._curr, p.num_epochs) - 1].astype(np.int64)
        fast = np.flatnonzero(self._buffer_degree > p.fast_threshold)
        level = np.maximum(1, -(-self._degree[fast] // p.fast_threshold))
        key[fast] = (
            p.h_range + (level - 1) * p.g_range
            + table[fast, p.num_epochs + level - 1]
        )
        return key

    def _intra_block_pool(self, key: np.ndarray) -> np.ndarray:
        """The pool edges with both endpoints in one block, in pool order.

        A sketch edge counts only in its own zone's sketch (``A_curr`` for
        slow blocks, ``C_l`` for level-``l`` blocks); a buffer edge counts
        in every block.  Sketch edges precede buffer edges, as in the
        pools ``A_curr | B`` and ``C_l | B``.
        """
        p = self.params
        a_curr = self._a_edges[self._a_ids == self._curr]
        a_key = key[a_curr[:, 0]]
        c_key = key[self._c_edges[:, 0]]
        # A slow key gives a level below 1, which no C row has.
        c_level = (c_key - p.h_range) // p.g_range + 1
        buffer = self._buffer
        return np.concatenate((
            a_curr[(a_key == key[a_curr[:, 1]]) & (a_key < p.h_range)],
            self._c_edges[
                (c_key == key[self._c_edges[:, 1]]) & (c_level == self._c_ids)
            ],
            buffer[key[buffer[:, 0]] == key[buffer[:, 1]]],
        ))

    # ------------------------------------------------------------------
    def _induced(self, block, edge_pool):
        """Subgraph induced by ``block`` on the given edge multiset."""
        index = {v: i for i, v in enumerate(sorted(block))}
        sub = Graph(len(index))  # repro: noqa[R3] sketch contents, not the stream
        for u, v in edge_pool:
            iu = index.get(u)
            iv = index.get(v)
            if iu is not None and iv is not None and not sub.has_edge(iu, iv):
                sub.add_edge(iu, iv)
        return sub, index

    # ------------------------------------------------------------------
    def buffer_edges(self) -> np.ndarray:
        """Buffer B, oldest edge first, as a read-only ``(|B|, 2)`` view.

        The view is valid until the next insertion.
        """
        view = self._buffer.view()
        view.flags.writeable = False
        return view

    def sketch_edges(self, family: str, index: int) -> np.ndarray:
        """``A_index`` (``family="A"``) or ``C_index`` (``family="C"``) as an
        ``(m, 2)`` edge array in stream order."""
        edges, ids = {
            "A": (self._a_edges, self._a_ids),
            "C": (self._c_edges, self._c_ids),
        }[family]
        return edges[ids == index]

    @property
    def sketch_edge_count(self) -> int:
        """Total edges currently stored across all sketches (A2 ablation)."""
        return len(self._a_edges) + len(self._c_edges)


#: The empty edge array every buffer starts from (read-only).
_NO_EDGES = np.empty((0, 2), dtype=np.int64)
_NO_EDGES.flags.writeable = False


def _sketch_log(sets, vertex: np.dtype, sketch: np.dtype):
    """One log of per-sketch edge sets, sketch by sketch: the rows of
    ``sets[i]`` (an ``(m, 2)`` array or a list of edge tuples) with id
    ``i``, in the dtypes ``vertex`` and ``sketch``."""
    sets = [np.asarray(edges, dtype=np.int64).reshape(-1, 2) for edges in sets]
    ids = np.repeat(np.arange(len(sets)), [len(edges) for edges in sets])
    return np.concatenate(sets).astype(vertex), ids.astype(sketch)
