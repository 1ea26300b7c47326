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
arrays updated in place; buffer B and each sketch ``A_i``/``C_i`` is an
int64 ``(m, 2)`` edge array, the live rows of a store that grows by
doubling.  :meth:`RobustColoring.process_block` therefore costs
``Theta(k (E + L))`` for a block of ``k`` edges (``E`` epochs, ``L``
levels) plus one append per sketch that receives events, with no
``Theta(n)`` term; only a buffer roll, once per ``n Delta^beta`` edges,
clears the ``n`` buffer degrees.
"""

from dataclasses import dataclass

import numpy as np

from repro.common.exceptions import ReproError
from repro.common.integer_math import ceil_div, ceil_log2
from repro.graph.coloring import first_missing_positive
from repro.graph.degeneracy import degeneracy_coloring
from repro.graph.graph import Graph
from repro.hashing.random_oracle import RandomOracle
from repro.streaming.blocks import buffer_timeline, running_degrees
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

    supports_blocks = True
    # The vertex-major oracle tables are derived from _h/_g on first use;
    # snapshots carry the functions, not the tables.  Snapshots hold
    # ``_buffer``, ``_a_sets`` and ``_c_sets`` as they are: exactly the
    # live rows of B and of each sketch, without the stores' spare rows.
    _snapshot_skip_ = ("_h_table", "_g_table")

    def _snapshot_init_(self) -> None:
        self._h_table = None
        self._g_table = None
        if isinstance(self._degree, list):
            self._load_list_state()

    def _load_list_state(self) -> None:
        """Turn the state of a checkpoint written by the list-based code
        into arrays: it holds the counters as lists of ints, and B and the
        sketches as lists of edge tuples."""
        self._degree = np.array(self._degree, dtype=np.int64)
        self._buffer_degree = np.array(self._buffer_degree, dtype=np.int64)
        self._buffer = _edge_array(self._buffer)
        self._a_sets = [_edge_array(edges) for edges in self._a_sets]
        self._c_sets = [_edge_array(edges) for edges in self._c_sets]

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
        self._a_sets = [_NO_EDGES] * (p.num_epochs + 2)
        self._c_sets = [_NO_EDGES] * (p.num_levels + 2)
        self._curr = 1
        self._edges_seen = 0
        # Vertex-major oracle tables for the block path, built on first use.
        self._h_table = None
        self._g_table = None
        log_n = ceil_log2(max(2, n))

        self._edge_bits = 2 * log_n
        self._update_space()

    # ------------------------------------------------------------------
    def _update_space(self) -> None:
        p = self.params
        self.meter.set_gauge("buffer B", len(self._buffer) * self._edge_bits)
        self.meter.set_gauge(
            "A sketches", sum(map(len, self._a_sets)) * self._edge_bits
        )
        self.meter.set_gauge(
            "C sketches", sum(map(len, self._c_sets)) * self._edge_bits
        )
        self.meter.set_gauge(
            "degree counters", self.n * ceil_log2(max(2, self.delta + 1))
        )

    def _level_of_degree(self, d: int) -> int:
        """Level ``l`` such that degree is in ``((l-1) T, l T]`` (T = fast threshold)."""
        return max(1, ceil_div(d, self.params.fast_threshold))

    def _oracle_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(n, E)`` table of the ``h_i`` and ``(n, L)`` table of the ``g_i``.

        Vertex-major, so a block gathers one short row per endpoint, and
        in the narrowest unsigned dtype that holds the function's range.
        """
        if self._h_table is None:
            self._h_table = _vertex_major(self._h, self.n, self.params.h_range)
            self._g_table = _vertex_major(self._g, self.n, self.params.g_range)
        return self._h_table, self._g_table

    def _roll_buffer(self, rolls: int) -> None:
        """Lines 10-11: empty B and advance the epoch by ``rolls``."""
        self._buffer = self._buffer[:0]
        self._buffer_degree[:] = 0
        self._curr += rolls

    # ------------------------------------------------------------------
    def process(self, u: int, v: int) -> None:
        """Lines 10-17 for one insertion.

        A self-loop or an edge past the degree promise raises
        :class:`ReproError` before any state changes.
        """
        p = self.params
        if u == v:
            raise ReproError(
                f"self-loop ({u},{v}) at stream index {self._edges_seen}"
            )
        du, dv = self._degree.item(u), self._degree.item(v)
        if du >= self.delta or dv >= self.delta:
            raise ReproError(
                f"edge ({u},{v}) exceeds the promised max degree {self.delta}"
            )
        # Lines 10-11: roll the buffer/epoch when full.
        if len(self._buffer) == p.buffer_capacity:
            self._roll_buffer(1)
        self._buffer = _append_rows(self._buffer, ((u, v),), p.buffer_capacity)
        self._buffer_degree[u] += 1
        self._buffer_degree[v] += 1
        # Line 13: degree counters.
        self._degree[u] = du + 1
        self._degree[v] = dv + 1
        self._edges_seen += 1
        # Lines 14-15: h_i-sketches for future epochs.
        for i in range(self._curr + 1, p.num_epochs + 1):
            h = self._h[i - 1]
            if h(u) == h(v):
                self._a_sets[i] = _append_rows(self._a_sets[i], ((u, v),))
        # Lines 16-17: g_i-sketches for levels above both endpoints.
        top = self._level_of_degree(max(du, dv) + 1)
        for i in range(top + 1, p.num_levels + 1):
            g = self._g[i - 1]
            if g(u) == g(v):
                self._c_sets[i] = _append_rows(self._c_sets[i], ((u, v),))
        self._update_space()

    # ------------------------------------------------------------------
    def process_block(self, edges: np.ndarray) -> None:
        """Vectorized :meth:`process` over a ``(k, 2)`` block (bit-identical).

        The sequential bookkeeping is reconstructed in closed form: running
        degrees via a stable group-rank, buffer epochs via
        :func:`~repro.streaming.blocks.buffer_timeline`, and the rare
        monochromatic sketch events via one row gather per endpoint from
        the vertex-major oracle tables.  The degree counters and buffer
        degrees are updated in place and B and the sketches appended to,
        so with the numpy kernels a block costs ``Theta(k (E + L))`` plus
        one append per sketch that receives events, with no ``Theta(n)``
        term.  A block containing a self-loop or a degree-cap violation
        falls back to the scalar loop so the exception fires at the exact
        same edge with the exact same partial state.
        """
        p = self.params
        edges = np.asarray(edges, dtype=np.int64)
        k = len(edges)
        if k == 0:
            return
        us, vs = edges[:, 0], edges[:, 1]
        deg_before = running_degrees(self._degree, edges)
        if (deg_before >= self.delta).any() or (us == vs).any():
            for u, v in edges.tolist():
                self.process(u, v)
            return
        rolls, lengths = buffer_timeline(len(self._buffer), p.buffer_capacity, k)
        stored0 = self.sketch_edge_count
        h_table, g_table = self._oracle_tables()
        # Lines 14-15: h_i-monochromatic events for epochs i > curr, i.e.
        # table columns i - 1 >= curr.
        ev_e, ev_col = _mono_events(h_table, us, vs)
        keep = ev_col >= self._curr + rolls[ev_e]
        a_edges, a_epochs = ev_e[keep], ev_col[keep] + 1
        for epoch, rows in _rows_by_sketch(edges, a_edges, a_epochs):
            self._a_sets[epoch] = _append_rows(self._a_sets[epoch], rows)
        # Lines 16-17: g_i-monochromatic events for levels above the edge.
        top = np.maximum(
            1,
            -(-(deg_before.max(axis=1) + 1) // p.fast_threshold),
        )
        ev_e, ev_col = _mono_events(g_table, us, vs)
        keep = ev_col >= top[ev_e]
        c_edges, c_levels = ev_e[keep], ev_col[keep] + 1
        for level, rows in _rows_by_sketch(edges, c_edges, c_levels):
            self._c_sets[level] = _append_rows(self._c_sets[level], rows)
        # Degree counters (line 13) and the buffer (lines 10-12).
        np.add.at(self._degree, edges.ravel(), 1)
        kept = edges
        if rolls[-1] > 0:
            self._roll_buffer(int(rolls[-1]))
            kept = edges[k - int(lengths[-1]):]
        self._buffer = _append_rows(self._buffer, kept, p.buffer_capacity)
        np.add.at(self._buffer_degree, kept.ravel(), 1)
        self._edges_seen += k
        # Space peak: the scalar path updates gauges after every edge.
        stored_delta = np.bincount(
            np.concatenate((a_edges, c_edges)), minlength=k
        )
        per_edge_total = (
            stored0 + np.cumsum(stored_delta) + lengths
        ) * self._edge_bits
        base = (
            self.meter.current_bits
            - self.meter.gauge("buffer B")
            - self.meter.gauge("A sketches")
            - self.meter.gauge("C sketches")
        )
        self.meter.observe_peak(base + int(per_edge_total.max()))
        # Zero the varying gauges before the final update: setting one
        # gauge to its new value while another still holds the pre-block
        # value would register a transient total the scalar path never
        # reaches.
        self.meter.set_gauge("buffer B", 0)
        self.meter.set_gauge("A sketches", 0)
        self.meter.set_gauge("C sketches", 0)
        self._update_space()

    # ------------------------------------------------------------------
    def query(self) -> dict[int, int]:
        """Lines 18-27: recolor slow blocks and fast blocks with fresh palettes.

        Blocks take fresh palettes in ascending :meth:`_block_keys` order
        (slow blocks by ``h_curr`` color, then fast blocks by level and
        ``g_l`` color), and the returned dict lists the vertices in that
        order, ascending within a block.  Slow blocks are
        ``(degree+1)``-colored by one first-fit sweep; each fast block with
        an edge is :func:`degeneracy_coloring`-ed on its pool edges in
        pool order; a vertex without an intra-block edge takes its
        block's first color.
        """
        p = self.params
        key = self._block_keys()
        pool = self._intra_block_pool(key)
        pool_key = key[pool[:, 0]]
        local = np.ones(self.n, dtype=np.int64)
        _first_fit(pool[pool_key < p.h_range], local)
        # Vertices grouped by block, ascending within each block.
        order = np.argsort(key, kind="stable")
        block_keys, starts = np.unique(key[order], return_index=True)
        ends = np.append(starts[1:], self.n)
        # The degeneracy order depends on the order edges enter the block
        # graph, so each fast block gets its edges in pool order.
        fast = pool[pool_key >= p.h_range]
        fast = fast[np.argsort(key[fast[:, 0]], kind="stable")]
        edge_keys, first_edge = np.unique(key[fast[:, 0]], return_index=True)
        for block, edges in zip(
            np.searchsorted(block_keys, edge_keys).tolist(),
            np.split(fast, first_edge[1:]),
        ):
            members = order[starts[block]:ends[block]].tolist()
            sub, index = self._induced(members, edges.tolist())
            colors = degeneracy_coloring(sub)
            for original, local_id in index.items():
                local[original] = colors[local_id]
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
        _, g_table = self._oracle_tables()
        key = self._h[min(self._curr, p.num_epochs) - 1].table().astype(np.int64)
        fast = np.flatnonzero(self._buffer_degree > p.fast_threshold)
        level = np.maximum(1, -(-self._degree[fast] // p.fast_threshold))
        key[fast] = p.h_range + (level - 1) * p.g_range + g_table[fast, level - 1]
        return key

    def _intra_block_pool(self, key: np.ndarray) -> np.ndarray:
        """The pool edges with both endpoints in one block, in pool order.

        A sketch edge counts only in its own zone's sketch (``A_curr`` for
        slow blocks, ``C_l`` for level-``l`` blocks); a buffer edge counts
        in every block.  Sketch edges precede buffer edges, as in the
        pools ``A_curr | B`` and ``C_l | B``.
        """
        p = self.params
        a_curr = self._a_sets[self._curr] if self._curr <= p.num_epochs else _NO_EDGES
        sketches = [a_curr] + self._c_sets[1:p.num_levels + 1]
        family = np.repeat(np.arange(len(sketches)), [len(s) for s in sketches])
        sketch = np.concatenate(sketches)
        sketch_key = key[sketch[:, 0]]
        key_family = np.where(
            sketch_key < p.h_range, 0, (sketch_key - p.h_range) // p.g_range + 1
        )
        buffer = self._buffer
        return np.concatenate((
            sketch[(sketch_key == key[sketch[:, 1]]) & (key_family == family)],
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

    @property
    def sketch_edge_count(self) -> int:
        """Total edges currently stored across all sketches (A2 ablation)."""
        return sum(map(len, self._a_sets)) + sum(map(len, self._c_sets))


#: The empty edge array every buffer and sketch starts from (read-only).
_NO_EDGES = np.empty((0, 2), dtype=np.int64)
_NO_EDGES.flags.writeable = False


def _append_rows(live, rows, limit=None):
    """The edge array ``live`` with ``rows`` appended after it.

    ``live`` is an array of its own or the leading rows of its ``base``,
    the store, whose rows past ``live`` are spare.  The result is the
    leading rows of the same store, or of a new one twice the size (at
    most ``limit`` rows) when the store is full, so appends cost
    amortised ``O(len(rows))``.
    """
    store = live if live.base is None else live.base
    start = len(live)
    end = start + len(rows)
    if end > len(store):
        size = max(end, 2 * len(store), 16)
        store = np.empty((size if limit is None else min(size, limit), 2), dtype=np.int64)
        store[:start] = live
    store[start:end] = rows
    return store[:end]


def _edge_array(edges) -> np.ndarray:
    """A list of edge tuples as an int64 ``(m, 2)`` array."""
    return np.array(edges, dtype=np.int64).reshape(-1, 2) if edges else _NO_EDGES


def _rows_by_sketch(edges, ev_edges, ev_sketch):
    """``(sketch, rows)`` pairs of the events, in stream order per sketch."""
    order = np.argsort(ev_sketch, kind="stable")
    sketches, first = np.unique(ev_sketch[order], return_index=True)
    return zip(sketches.tolist(), np.split(edges[ev_edges[order]], first[1:]))


def _vertex_major(functions, n: int, range_size: int) -> np.ndarray:
    """Stack oracle functions column by column into an ``(n, len)`` table."""
    table = np.empty(
        (n, len(functions)), dtype=np.min_scalar_type(range_size - 1)
    )
    for column, function in enumerate(functions):
        table[:, column] = function.table()
    return table


def _mono_events(table: np.ndarray, us: np.ndarray, vs: np.ndarray):
    """``(edge, column)`` pairs where both endpoints share a table value.

    Ordered by edge, then column: the scalar path's append order.
    """
    mono = np.take(table, us, axis=0) == np.take(table, vs, axis=0)
    return np.divmod(np.flatnonzero(mono), table.shape[1])


def _first_fit(edges: np.ndarray, local: np.ndarray) -> None:
    """First-fit colors, in ascending vertex order, of the graph on ``edges``.

    Writes the colors into ``local``, which must hold 1 for every vertex.
    A vertex sees only its lower neighbours, which are colored before it,
    so one without lower neighbours keeps color 1; on a disjoint union of
    blocks this is :func:`~repro.graph.coloring.greedy_coloring` run on
    each block in ascending order.
    """
    low = np.minimum(edges[:, 0], edges[:, 1])
    high = np.maximum(edges[:, 0], edges[:, 1])
    by_high = np.argsort(high, kind="stable")
    high, low = high[by_high], low[by_high].tolist()
    first = np.flatnonzero(np.diff(high, prepend=-1))
    last = np.append(first[1:], len(high))
    color: dict[int, int] = {}
    for v, lo, hi in zip(high[first].tolist(), first.tolist(), last.tolist()):
        color[v] = first_missing_positive({color.get(w, 1) for w in low[lo:hi]})
    local[list(color)] = list(color.values())
