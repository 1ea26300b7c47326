"""The buffer-and-D-sketch state shared by Algorithm 3 and the [CGS22] baseline.

Both algorithms keep buffer B of the current epoch's edges, which rolls
(empties and advances the epoch ``curr``) when it reaches
``buffer_capacity``, and one sketch ``D_{i, j}`` per epoch ``i`` and
repetition ``j``: the ``h_{i, j}``-monochromatic edges seen while
``curr < i``, wiped for good once it would exceed ``overflow_cap``
edges.  A query colours ``D_{curr, k} | B`` greedily for the first
surviving ``k`` and pairs each colour with ``h_{curr, k}``.  Subclasses
draw the hash functions (``family``, ``_coeffs`` of shape ``(E, P, k)``)
and set the parameters.

State layout: B is an ``(|B|, 2)`` edge array, and all the sketches share
one append-only log of rows, ``_d_edges`` (``(L, 2)``) beside
``_d_ids`` (``(L,)``, sketch ``i, j`` has id ``(i - 1) P + j``), in the
narrowest unsigned dtypes that hold ``n - 1`` and ``E P - 1``.  Rows are
in discovery order — by edge, then epoch, then repetition — as the block
path (:func:`~repro.streaming.blocks.sketch_process_block`) appends
them, so the state does not depend on how the stream was cut into
blocks.  A wipe drops the sketch's rows from the log, so the log holds
exactly the stored edges; ``_d_sizes`` holds each sketch's size, ``-1``
once wiped.  Each array is the leading rows of a store that doubles when
full, and snapshots hold the live rows only.
"""

import numpy as np

from repro.common.exceptions import AlgorithmFailure
from repro.graph.coloring import first_fit_colors
from repro.streaming.blocks import append_rows, edge_rows, sketch_process_block
from repro.streaming.model import OnePassAlgorithm


class DSketchColoring(OnePassAlgorithm):
    """Buffer B, sketches ``D_{i, j}``, and the query over ``D_{curr, k} | B``."""

    # The vertex-major hash table is a simulation speedup re-derived from
    # the stored coefficients; snapshots drop it.
    _snapshot_skip_ = ("_hash_table", "_hash_filled")

    def _snapshot_init_(self) -> None:
        self._hash_table = None
        self._hash_filled = None
        if isinstance(self._buffer, list):
            self._load_list_state()

    def _init_sketches(self) -> None:
        """An empty B and empty sketches, one per row of ``_coeffs``."""
        epochs, reps = self._coeffs.shape[:2]
        vertex = np.min_scalar_type(max(0, self.n - 1))
        self._buffer = np.empty((0, 2), dtype=vertex)
        self._d_edges = np.empty((0, 2), dtype=vertex)
        self._d_ids = np.empty(0, dtype=np.min_scalar_type(max(0, epochs * reps - 1)))
        self._d_sizes = np.zeros((epochs, reps), dtype=np.int64)

    def _load_list_state(self) -> None:
        """Turn the state of a checkpoint written by the list-based code
        into arrays: it holds B as a list of edge tuples, and
        ``_d_sets[i][j]`` as D_{i, j}'s list of edge tuples or None.  The
        log takes the sketches' rows sketch by sketch."""
        d_sets = self.__dict__.pop("_d_sets")
        buffer = self._buffer
        self._init_sketches()
        epochs, reps = self._d_sizes.shape
        rows, ids = [], []
        for i in range(epochs):
            for j, d in enumerate(d_sets[i + 1]):
                if d is None:
                    self._d_sizes[i, j] = -1
                    continue
                self._d_sizes[i, j] = len(d)
                rows.extend(d)
                ids.extend([i * reps + j] * len(d))
        self._buffer = edge_rows(buffer, self._buffer)
        self._d_edges = edge_rows(rows, self._d_edges)
        self._d_ids = np.array(ids, dtype=self._d_ids.dtype)

    # ------------------------------------------------------------------
    def _update_space(self) -> None:
        self.meter.set_gauge("D sketches", len(self._d_edges) * self._edge_bits)
        self.meter.set_gauge("buffer B", len(self._buffer) * self._edge_bits)

    def _store(self, rows, ids) -> None:
        """Append ``rows`` to the live sketches ``ids``, one id per row."""
        np.add.at(self._d_sizes.ravel(), ids, 1)
        self._d_edges = append_rows(self._d_edges, rows)
        self._d_ids = append_rows(self._d_ids, ids)

    def _wipe(self, ids) -> None:
        """Line 14: drop the sketches ``ids`` and every row they held."""
        self._d_sizes.ravel()[ids] = -1
        keep = self._d_sizes.ravel()[self._d_ids] >= 0
        self._d_edges = self._d_edges[keep]
        self._d_ids = self._d_ids[keep]

    # ------------------------------------------------------------------
    def process_block(self, edges: np.ndarray) -> None:
        """Lines 6-14 over a ``(k, 2)`` block of insertions, in order.

        A self-loop raises :class:`ReproError`, naming the edge and its
        stream index, after the edges before it and before any change for
        it.
        """
        sketch_process_block(self, edges, capacity=self.buffer_capacity)

    # ------------------------------------------------------------------
    def _color_sketch_and_buffer(self) -> dict[int, int]:
        """Lines 15-17: colour ``D_{curr,k} | B`` for the first surviving
        ``k`` and output ``(chi(y), h_{curr,k}(y))`` as one integer."""
        epochs = self._d_sizes.shape[0]
        if self._curr <= epochs:
            alive = np.flatnonzero(self._d_sizes[self._curr - 1] >= 0)
            if not len(alive):
                raise AlgorithmFailure(
                    f"all {self._d_sizes.shape[1]} sketches of epoch "
                    f"{self._curr} overflowed"
                )
            k = int(alive[0])
            pool = np.concatenate((self.sketch_edges(self._curr, k), self._buffer))
            h = self.family.function(self._coeffs[self._curr - 1, k])
            h_curr = h.eval_array(np.arange(self.n))
        else:
            pool, h_curr = self._buffer, 0
        chi = np.ones(self.n, dtype=np.int64)
        first_fit_colors(pool, chi)
        colors = (chi - 1) * self.family.m + h_curr + 1
        return dict(enumerate(colors.tolist()))

    # ------------------------------------------------------------------
    def sketch_edges(self, epoch: int, j: int):
        """``D_{epoch, j}``'s edges in stream order, or None once wiped."""
        if self._d_sizes[epoch - 1, j] < 0:
            return None
        return self._d_edges[self._d_ids == (epoch - 1) * self._d_sizes.shape[1] + j]

    def surviving_sketches(self, epoch=None) -> int:
        """How many ``D_{epoch, j}`` are still valid (A3 ablation)."""
        epoch = self._curr if epoch is None else epoch
        if not 1 <= epoch <= len(self._d_sizes):
            return self._d_sizes.shape[1]
        return int((self._d_sizes[epoch - 1] >= 0).sum())
