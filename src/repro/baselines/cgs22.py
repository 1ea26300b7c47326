"""A [CGS22]-style robust O(Delta^2)-coloring in ~O(n sqrt(Delta)) space.

Chakrabarti, Ghosh, Stoeckl (ITCS 2022) — the prior state of the art this
paper's Section 4 improves — gave, besides the O(Delta^3) semi-streaming
algorithm, "an O(Delta^2)-coloring in ~O(n sqrt(Delta)) space (including
random bits used)".  Corollary 4.7's headline point (i) improves exactly
this: O(Delta^2) colors in only O(n Delta^{1/3}) space.  This module
provides the comparison point.

Construction (sketch-switching, no graph-structure exploitation):

- Buffer of ``n * ceil(sqrt(Delta))`` edges; ``~sqrt(Delta)/2`` epochs.
- Per epoch, ``P = ceil(10 log n)`` 4-wise-independent hash functions
  ``h_{i,j} : V -> [l]`` with ``l = 2^{floor(log Delta)} ~ Delta`` — a
  *coarse* range, so each sketch keeps ``~m/l <= n/2`` monochromatic
  edges (capacity-capped at ``4n``, wiped on overflow as in Algorithm 3).
- Query: greedily ``(Delta+1)``-color ``D_{curr,k} | B`` for a surviving
  ``k`` and output the pair ``(chi(y), h_{curr,k}(y))`` — palette
  ``(Delta+1) * l = O(Delta^2)``.

Robustness follows the same freeze-before-reveal argument as Algorithm 3
(``D_curr`` stops receiving edges before ``h_curr`` first appears in an
output).  Space: ``O(n)`` per sketch is *not* guaranteed here — only the
buffer dominates at ``n sqrt(Delta)`` edges — which is precisely why this
sits at the ``O(n Delta^{1/2})`` point of the tradeoff curve.
"""

import numpy as np

from repro.common.exceptions import AlgorithmFailure, ReproError
from repro.common.integer_math import ceil_log2, ceil_sqrt, floor_log2, next_prime
from repro.common.rng import SeededRng
from repro.graph.coloring import greedy_coloring
from repro.graph.graph import Graph
from repro.hashing.kindependent import PolynomialHashFamily
from repro.streaming.blocks import cached_hash_rows
from repro.streaming.model import OnePassAlgorithm


class SketchSwitchingQuadraticColoring(OnePassAlgorithm):
    """[CGS22]-style robust ``O(Delta^2)``-coloring at the ``n sqrt(Delta)`` space point."""

    supports_blocks = True
    # The vertex-major hash table is re-derived from the stored
    # coefficients.
    _snapshot_skip_ = ("_hash_table", "_hash_filled")

    def _snapshot_init_(self) -> None:
        self._hash_table = None
        self._hash_filled = None

    def __init__(self, n: int, delta: int, seed: int, repetitions=None):
        super().__init__()
        if delta < 1:
            raise ReproError(f"delta must be >= 1, got {delta}")
        self.n = n
        self.delta = delta
        self.ell = 1 << floor_log2(delta)
        self.buffer_capacity = n * ceil_sqrt(delta)
        self.num_epochs = max(1, -(-delta // (2 * ceil_sqrt(delta))) + 1)
        self.repetitions = (
            repetitions if repetitions is not None
            else max(1, 10 * ceil_log2(max(2, n)))
        )
        self.overflow_cap = 4 * n
        prime = next_prime(max(n, self.ell, 11))
        self.family = PolynomialHashFamily(prime, k=4, m=self.ell)
        rng = SeededRng(seed)
        # Batched sampler; draws the identical coefficient sequence the
        # previous direct rng.np.integers call did.
        self._coeffs = self.family.coeff_array(
            rng, (self.num_epochs, self.repetitions)
        )
        self.meter.charge_random_bits(
            self.num_epochs * self.repetitions * self.family.seed_bits()
        )
        self._prime = prime
        self._d_sets: list[list] = [
            [[] for _ in range(self.repetitions)]
            for _ in range(self.num_epochs + 2)
        ]
        self._buffer: list[tuple[int, int]] = []
        self._curr = 1
        # (n, epochs, P) hash values, filled by cached_hash_rows on first use.
        self._hash_table = None
        self._hash_filled = None
        self._edge_bits = 2 * ceil_log2(max(2, n))

    # ------------------------------------------------------------------
    def _hash_all(self, x: int) -> np.ndarray:
        """Values ``h_{i,j}(x)`` for all (i, j): row ``x`` of the hash table."""
        return cached_hash_rows(self, np.array([x], dtype=np.int64))[x]

    def _update_space(self) -> None:
        stored = sum(
            len(dj) for di in self._d_sets for dj in di if dj is not None
        )
        self.meter.set_gauge("D sketches", stored * self._edge_bits)
        self.meter.set_gauge("buffer B", len(self._buffer) * self._edge_bits)

    # ------------------------------------------------------------------
    def process(self, u: int, v: int) -> None:
        """One insertion; a self-loop raises before any state changes."""
        if u == v:
            index = (self._curr - 1) * self.buffer_capacity + len(self._buffer)
            raise ReproError(f"self-loop ({u},{v}) at stream index {index}")
        if len(self._buffer) == self.buffer_capacity:
            self._buffer = []
            self._curr += 1
        self._buffer.append((u, v))
        hu = self._hash_all(u)
        hv = self._hash_all(v)
        mono_i, mono_j = np.nonzero(hu == hv)
        for i, j in zip(mono_i + 1, mono_j):
            if not self._curr + 1 <= i <= self.num_epochs:
                continue
            d_i = self._d_sets[i]
            d_ij = d_i[j]
            if d_ij is None:
                continue
            if len(d_ij) < self.overflow_cap:
                d_ij.append((u, v))
            else:
                d_i[j] = None
        self._update_space()

    def process_block(self, edges: np.ndarray) -> None:
        """Vectorized :meth:`process` over a ``(k, 2)`` block (bit-identical)."""
        from repro.streaming.blocks import sketch_process_block

        sketch_process_block(self, edges, capacity=self.buffer_capacity)

    # ------------------------------------------------------------------
    def query(self) -> dict[int, int]:
        if self._curr <= self.num_epochs:
            d_curr = self._d_sets[self._curr]
        else:
            d_curr = [[] for _ in range(self.repetitions)]
        k = next((j for j, d in enumerate(d_curr) if d is not None), None)
        if k is None:
            raise AlgorithmFailure(
                f"all {self.repetitions} sketches of epoch {self._curr} overflowed"
            )
        graph = Graph(self.n)  # repro: noqa[R3] sketch contents, not the stream
        for u, v in list(d_curr[k]) + self._buffer:
            if not graph.has_edge(u, v):
                graph.add_edge(u, v)
        chi = greedy_coloring(graph)
        if self._curr <= self.num_epochs:
            h = self.family.function(self._coeffs[self._curr - 1, k])
            h_curr = h.eval_array(np.arange(self.n)).tolist()
        else:
            h_curr = [0] * self.n
        return {
            y: (chi[y] - 1) * self.ell + h_curr[y] + 1 for y in range(self.n)
        }

    # ------------------------------------------------------------------
    @property
    def palette_size(self) -> int:
        """``(Delta+1) * l = O(Delta^2)``."""
        return (self.delta + 1) * self.ell
