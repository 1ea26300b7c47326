"""Algorithm 3: randomness-efficient adversarially robust O(Delta^3)-coloring.

Theorem 4 / Theorem 7: a robust coloring with palette
``[(Delta+1)] x [l^2]`` (``l = 2^{floor(log Delta)}``, so ``O(Delta^3)``
colors) in ``~O(n)`` bits of space *including* all random bits — the
information-theoretically clean counterpart of Algorithm 2's random oracle.

Mechanics: ``P = ceil(10 log n)`` independent 4-wise-independent hash
functions ``h_{i,j} : V -> [l^2]`` per epoch ``i``.  Each sketch ``D_{i,j}``
stores the ``h_{i,j}``-monochromatic edges seen while ``curr < i``, but is
invalidated (``None``) if it ever exceeds ``7n/Delta`` edges (lines 10-14).
Lemma 4.8: by Chebyshev on the 4-wise independence, each ``D_{i,j}``
overflows with probability ``<= 1/2``, so w.h.p. some ``j`` survives at
query time.  The query greedily ``(Delta+1)``-colors ``D_{curr,k} | B``
and outputs the pair ``(chi(y), h_{curr,k}(y))`` (Lemma 4.9).

A failed query (all ``D_{curr,j}`` invalidated) raises
:class:`AlgorithmFailure` — the ``delta`` error budget of the theorem.
"""

import numpy as np

from repro.common.exceptions import AlgorithmFailure, ReproError
from repro.common.integer_math import ceil_log2, floor_log2, next_prime
from repro.common.rng import SeededRng
from repro.graph.coloring import greedy_coloring
from repro.graph.graph import Graph
from repro.hashing.kindependent import PolynomialHashFamily
from repro.streaming.blocks import cached_hash_rows
from repro.streaming.model import OnePassAlgorithm


class LowRandomnessRobustColoring(OnePassAlgorithm):
    """Robust ``O(Delta^3)``-coloring within semi-streaming space incl. randomness."""

    supports_blocks = True
    # The vertex-major hash table is a simulation speedup re-derived from
    # the stored coefficients; snapshots drop it.
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
        # l = greatest power of two <= Delta; palette [(Delta+1)] x [l^2].
        self.ell = 1 << floor_log2(delta)
        self.range_size = self.ell * self.ell
        self.repetitions = (
            repetitions
            if repetitions is not None
            else max(1, 10 * ceil_log2(max(2, n)))
        )
        self.overflow_cap = max(1, (7 * n) // delta)
        # 4-independent family V -> [l^2] of size poly(n) (Lemma 4.8 needs
        # exactly 4-wise independence for its variance computation).
        prime = next_prime(max(n, self.range_size, 11))
        self.family = PolynomialHashFamily(prime, k=4, m=self.range_size)
        rng = SeededRng(seed)
        # Coefficients for h_{i,j}: i in [Delta] epochs, j in [P] repetitions
        # (the family's batched sampler draws the identical sequence the
        # previous direct rng.np.integers call did).
        self._coeffs = self.family.coeff_array(rng, (delta, self.repetitions))
        self.meter.charge_random_bits(
            delta * self.repetitions * self.family.seed_bits()
        )
        self._prime = prime
        # D_{i,j}: list of edges, or None once invalidated.
        self._d_sets: list[list] = [
            [[] for _ in range(self.repetitions)] for _ in range(delta + 2)
        ]
        self._buffer: list[tuple[int, int]] = []
        self._curr = 1
        # (n, Delta, P) hash values, filled by cached_hash_rows on first use.
        self._hash_table = None
        self._hash_filled = None
        self._edge_bits = 2 * ceil_log2(max(2, n))
        self._update_space()

    # ------------------------------------------------------------------
    def _hash_all(self, x: int) -> np.ndarray:
        """Values ``h_{i,j}(x)`` for all (i, j): row ``x`` of the hash table."""
        return cached_hash_rows(self, np.array([x], dtype=np.int64))[x]

    def _update_space(self) -> None:
        stored = sum(
            len(dj)
            for di in self._d_sets
            for dj in di
            if dj is not None
        )
        self.meter.set_gauge("D sketches", stored * self._edge_bits)
        self.meter.set_gauge("buffer B", len(self._buffer) * self._edge_bits)

    # ------------------------------------------------------------------
    def process(self, u: int, v: int) -> None:
        """Lines 6-14 for one insertion.

        A self-loop raises :class:`ReproError` before any state changes.
        """
        if u == v:
            index = (self._curr - 1) * self.n + len(self._buffer)
            raise ReproError(f"self-loop ({u},{v}) at stream index {index}")
        # Lines 6-8: buffer roll.
        if len(self._buffer) == self.n:
            self._buffer = []
            self._curr += 1
        self._buffer.append((u, v))
        # Lines 9-14: future epochs' sketches.
        hu = self._hash_all(u)
        hv = self._hash_all(v)
        # Monochromatic (i, j) pairs are rare (probability 1/l^2 each), so
        # find them vectorized and only touch those sketches.
        mono_i, mono_j = np.nonzero(hu == hv)
        for i, j in zip(mono_i + 1, mono_j):
            if not self._curr + 1 <= i <= self.delta:
                continue
            d_i = self._d_sets[i]
            d_ij = d_i[j]
            if d_ij is None:
                continue
            if len(d_ij) < self.overflow_cap:
                d_ij.append((u, v))
            else:
                d_i[j] = None  # wipe if it grows too large (line 14)
        self._update_space()

    def process_block(self, edges: np.ndarray) -> None:
        """Vectorized :meth:`process` over a ``(k, 2)`` block (bit-identical)."""
        from repro.streaming.blocks import sketch_process_block

        sketch_process_block(self, edges, capacity=self.n)

    # ------------------------------------------------------------------
    def query(self) -> dict[int, int]:
        # Line 15: first surviving repetition for the current epoch.
        if self._curr <= self.delta:
            d_curr = self._d_sets[self._curr]
        else:
            d_curr = [[] for _ in range(self.repetitions)]
        k = next((j for j, d in enumerate(d_curr) if d is not None), None)
        if k is None:
            raise AlgorithmFailure(
                f"all {self.repetitions} sketches of epoch {self._curr} overflowed"
            )
        # Line 16: greedy coloring of D_{curr,k} | B.
        edges = list(d_curr[k]) + self._buffer
        graph = Graph(self.n)  # repro: noqa[R3] sketch contents, not the stream
        for u, v in edges:
            if not graph.has_edge(u, v):
                graph.add_edge(u, v)
        chi = greedy_coloring(graph)
        # Line 17: output (chi(y), h_{curr,k}(y)) flattened to one integer.
        if self._curr <= self.delta:
            h = self.family.function(self._coeffs[self._curr - 1, k])
            h_curr = h.eval_array(np.arange(self.n)).tolist()
        else:
            h_curr = [0] * self.n
        return {
            y: (chi[y] - 1) * self.range_size + h_curr[y] + 1
            for y in range(self.n)
        }

    # ------------------------------------------------------------------
    @property
    def palette_size(self) -> int:
        """``(Delta+1) * l^2 = O(Delta^3)``."""
        return (self.delta + 1) * self.range_size

    def surviving_sketches(self, epoch=None) -> int:
        """How many ``D_{epoch, j}`` are still valid (A3 ablation)."""
        epoch = self._curr if epoch is None else epoch
        if not 1 <= epoch <= self.delta:
            return self.repetitions
        return sum(1 for d in self._d_sets[epoch] if d is not None)
