"""Algorithm 3: randomness-efficient adversarially robust O(Delta^3)-coloring.

Theorem 4 / Theorem 7: a robust coloring with palette
``[(Delta+1)] x [l^2]`` (``l = 2^{floor(log Delta)}``, so ``O(Delta^3)``
colors) in ``~O(n)`` bits of space *including* all random bits — the
information-theoretically clean counterpart of Algorithm 2's random oracle.

Mechanics: ``P = ceil(10 log n)`` independent 4-wise-independent hash
functions ``h_{i,j} : V -> [l^2]`` per epoch ``i``.  Each sketch ``D_{i,j}``
stores the ``h_{i,j}``-monochromatic edges seen while ``curr < i``, but is
invalidated if it ever exceeds ``7n/Delta`` edges (lines 10-14).
Lemma 4.8: by Chebyshev on the 4-wise independence, each ``D_{i,j}``
overflows with probability ``<= 1/2``, so w.h.p. some ``j`` survives at
query time.  The query greedily ``(Delta+1)``-colors ``D_{curr,k} | B``
and outputs the pair ``(chi(y), h_{curr,k}(y))`` (Lemma 4.9).  The
buffer, the sketches and the query are
:class:`~repro.core.dsketch.DSketchColoring`'s, shared with the [CGS22]
baseline.

A failed query (all ``D_{curr,j}`` invalidated) raises
:class:`AlgorithmFailure` — the ``delta`` error budget of the theorem.
"""

from repro.common.exceptions import ReproError
from repro.common.integer_math import ceil_log2, floor_log2, next_prime
from repro.common.rng import SeededRng
from repro.core.dsketch import DSketchColoring
from repro.hashing.kindependent import PolynomialHashFamily


class LowRandomnessRobustColoring(DSketchColoring):
    """Robust ``O(Delta^3)``-coloring within semi-streaming space incl. randomness."""

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
        self._init_sketches()
        self._curr = 1
        # (n, Delta, P) hash values, filled by cached_hash_rows on first use.
        self._hash_table = None
        self._hash_filled = None
        self._edge_bits = 2 * ceil_log2(max(2, n))
        self._update_space()

    @property
    def buffer_capacity(self) -> int:
        """B holds the last ``n`` edges (lines 6-8)."""
        return self.n

    # ------------------------------------------------------------------
    def query(self) -> dict[int, int]:
        """Lines 15-17: the first surviving ``D_{curr,k}``, the greedy
        coloring ``chi`` of ``D_{curr,k} | B``, and ``(chi(y),
        h_{curr,k}(y))`` flattened to one integer per vertex."""
        return self._color_sketch_and_buffer()

    # ------------------------------------------------------------------
    @property
    def palette_size(self) -> int:
        """``(Delta+1) * l^2 = O(Delta^3)``."""
        return (self.delta + 1) * self.range_size
