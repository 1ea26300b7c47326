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

from repro.common.exceptions import ReproError
from repro.common.integer_math import ceil_log2, ceil_sqrt, floor_log2, next_prime
from repro.common.rng import SeededRng
from repro.core.dsketch import DSketchColoring
from repro.hashing.kindependent import PolynomialHashFamily


class SketchSwitchingQuadraticColoring(DSketchColoring):
    """[CGS22]-style robust ``O(Delta^2)``-coloring at the ``n sqrt(Delta)`` space point."""

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
        self._init_sketches()
        self._curr = 1
        # (n, epochs, P) hash values, filled by cached_hash_rows on first use.
        self._hash_table = None
        self._hash_filled = None
        self._edge_bits = 2 * ceil_log2(max(2, n))

    # ------------------------------------------------------------------
    def query(self) -> dict[int, int]:
        """Color ``D_{curr,k} | B`` for a surviving ``k``; output
        ``(chi(y), h_{curr,k}(y))`` flattened to one integer."""
        return self._color_sketch_and_buffer()

    # ------------------------------------------------------------------
    @property
    def palette_size(self) -> int:
        """``(Delta+1) * l = O(Delta^2)``."""
        return (self.delta + 1) * self.ell
