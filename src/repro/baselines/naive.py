"""The adversary-breakable one-pass baseline.

:class:`OneShotRandomColoring` is the natural randomized one-pass
algorithm: commit to a uniformly random base coloring up front, store the
monochromatic edges (capacity-bounded), and repair their endpoints at
query time.  On *oblivious* streams each edge is monochromatic with
probability ``1/range``, so the store stays small and every query is
proper w.h.p.  An *adaptive* adversary, however, sees the base colors in
the outputs and floods monochromatic pairs until the store overflows;
dropped edges are improperly colored and the algorithm errs — exactly the
non-robustness the paper's Section 4 is about (experiment T6).
"""


import numpy as np

from repro.common.exceptions import ReproError
from repro.common.integer_math import ceil_div, ceil_log2
from repro.common.rng import SeededRng
from repro.streaming.model import OnePassAlgorithm


class OneShotRandomColoring(OnePassAlgorithm):
    """Random O(Delta^2)-palette coloring + bounded conflict store (non-robust).

    Maintains a current coloring ``chi`` over a fixed palette of
    ``Delta^2`` colors (exactly the boundary of the [CGS22] robust
    lower bound), stores (up to ``capacity``) edges that arrive
    monochromatic under the current ``chi``, and repairs stored conflicts
    at query time by first-fit within the *same* palette (it only knows
    its stored edges, so it cannot do better).

    On oblivious streams a fresh edge is monochromatic with probability
    ``~1/Delta^2``, so the store stays nearly empty and queries are
    proper w.h.p.  An adaptive adversary, however, reads ``chi`` off the
    outputs: first-fit repairs concentrate on low color indices, creating
    monochromatic pairs faster than the bounded store can absorb them;
    once it overflows, dropped conflicts go unrepaired and the output is
    improper — the separation the paper's Omega(Delta^2)-colors robust
    lower bound formalizes.
    """

    def __init__(self, n: int, delta: int, seed: int):
        super().__init__()
        if delta < 1:
            raise ReproError("delta must be >= 1")
        self.n = n
        self.delta = delta
        self.range_size = delta * delta
        self.palette_size = self.range_size
        self._rng = SeededRng(seed)
        self._chi = np.array(
            [self._rng.randint(0, self.range_size - 1) for _ in range(n)],
            dtype=np.int64,
        )
        self.meter.charge_random_bits(n * ceil_log2(self.range_size + 1))
        # Capacity sized for the oblivious regime: expected conflicts are
        # ~ m / range <= n/(8 Delta); leave generous slack.
        self.capacity = max(4, ceil_div(n, delta))
        self._stored: list[tuple[int, int]] = []
        self._stored_adj: dict[int, set[int]] = {}
        self.dropped_edges = 0
        self._edge_bits = 2 * ceil_log2(max(2, n))

    def process_block(self, edges: np.ndarray) -> None:
        """Store the block's monochromatic edges: one conflict mask.

        The first ``capacity - len(stored)`` monochromatic edges (in
        stream order) are kept; the rest are dropped, and the output is
        silently improper from then on.
        """
        mono = edges[self._chi[edges[:, 0]] == self._chi[edges[:, 1]]]
        room = max(0, self.capacity - len(self._stored))
        for u, v in mono[:room].tolist():
            self._store(u, v)
        self.dropped_edges += max(0, len(mono) - room)

    def _store(self, u: int, v: int) -> None:
        self._stored.append((u, v))
        self._stored_adj.setdefault(u, set()).add(v)
        self._stored_adj.setdefault(v, set()).add(u)
        self.meter.set_gauge(
            "conflict store", len(self._stored) * self._edge_bits
        )

    def query(self) -> dict[int, int]:
        # Repair stored conflicts in place: a random palette color avoiding
        # *stored* neighbors (all the algorithm remembers).  Random rather
        # than first-fit so that oblivious streams stay near-uniform; the
        # adaptive adversary still wins because it can always see the
        # current collisions, which a Delta^2 palette cannot avoid.
        for u, v in self._stored:
            if self._chi[u] == self._chi[v]:
                used = {int(self._chi[w]) for w in self._stored_adj.get(v, ())}
                free = [c for c in range(self.range_size) if c not in used]
                if free:
                    self._chi[v] = self._rng.choice(free)
        return {v: int(self._chi[v]) + 1 for v in range(self.n)}
