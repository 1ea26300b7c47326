"""Palette sparsification [ACK19]: randomized non-robust (Delta+1)-coloring.

Each vertex samples a list of ``Theta(log n)`` colors from ``[Delta+1]``
before the stream; one pass stores only the *conflicting* edges (endpoints
with intersecting lists).  [ACK19] prove that w.h.p. only ``~O(n)`` edges
survive and a proper list-coloring from the sampled lists exists.  This is
the algorithm whose success the paper's trichotomy contrasts with the
robust setting: against an *adaptive* adversary its guarantee evaporates
(the adversary can learn colors and flood conflicting edges), which
experiment T6 demonstrates via :class:`repro.baselines.naive.
OneShotRandomColoring`; here we keep the classical static-stream version
as a :class:`MultipassStreamingAlgorithm`.

Completion uses greedy list-coloring over several random orders (the
paper's existence proof is non-constructive; [ACK19] give a poly-time
completion, and greedy-with-retries is the standard practical stand-in).
"""


import numpy as np

from repro.common.exceptions import AlgorithmFailure, ReproError
from repro.common.integer_math import ceil_log2
from repro.common.rng import SeededRng
from repro.streaming.machine import PassConsumer, require_machine
from repro.streaming.model import MultipassStreamingAlgorithm


class _ConflictCollectConsumer(PassConsumer):
    """The single streaming pass: keep edges whose endpoint lists intersect.

    Lists are held as one boolean membership matrix so the intersection
    test for a whole block is a single vectorized ``any()``; the
    surviving edges become one CSR build (same dedup, n, m, and neighbor
    sets as ``Graph.add_edge``, so the completion is identical).
    """

    def __init__(self, algo):
        self.algo = algo
        mask = np.zeros((algo.n, algo.delta + 2), dtype=bool)
        for v, colors in algo.lists.items():
            mask[v, list(colors)] = True
        self.mask = mask
        self.chunks: list = []

    def feed(self, item) -> None:
        if not isinstance(item, np.ndarray):
            return
        hit = (self.mask[item[:, 0]] & self.mask[item[:, 1]]).any(axis=1)
        if hit.any():
            self.chunks.append(item[hit])

    def finish(self):
        from repro.graph.csr import CSRGraph

        return CSRGraph.from_edge_array(
            self.algo.n,
            np.concatenate(self.chunks)
            if self.chunks
            else np.empty((0, 2), dtype=np.int64),
        )


class PaletteSparsificationColoring(MultipassStreamingAlgorithm):
    """Single-pass randomized ``(Delta+1)``-coloring for oblivious streams."""

    def __init__(
        self,
        n: int,
        delta: int,
        seed: int,
        list_size_factor: int = 8,
        completion_attempts: int = 50,
    ):
        super().__init__()
        if delta < 1:
            raise ReproError("delta must be >= 1")
        self.n = n
        self.delta = delta
        self.palette_size = delta + 1
        self._rng = SeededRng(seed)
        palette = list(range(1, delta + 2))
        size = min(delta + 1, max(2, list_size_factor * ceil_log2(max(2, n))))
        self.lists = {
            v: frozenset(self._rng.sample(palette, size)) for v in range(n)
        }
        self.meter.charge_random_bits(n * size * ceil_log2(delta + 2))
        self.completion_attempts = completion_attempts
        self.conflict_edge_count = 0

    # ------------------------------------------------------------------
    # pass machine: one collection pass, then completion
    # ------------------------------------------------------------------
    def blocks_start(self) -> None:
        self._mach = {"phase": "collect"}

    def blocks_consumer(self):
        if require_machine(self)["phase"] == "collect":
            return _ConflictCollectConsumer(self)
        return None

    def blocks_deliver(self, result, stream) -> None:
        mach = require_machine(self)
        if mach["phase"] == "collect":
            self._mach = {"phase": "done", "coloring": self._complete(result)}

    # ------------------------------------------------------------------
    def _complete(self, conflict) -> dict[int, int]:
        """Greedy list coloring of the conflict graph, retrying with fresh
        random orders (and most-constrained-first as a last attempt)."""
        self.conflict_edge_count = conflict.m
        self.meter.set_gauge(
            "conflict edges", conflict.m * 2 * ceil_log2(max(2, self.n))
        )
        order = list(range(self.n))
        for attempt in range(self.completion_attempts):
            if attempt == self.completion_attempts - 1:
                order.sort(key=lambda v: len(self.lists[v]))
            else:
                self._rng.shuffle(order)
            coloring = self._try_complete(conflict, order)
            if coloring is not None:
                return coloring
        raise AlgorithmFailure(
            "palette sparsification could not complete a list coloring "
            f"after {self.completion_attempts} attempts"
        )

    def _try_complete(self, conflict, order):
        coloring: dict[int, int] = {}
        for v in order:
            used = {coloring[w] for w in conflict.neighbors(v) if w in coloring}
            free = sorted(self.lists[v] - used)
            if not free:
                return None
            coloring[v] = free[0]
        return coloring
