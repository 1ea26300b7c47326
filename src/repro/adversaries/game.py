"""The adversarial insert/query game loop (paper Section 2).

One round = the adversary proposes an edge, the algorithm processes it, the
algorithm is queried, and the output is validated against the graph built so
far.  The algorithm "errs" (paper terminology) if any intermediate output is
improper; the loop records every error instead of stopping, so experiments
can report error *rates*.

Adversary-chosen edges reach the algorithm through ``process_block``, its
only way in: insertions between two queries are accumulated and handed
over as one ``(k, 2)`` array (one edge per call when ``query_every=1``).
This changes nothing observable — the adversary still proposes edges one
at a time against the live graph, its view of the algorithm (the last
queried coloring) only refreshes at query rounds anyway, and the
algorithm's state does not depend on how the insertions were cut into
blocks — but it removes the per-edge Python dispatch between queries.
"""

from dataclasses import dataclass, field

import numpy as np

from repro.common.exceptions import AdversaryError, AlgorithmFailure
from repro.graph.coloring import monochromatic_edges, num_colors_used
from repro.graph.graph import Graph


@dataclass
class GameResult:
    """Outcome of an adversarial game."""

    rounds: int
    errors: int
    error_rounds: list[int] = field(default_factory=list)
    failures: int = 0  # declared failures (AlgorithmFailure), distinct from silent errors
    max_colors_used: int = 0
    final_colors_used: int = 0
    peak_space_bits: int = 0
    random_bits: int = 0
    final_max_degree: int = 0

    @property
    def clean(self) -> bool:
        """True iff every answered query was a proper coloring."""
        return self.errors == 0 and self.failures == 0


def run_adversarial_game(
    algorithm,
    adversary,
    n: int,
    delta: int,
    rounds: int,
    query_every: int = 1,
) -> GameResult:
    """Play ``rounds`` insertions of the adaptive game and validate outputs.

    Parameters
    ----------
    algorithm:
        A :class:`repro.streaming.OnePassAlgorithm`.
    adversary:
        A :class:`repro.adversaries.Adversary`.
    n, delta:
        Game parameters; the adversary must keep all degrees ``<= delta``.
    rounds:
        Maximum number of insertions (the adversary may stop earlier).
    query_every:
        Query/validate the algorithm after every this-many insertions
        (1 = the paper's per-update output model).  The insertions
        between two queries reach
        :meth:`~repro.streaming.model.OnePassAlgorithm.process_block` as
        one array.
    """
    graph = Graph(n)
    coloring = algorithm.query()
    result = GameResult(rounds=0, errors=0)
    pending: list[tuple[int, int]] = []

    def flush() -> None:
        if pending:
            algorithm.process_block(np.asarray(pending, dtype=np.int64))
        pending.clear()

    for round_index in range(1, rounds + 1):
        edge = adversary.next_edge(graph, coloring, delta)
        if edge is None:
            break
        u, v = edge
        if graph.has_edge(u, v):
            raise AdversaryError(f"adversary repeated edge ({u}, {v})")
        if graph.degree(u) >= delta or graph.degree(v) >= delta:
            raise AdversaryError(f"adversary exceeded degree cap at ({u}, {v})")
        graph.add_edge(u, v)
        pending.append((u, v))
        result.rounds = round_index
        if round_index % query_every == 0:
            flush()
            try:
                coloring = algorithm.query()
            except AlgorithmFailure:
                result.failures += 1
                result.error_rounds.append(round_index)
                continue
            bad = monochromatic_edges(graph, coloring)
            if bad:
                result.errors += 1
                result.error_rounds.append(round_index)
            colors = num_colors_used(coloring)
            result.max_colors_used = max(result.max_colors_used, colors)
            result.final_colors_used = colors
    flush()  # edges inserted after the last query boundary
    result.peak_space_bits = algorithm.peak_space_bits
    result.random_bits = algorithm.random_bits_used
    result.final_max_degree = graph.max_degree()
    return result
