"""Graph substrate: data structure, generators, and offline coloring tools.

Everything here is classical (non-streaming) graph machinery that the
paper's streaming algorithms invoke as subroutines: greedy and
``(degeneracy+1)`` offline colorings (Definition 4.1), the constructive
Turán independent set (Lemma 2.1), and the workload generators used by the
experiment suite.
"""

from repro.graph.coloring import (
    greedy_coloring,
    is_proper_coloring,
    num_colors_used,
    validate_coloring,
)
from repro.graph.csr import CSRGraph
from repro.graph.degeneracy import (
    degeneracy,
    degeneracy_coloring,
    degeneracy_ordering,
)
from repro.graph.graph import Graph
from repro.graph.independent_set import turan_independent_set
from repro.graph.zoo import (
    ZOO_FAMILIES,
    ZOO_ORDERS,
    arrange_edges,
    workload_delta,
    workload_edges,
)

__all__ = [
    "CSRGraph",
    "Graph",
    "ZOO_FAMILIES",
    "ZOO_ORDERS",
    "arrange_edges",
    "workload_delta",
    "workload_edges",
    "degeneracy",
    "degeneracy_coloring",
    "degeneracy_ordering",
    "greedy_coloring",
    "is_proper_coloring",
    "num_colors_used",
    "turan_independent_set",
    "validate_coloring",
]
