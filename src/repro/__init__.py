"""repro: reproduction of "Coloring in Graph Streams via Deterministic and
Adversarially Robust Algorithms" (Assadi, Chakrabarti, Ghosh, Stoeckl,
PODS 2023; arXiv:2212.10641).

Public API highlights
---------------------
- :mod:`repro.engine` — the unified front door: ``run(spec, stream)`` over
  a string-keyed :class:`~repro.engine.AlgorithmRegistry` covering the four
  paper algorithms and the four baselines, uniform
  :class:`~repro.engine.ColoringResult` records, and declarative
  :class:`~repro.engine.GridSpec` experiment grids.
- :mod:`repro.adversaries` — the adaptive insert/query game.
- :mod:`repro.baselines` — [ACS22]/[ACK19]-style comparison points.
- :mod:`repro.analysis.experiments` — the T1-T10/A1-A4 experiment suite,
  expressed as engine grids.

See README.md for a quickstart and DESIGN.md for the system inventory.
"""

from repro.engine import (
    REGISTRY,
    AlgorithmRegistry,
    ColoringResult,
    GameSpec,
    GridRunner,
    GridSpec,
    RunSpec,
    StreamingColorer,
    run,
    run_game,
)
from repro.graph import Graph
from repro.streaming import TokenStream
from repro.streaming.stream import stream_from_graph, stream_with_lists

__version__ = "1.1.0"

__all__ = [
    "AlgorithmRegistry",
    "ColoringResult",
    "GameSpec",
    "Graph",
    "GridRunner",
    "GridSpec",
    "REGISTRY",
    "RunSpec",
    "StreamingColorer",
    "TokenStream",
    "__version__",
    "run",
    "run_game",
    "stream_from_graph",
    "stream_with_lists",
]
