"""Baseline algorithms the paper compares against or builds upon.

- :class:`TwoPassQuadraticColoring` — deterministic ``O(Delta^2)``-coloring
  in O(1) passes, in the style of [ACS22] (family search for a
  low-conflict hash coloring, then store-and-repair).
- :class:`ColorReductionColoring` — deterministic ``O(Delta)``-coloring in
  ``O(log Delta)`` reduction rounds ([ACS22]-style bound via
  Kuhn-Wattenhofer-style palette halving).
- :class:`SketchSwitchingQuadraticColoring` — the [CGS22]-style robust
  ``O(Delta^2)``-coloring at the ``~O(n sqrt(Delta))`` space point, the
  algorithm Corollary 4.7's headline improvement (i) is measured against.
- :class:`PaletteSparsificationColoring` — the randomized non-robust
  ``(Delta+1)``-coloring of [ACK19] (single pass; the algorithm the
  trichotomy contrasts with).
- :class:`OneShotRandomColoring` — a natural non-robust one-pass algorithm
  that an adaptive adversary demonstrably breaks (experiment T6).
"""

from repro.baselines.acs22 import ColorReductionColoring, TwoPassQuadraticColoring
from repro.baselines.cgs22 import SketchSwitchingQuadraticColoring
from repro.baselines.naive import OneShotRandomColoring
from repro.baselines.palette_sparsification import PaletteSparsificationColoring

__all__ = [
    "ColorReductionColoring",
    "OneShotRandomColoring",
    "PaletteSparsificationColoring",
    "SketchSwitchingQuadraticColoring",
    "TwoPassQuadraticColoring",
]
