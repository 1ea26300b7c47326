"""The :class:`StreamingColorer` protocol — the engine's one front door.

Every algorithm in this repository (the four paper algorithms and the four
baselines) satisfies this structural protocol: it owns a
:class:`~repro.common.space.SpaceMeter`, it can consume a
:class:`~repro.streaming.source.StreamSource` and return a total coloring,
and it declares its palette bound (or ``None`` when the guarantee is only
asymptotic).  The concrete method implementations live on the abstract
bases in :mod:`repro.streaming.model`; one-pass (adversarially robust)
algorithms additionally expose ``process_block``/``query`` for the
adaptive game, which :func:`repro.engine.run_game` drives.

The engine — :func:`repro.engine.run`, the :class:`AlgorithmRegistry`, and
the :class:`GridRunner` — talks to algorithms *only* through this protocol,
so future scaling work (sharding, async execution, result caching) plugs in
at exactly one seam.
"""

from typing import Protocol, runtime_checkable

from repro.common.space import SpaceMeter
from repro.streaming.source import StreamSource

__all__ = ["StreamingColorer"]


@runtime_checkable
class StreamingColorer(Protocol):
    """Structural interface every registered algorithm implements."""

    n: int
    meter: SpaceMeter

    def color_stream(self, stream: StreamSource) -> dict[int, int]:
        """Consume the stream and return a total coloring ``vertex -> color``."""
        ...

    @property
    def palette_bound(self) -> int | None:
        """Declared palette size, or ``None`` if only asymptotic."""
        ...

    @property
    def peak_space_bits(self) -> int:
        """Peak working-state bits charged to the space meter."""
        ...

    @property
    def random_bits_used(self) -> int:
        """Random bits consumed (0 for the deterministic algorithms)."""
        ...
