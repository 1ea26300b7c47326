"""The :class:`StreamingColorer` protocol — the engine's one front door.

Every algorithm in this repository (the four paper algorithms and the four
baselines) satisfies this structural protocol: it owns a
:class:`~repro.common.space.SpaceMeter`, it runs as a pass machine
(``blocks_start`` / ``blocks_consumer`` / ``blocks_deliver`` /
``blocks_result``, see :mod:`repro.streaming.machine`), and it declares
its palette bound (or ``None`` when the guarantee is only asymptotic).
The concrete method implementations live on the abstract bases in
:mod:`repro.streaming.model`, which also give every algorithm
``color_stream``, a plain drive of the same machine over one
:class:`~repro.streaming.source.StreamSource`; one-pass (adversarially
robust) algorithms additionally expose ``process_block``/``query`` for
the adaptive game, which :func:`repro.engine.run_game` drives.

The engine — :func:`repro.engine.run`, the :class:`AlgorithmRegistry`, and
the :class:`GridRunner` — talks to algorithms *only* through this
protocol: every run is a :class:`~repro.persist.driver.ResumableRun`,
which steps the machine pass by pass, so future scaling work (sharding,
async execution, result caching) plugs in at exactly one seam.
"""

from typing import Protocol, runtime_checkable

from repro.common.space import SpaceMeter
from repro.streaming.machine import PassConsumer
from repro.streaming.source import StreamSource

__all__ = ["StreamingColorer"]


@runtime_checkable
class StreamingColorer(Protocol):
    """Structural interface every registered algorithm implements."""

    n: int
    meter: SpaceMeter

    def blocks_start(self) -> None:
        """Initialize the pass machine."""
        ...

    def blocks_consumer(self) -> PassConsumer | None:
        """The consumer for the pass the machine needs next, or ``None``."""
        ...

    def blocks_deliver(self, result, stream: StreamSource) -> None:
        """Fold a finished pass's result into the machine state."""
        ...

    def blocks_result(self) -> dict[int, int]:
        """The completed machine's total coloring ``vertex -> color``."""
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
