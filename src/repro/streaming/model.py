"""Abstract interfaces for the two streaming settings.

These are intentionally thin: concrete algorithms do the real work, and the
interfaces exist so the experiment harness, the adversarial game loop, and
the communication-protocol reduction can treat algorithms uniformly.

Both base classes implement the :class:`repro.engine.StreamingColorer`
protocol: the pass machine of :mod:`repro.streaming.machine`, which the
engine's one run driver (:class:`repro.persist.driver.ResumableRun`)
steps pass by pass, and :attr:`palette_bound`, the declared palette size
(``None`` when the algorithm only guarantees an asymptotic shape).
Every algorithm has one execution path, its pass machine;
:meth:`color_stream` drives the same machine over one
:class:`~repro.streaming.source.StreamSource` (a :class:`TokenStream` is
read as one-edge blocks) without the engine, for tests and for
Corollary 3.11.
"""

import abc

import numpy as np

from repro.common.space import SpaceMeter
from repro.streaming.machine import OnePassStreamConsumer, drive_blocks, require_machine
from repro.streaming.source import StreamSource


def block_source(stream) -> StreamSource:
    """The stream as a block source: a token stream reads as one-edge blocks."""
    if isinstance(stream, StreamSource):
        return stream
    return stream.as_source(1)


class SnapshotableAlgorithm:
    """The base both algorithm kinds share: the ``Snapshotable`` protocol,
    the space meter and :meth:`color_stream`.

    ``state_dict()`` captures *every* run-relevant attribute — RNG draw
    positions, sketch tables, slack counters, buffers, pass-machine
    phase, and :class:`SpaceMeter` peaks — through the typed codec of
    :mod:`repro.persist.codec`; ``load_state()`` restores it into a
    freshly constructed instance (same class, same constructor
    parameters) bit for bit.  Derived caches named in ``_snapshot_skip_``
    are excluded and rebuilt by ``_snapshot_init_``.
    """

    #: Attribute names excluded from snapshots (derived caches).
    _snapshot_skip_: tuple = ()

    def __init__(self):
        self.meter = SpaceMeter()

    def _snapshot_init_(self) -> None:
        """Rebuild the ``_snapshot_skip_`` caches after a restore."""

    def state_dict(self) -> dict:
        """Serialize the full algorithm state (JSON tree + numpy payloads)."""
        from repro.persist.codec import snapshot_object

        return snapshot_object(self)

    def load_state(self, state: dict, arrays: dict | None = None) -> None:
        """Restore a :meth:`state_dict` payload into this instance."""
        from repro.persist.codec import restore_object

        restore_object(self, state, arrays)

    def blocks_result(self) -> dict[int, int]:
        """The completed pass machine's coloring."""
        return require_machine(self)["coloring"]

    def color_stream(self, stream) -> dict[int, int]:
        """Run the pass machine over the stream, outside the engine.

        A :class:`~repro.streaming.source.StreamSource` (numpy ``(k, 2)``
        edge blocks, list tokens interleaved in place) goes straight to
        :func:`~repro.streaming.machine.drive_blocks`, the shared pass
        loop with no snapshots, and a :class:`TokenStream` is read as
        one-edge blocks through a fresh ``stream.as_source(1)``
        (:func:`block_source`).
        """
        return drive_blocks(self, block_source(stream))

    @property
    def palette_bound(self):
        """Declared palette size, or ``None`` if only asymptotic."""
        return getattr(self, "palette_size", None)

    @property
    def peak_space_bits(self) -> int:
        """Peak working-state bits charged to the meter."""
        return self.meter.peak_bits

    @property
    def random_bits_used(self) -> int:
        """Random bits consumed so far (0 for deterministic algorithms)."""
        return self.meter.random_bits


class MultipassStreamingAlgorithm(SnapshotableAlgorithm, abc.ABC):
    """A (possibly multipass) algorithm over a fixed input stream.

    Subclasses implement the pass-machine protocol below
    (:mod:`repro.streaming.machine`), reading the stream only through the
    passes :meth:`color_stream` drives and charging ``self.meter`` for
    state.
    """

    def run(self, stream) -> dict[int, int]:
        """Process the stream and return a total coloring ``vertex -> color``."""
        return self.color_stream(stream)

    @abc.abstractmethod
    def blocks_start(self) -> None:
        """Initialize the pass machine."""

    @abc.abstractmethod
    def blocks_consumer(self):
        """The consumer for the pass the machine needs next, or ``None``."""

    @abc.abstractmethod
    def blocks_deliver(self, result, stream) -> None:
        """Fold a finished pass's result into the machine state."""


class OnePassAlgorithm(SnapshotableAlgorithm, abc.ABC):
    """A single-pass algorithm playing the adversarial game of Section 2.

    The adversary (or a static driver) feeds edge insertions to
    :meth:`process_block` as ``(k, 2)`` arrays, one edge or many at a
    time, and may call :meth:`query` at any time; ``query`` must return a
    proper coloring of all edges processed so far.  The state after a
    sequence of insertions does not depend on how they were cut into
    blocks, which both the static drivers (one pass of blocks, then one
    query) and the adversarial game rely on.
    """

    @abc.abstractmethod
    def process_block(self, edges: np.ndarray) -> None:
        """Consume a ``(k, 2)`` block of edge insertions, in order."""

    @abc.abstractmethod
    def query(self) -> dict[int, int]:
        """Return a coloring of every vertex, proper for the edges so far."""

    # -- pass-machine protocol: one streaming pass, then query ----------
    def blocks_start(self) -> None:
        self._mach = {"phase": "stream"}

    def blocks_consumer(self):
        if require_machine(self)["phase"] == "stream":
            return OnePassStreamConsumer(self)
        return None

    def blocks_deliver(self, result, stream) -> None:
        mach = require_machine(self)
        if mach["phase"] == "stream":
            # query() may mutate state (e.g. in-place conflict repair), so
            # its outcome is computed exactly once, here.
            self._mach = {"phase": "done", "coloring": self.query()}
