"""Abstract interfaces for the two streaming settings.

These are intentionally thin: concrete algorithms do the real work, and the
interfaces exist so the experiment harness, the adversarial game loop, and
the communication-protocol reduction can treat algorithms uniformly.

Both base classes implement the :class:`repro.engine.StreamingColorer`
protocol: :meth:`color_stream` consumes a :class:`TokenStream` or a
:class:`~repro.streaming.source.StreamSource` and returns a total
coloring, and :attr:`palette_bound` exposes the declared palette size
(``None`` when the algorithm only guarantees an asymptotic shape).
The engine's :func:`repro.engine.run` entry point drives algorithms only
through that protocol.
"""

import abc

import numpy as np

from repro.common.exceptions import CheckpointError
from repro.common.space import SpaceMeter
from repro.streaming.machine import OnePassStreamConsumer, drive_blocks, require_machine
from repro.streaming.source import StreamSource
from repro.streaming.tokens import EdgeToken


def block_source(stream) -> StreamSource:
    """The stream as a block source: a token stream reads as one-edge blocks."""
    if isinstance(stream, StreamSource):
        return stream
    return stream.as_source(1)


class SnapshotableAlgorithm:
    """The ``Snapshotable`` protocol: full algorithm state as plain data.

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

    #: True once the class's block path runs on the resumable pass
    #: machine, i.e. suspend/restore at block boundaries is supported.
    supports_checkpoint = False

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


class MultipassStreamingAlgorithm(SnapshotableAlgorithm):
    """A (possibly multipass) algorithm over a fixed input stream.

    Subclasses implement the pass-machine protocol below, reading the
    stream only through the passes :meth:`run` drives and charging
    ``self.meter`` for state.  :meth:`run` is the one driver: a
    :class:`~repro.streaming.source.StreamSource` (numpy ``(k, 2)`` edge
    blocks, list tokens interleaved in place) goes straight to
    :func:`~repro.streaming.machine.drive_blocks`, and a
    :class:`TokenStream` is read as one-edge blocks through
    ``stream.as_source(1)``, which shares the stream's pass counter and
    fires its per-token observer.
    """

    #: Every multipass algorithm consumes blocks natively.
    supports_blocks = True

    def __init__(self):
        self.meter = SpaceMeter()

    def run(self, stream) -> dict[int, int]:
        """Process the stream and return a total coloring ``vertex -> color``."""
        return drive_blocks(self, block_source(stream))

    def color_stream(self, stream) -> dict[int, int]:
        """Protocol entry point: :meth:`run`."""
        return self.run(stream)

    # -- pass-machine protocol (repro.streaming.machine) ----------------
    # Multipass algorithms implement these to run as a resumable state
    # machine; the default raises so that only audited classes claim
    # checkpoint support.
    def blocks_start(self) -> None:
        raise CheckpointError(
            f"{type(self).__name__} does not implement the pass machine"
        )

    def blocks_consumer(self):
        raise CheckpointError(
            f"{type(self).__name__} does not implement the pass machine"
        )

    def blocks_deliver(self, result, stream) -> None:
        raise CheckpointError(
            f"{type(self).__name__} does not implement the pass machine"
        )

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


class OnePassAlgorithm(SnapshotableAlgorithm, abc.ABC):
    """A single-pass algorithm playing the adversarial game of Section 2.

    The adversary (or a static driver) calls :meth:`process` for each edge
    insertion and may call :meth:`query` at any time; ``query`` must return
    a proper coloring of all edges processed so far.

    :meth:`process_block` is the batched twin of :meth:`process`: a
    ``(k, 2)`` array of insertions, consumed in order.  The default
    implementation is the scalar loop, so the contract is always satisfied;
    subclasses with a vectorized implementation override it (and set
    :attr:`supports_blocks`) with bit-identical state evolution, which both
    the static driver and the batched adversarial game rely on.
    """

    #: True when :meth:`process_block` is vectorized (all registered
    #: algorithms); the default scalar loop leaves it False.
    supports_blocks = False

    def __init__(self):
        self.meter = SpaceMeter()

    @abc.abstractmethod
    def process(self, u: int, v: int) -> None:
        """Consume the next edge insertion ``{u, v}``."""

    def process_block(self, edges: np.ndarray) -> None:
        """Consume a ``(k, 2)`` block of edge insertions, in order.

        Default: the scalar :meth:`process` loop.  Overrides must evolve
        the exact same state (colorings, space gauges, randomness) as the
        equivalent sequence of :meth:`process` calls.
        """
        for u, v in np.asarray(edges).tolist():
            self.process(u, v)

    @abc.abstractmethod
    def query(self) -> dict[int, int]:
        """Return a coloring of every vertex, proper for the edges so far."""

    def color_stream(self, stream) -> dict[int, int]:
        """Protocol entry point: feed every edge, then query once.

        This is the static-stream (oblivious) driver; the adaptive setting
        goes through :func:`repro.adversaries.run_adversarial_game` instead.
        Block sources are fed through :meth:`process_block` block by block
        — the same edge order as the per-token :meth:`process` loop below,
        vectorized whenever the algorithm overrides it — via the generic
        one-pass pass machine, so every one-pass algorithm is
        suspend/restorable at any block boundary for free (its whole state
        lives in object attributes between ``process_block`` calls).
        """
        if isinstance(stream, StreamSource):
            return drive_blocks(self, stream)
        for token in stream.new_pass():
            if isinstance(token, EdgeToken):
                self.process(token.u, token.v)
        return self.query()

    # -- pass-machine protocol: one streaming pass, then query ----------
    supports_checkpoint = True

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
        """Random bits consumed so far (oracle + seeds)."""
        return self.meter.random_bits
