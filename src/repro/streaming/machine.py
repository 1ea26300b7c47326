"""The resumable pass-machine protocol: every multipass run, and every
one-pass run over a block source.

A block-native algorithm executes as an explicit state machine whose
*cross-pass* state lives entirely in object attributes (and is therefore
covered by ``state_dict()`` / ``load_state()``), while *intra-pass*
accumulators live in a throwaway :class:`PassConsumer`:

- ``blocks_start()`` — initialize the machine (phase + variables, stored
  on the algorithm, conventionally under ``self._mach``);
- ``blocks_consumer()`` — a **pure** inspection of the machine state:
  build and return the consumer for the pass the current phase needs, or
  ``None`` once the run is complete.  Purity is what makes checkpoints
  work: the driver may call it, discard the consumer, and call it again
  after a restore;
- ``blocks_deliver(result, stream)`` — fold a finished pass's result into
  the machine state and advance through compute-only phases until the
  next phase that needs a pass (or completion).  All space-gauge changes
  happen here (or in ``blocks_start``), never in ``blocks_consumer``;
- ``blocks_result()`` — the final coloring.

:func:`drive_blocks` is the plain, non-checkpointing driver used by
``color_stream`` on block sources; :class:`repro.persist.driver.
ResumableRun` is the checkpointing twin, snapshotting between
``blocks_deliver`` and the next pass.  Suspend/restore fidelity:

- a consumer with ``resumable = True`` (the one-pass algorithms: feeding
  mutates only snapshotted algorithm state) can be suspended at any block
  boundary and resumed by feeding the remaining items;
- a consumer with ``resumable = False`` (the multipass algorithms' pass
  accumulators) is rebuilt by replaying the in-flight pass from its
  beginning against the pass-boundary snapshot — deterministic, hence
  bit-identical (DESIGN.md, "Persistence & service").
"""

import numpy as np

from repro.common.exceptions import CheckpointError

__all__ = ["OnePassStreamConsumer", "PassConsumer", "drive_blocks"]


class PassConsumer:
    """Intra-pass accumulator: fed every item of one pass, then finished."""

    #: True when ``feed`` mutates only snapshotted algorithm state, so a
    #: suspended pass can resume from an item offset instead of replaying.
    resumable = False

    def feed(self, item) -> None:
        """Consume the next pass item (a ``(k, 2)`` block or a ListToken)."""
        raise NotImplementedError

    def finish(self):
        """Close the pass and return its result."""
        return None


class OnePassStreamConsumer(PassConsumer):
    """The single streaming pass of a one-pass algorithm."""

    resumable = True

    def __init__(self, algo):
        self.algo = algo

    def feed(self, item) -> None:
        if isinstance(item, np.ndarray):
            self.algo.process_block(item)


def require_machine(algo) -> dict:
    """The algorithm's machine state dict (raise if not started)."""
    mach = getattr(algo, "_mach", None)
    if mach is None:
        raise CheckpointError(
            f"{type(algo).__name__}: pass machine not started "
            "(call blocks_start first)"
        )
    return mach


def drive_blocks(algo, stream) -> dict:
    """Run an algorithm's pass machine over a block source to completion."""
    algo.blocks_start()
    while True:
        consumer = algo.blocks_consumer()
        if consumer is None:
            break
        for item in stream.new_pass():
            consumer.feed(item)
        result = consumer.finish()
        algo.blocks_deliver(result, stream)
    return algo.blocks_result()
