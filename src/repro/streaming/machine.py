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

:func:`drive_pass` is the one pass loop: it feeds a pass's items to the
consumer, finishes it, records the pass's time on the source and hands
the result to ``blocks_deliver``.  :class:`repro.persist.driver.
ResumableRun`, the driver of every engine run, calls it once per pass
and may snapshot between ``blocks_deliver`` and the next pass or, from
a generator around the items, after every k-th item; :func:`drive_blocks`
(behind ``color_stream``) calls it with no snapshots.  Suspend/restore
fidelity:

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
from repro.obs.clock import perf_now

__all__ = [
    "OnePassStreamConsumer", "PassConsumer", "drive_blocks", "drive_pass",
]


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


def drive_pass(algo, stream, consumer, items) -> None:
    """Feed one pass's ``items`` to ``consumer`` and fold its result in.

    The pass is timed from its first feed through the consumer's
    ``finish()`` and recorded with ``stream.note_pass_time``, before
    ``algo.blocks_deliver`` advances the machine.
    """
    start = perf_now()
    for item in items:
        consumer.feed(item)
    result = consumer.finish()
    stream.note_pass_time(perf_now() - start)
    algo.blocks_deliver(result, stream)


def drive_blocks(algo, stream) -> dict:
    """Run an algorithm's pass machine over a block source to completion."""
    algo.blocks_start()
    while True:
        consumer = algo.blocks_consumer()
        if consumer is None:
            return algo.blocks_result()
        drive_pass(algo, stream, consumer, stream.new_pass())
