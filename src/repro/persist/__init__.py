"""repro.persist — checkpointable algorithm state.

Three layers:

- :mod:`repro.persist.codec` — a typed state codec turning any registered
  algorithm object (numpy arrays, RNG draw positions, sketch tables,
  subcubes, selectors, :class:`~repro.common.space.SpaceMeter` peaks) into
  a JSON tree plus a dict of numpy payloads, and back, bit for bit.  The
  ``state_dict()`` / ``load_state()`` surface on the two algorithm bases
  (the ``Snapshotable`` protocol) is implemented on top of it.
- :mod:`repro.persist.checkpoint` — the versioned on-disk container
  (magic ``REPROCK1``: JSON header + npy payloads, written atomically);
  malformed files fail clean with
  :class:`~repro.common.exceptions.CheckpointError`.
- :mod:`repro.persist.driver` — :class:`ResumableRun`, the pass-at-a-time
  driver behind every ``repro.engine.run`` (``checkpoint_every=...`` only
  adds snapshots) and ``repro.engine.resume(path)``: a run suspended at
  any block boundary and restored from its snapshot finishes with a
  bit-identical :class:`~repro.engine.result.ColoringResult` (see
  DESIGN.md, "Persistence & service", for the mid-pass fidelity
  argument).
"""

from repro.persist.checkpoint import (
    CHECKPOINT_MAGIC,
    read_checkpoint,
    write_checkpoint,
)
from repro.persist.codec import (
    decode_value,
    encode_value,
    restore_object,
    snapshot_object,
)
__all__ = [
    "CHECKPOINT_MAGIC",
    "ResumableRun",
    "decode_value",
    "encode_value",
    "read_checkpoint",
    "restore_object",
    "snapshot_object",
    "strip_volatile",
    "write_checkpoint",
]


def __getattr__(name):
    # The driver pulls in the engine; import it lazily so the codec and
    # checkpoint layers stay importable from low-level modules.
    if name in ("ResumableRun", "strip_volatile"):
        from repro.persist import driver

        return getattr(driver, name)
    raise AttributeError(f"module 'repro.persist' has no attribute {name!r}")
