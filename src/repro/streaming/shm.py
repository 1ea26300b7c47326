"""Zero-copy edge transport over POSIX shared memory.

:class:`EdgeRing` moves ``(k, 2)`` int64 edge blocks from the service
dispatcher to a pool worker without pickling the arrays: a byte ring
buffer owned by the dispatcher, into which each ``feed`` copies its block
as one contiguous slot, shipping only the ``{off, rows}`` descriptor over
the control pipe.  The worker replies to requests in order, so slots
free strictly FIFO and the entire allocator lives on the producer side —
no cross-process locks, no shared counters.

Ring layout: allocations advance a head pointer; when a block does not
fit in the remaining top space, the remainder is retired as a ``skip``
slot and the allocation wraps to offset 0.  ``free`` pops slots in
allocation order (popping any skip first), so the live region is always
one contiguous span in ring order.

Resource-tracker note: on this interpreter (< 3.13, no ``track=``
parameter) attaching registers the segment with ``resource_tracker`` as
if the attacher owned it.  Pool workers are spawned children sharing the
parent's tracker process, where registration is a by-name set — the
attach-side registration is a no-op there, and the owner's ``unlink``
unregisters exactly once.  Do *not* "fix" the attach by unregistering:
with a shared tracker that removes the owner's entry instead.
"""

from collections import deque
from multiprocessing import shared_memory

import numpy as np

from repro.common.exceptions import StreamProtocolError

__all__ = ["EdgeRing"]

#: Bytes per edge record: two little-endian int64 endpoints.
EDGE_BYTES = 16


def _attach_segment(name) -> shared_memory.SharedMemory:
    try:
        return shared_memory.SharedMemory(name=str(name))
    except (OSError, ValueError) as error:
        raise StreamProtocolError(
            f"cannot attach shared-memory segment {name!r}: {error}"
        ) from None


class EdgeRing:
    """Producer-owned shared-memory ring for edge-block handoff.

    The dispatcher (producer) calls :meth:`push` to place a block and
    sends the returned slot descriptor with the request; the worker
    (consumer) calls :meth:`read` to copy the block out.  Because the
    worker replies in request order, the dispatcher calls :meth:`free`
    on each response in the same order the slots were pushed — the
    allocator needs no synchronization with the consumer.
    """

    def __init__(self, shm, capacity: int, owner: bool):
        self._shm = shm
        self.capacity = int(capacity)
        self._owner = owner
        self._head = 0
        self._tail = 0
        self._used = 0
        self._wrapped = False
        self._live: deque = deque()  # ("blk" | "skip", offset, nbytes)

    @classmethod
    def create(cls, capacity_bytes: int) -> "EdgeRing":
        if capacity_bytes < EDGE_BYTES:
            raise StreamProtocolError(
                f"ring capacity must be >= {EDGE_BYTES} bytes, "
                f"got {capacity_bytes}"
            )
        shm = shared_memory.SharedMemory(create=True, size=int(capacity_bytes))
        return cls(shm, capacity_bytes, owner=True)

    @property
    def handle(self) -> dict:
        return {"name": self._shm.name, "capacity": self.capacity}

    @classmethod
    def attach(cls, handle: dict) -> "EdgeRing":
        try:
            name, capacity = handle["name"], int(handle["capacity"])
        except (TypeError, KeyError, ValueError) as error:
            raise StreamProtocolError(
                f"bad ring handle {handle!r}: {error}"
            ) from None
        return cls(_attach_segment(name), capacity, owner=False)

    # -- producer side ---------------------------------------------------
    @property
    def used_bytes(self) -> int:
        return self._used

    def max_rows(self) -> int:
        """Largest single block the ring can ever hold."""
        return self.capacity // EDGE_BYTES

    def push(self, block) -> dict | None:
        """Copy ``block`` into the ring; slot descriptor, or None when full."""
        block = np.ascontiguousarray(block, dtype=np.int64)
        if block.ndim != 2 or block.shape[1] != 2:
            raise StreamProtocolError(
                f"ring blocks must have shape (k, 2), got {block.shape}"
            )
        rows = len(block)
        if rows == 0:
            return {"off": 0, "rows": 0}
        nbytes = rows * EDGE_BYTES
        if nbytes > self.capacity - self._used:
            return None
        if not self._live:
            self._head = self._tail = 0
            self._wrapped = False
        off = None
        if not self._wrapped:
            top = self.capacity - self._head
            if nbytes <= top:
                off = self._head
            elif nbytes <= self._tail and nbytes + top <= self.capacity - self._used:
                # Retire the top remainder as a skip slot and wrap.
                self._live.append(("skip", self._head, top))
                self._used += top
                self._wrapped = True
                self._head = 0
                off = 0
        elif nbytes <= self._tail - self._head:
            off = self._head
        if off is None:
            return None
        staging = np.ndarray(
            (rows, 2), dtype=np.int64, buffer=self._shm.buf, offset=off
        )
        staging[:] = block
        self._live.append(("blk", off, nbytes))
        self._used += nbytes
        self._head = off + nbytes
        return {"off": off, "rows": rows}

    def free(self, slot: dict) -> None:
        """Release the oldest live slot; must match FIFO push order."""
        if not slot or int(slot.get("rows", 0)) == 0:
            return  # empty blocks never occupied a slot
        while self._live and self._live[0][0] == "skip":
            _, _, nbytes = self._live.popleft()
            self._used -= nbytes
            self._tail = 0
            self._wrapped = False
        if not self._live:
            raise StreamProtocolError("ring free with no live slot")
        _, off, nbytes = self._live.popleft()
        if off != int(slot.get("off", -1)) \
                or nbytes != int(slot.get("rows", 0)) * EDGE_BYTES:
            raise StreamProtocolError(
                f"ring slots must be freed in FIFO push order; expected "
                f"offset {off} ({nbytes} bytes), got {slot}"
            )
        self._used -= nbytes
        self._tail = off + nbytes

    # -- consumer side ---------------------------------------------------
    def read(self, slot: dict) -> np.ndarray:
        """Copy one slot's block out of the ring."""
        rows = int(slot.get("rows", 0))
        if rows == 0:
            return np.empty((0, 2), dtype=np.int64)
        off = int(slot.get("off", -1))
        if off < 0 or off + rows * EDGE_BYTES > self.capacity:
            raise StreamProtocolError(f"ring slot out of bounds: {slot}")
        view = np.ndarray(
            (rows, 2), dtype=np.int64, buffer=self._shm.buf, offset=off
        )
        return view.copy()

    # ---------------------------------------------------------------------
    def close(self) -> None:
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - views die with the process
            pass

    def unlink(self) -> None:
        if self._owner:
            try:
                self._shm.unlink()
            except OSError:  # pragma: no cover - already unlinked
                pass
