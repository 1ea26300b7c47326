"""Array-backed, chunked stream sources: the block data plane.

A :class:`StreamSource` is the one stream type with passes: every run
reads one.  A streaming pass yields numpy edge *blocks* — ``(k, 2)`` int64
arrays of up to ``chunk_size`` edges — instead of one Python object per
edge.  List-coloring inputs interleave :class:`ListToken` items between
blocks, preserving the Theorem 2 "any order" contract exactly.

The pass/space model does not depend on the chunk size: one
``new_pass()`` is one pass, and algorithms charge their
:class:`SpaceMeter` identically whatever the blocks' length (a
:class:`~repro.streaming.stream.TokenStream` read as one-edge blocks is
the token-at-a-time model).  See DESIGN.md, section "Data plane", for the
faithfulness argument.

Three concrete sources:

- :class:`MaterializedSource` — chunked view over an in-memory
  :class:`TokenStream`'s tokens.
- :class:`GeneratorSource` — lazy: re-generates the edge sequence from a
  deterministic factory on every pass; O(chunk_size) memory, nothing is
  ever materialized across passes.
- :class:`FileSource` — memory-mapped binary edge file (format below);
  :func:`write_edge_file` is the writer utility.

Binary edge-file format (little-endian): 8-byte magic ``REPROED1``,
``uint64 n``, ``uint64 m``, then ``m`` pairs of ``int64`` endpoints.
Inputs too large for one file live in the sharded ``REPROED2`` container
(:mod:`repro.streaming.sharded`), whose shards are ordinary ``REPROED1``
payloads indexed by a manifest.
"""

import abc
import itertools
import os
import struct

import numpy as np

from repro.common.exceptions import EdgeFileError, StreamProtocolError
from repro.streaming.stream import TokenStream
from repro.streaming.tokens import EdgeToken, ListToken
import repro.obs as obs

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "FileSource",
    "GeneratorSource",
    "MaterializedSource",
    "StreamSource",
    "as_edge_blocks",
    "iter_edge_blocks",
    "read_edge_file_header",
    "write_edge_file",
]

DEFAULT_CHUNK_SIZE = 8192

_MAGIC = b"REPROED1"
_HEADER = struct.Struct("<QQ")  # n, m


def as_edge_blocks(edges, chunk_size: int = DEFAULT_CHUNK_SIZE):
    """Normalize edges into ``(k, 2)`` int64 blocks of at most ``chunk_size``.

    Accepts an ``(m, 2)`` array (sliced without copying) or any iterable of
    ``(u, v)`` pairs (batched).  Yielded blocks are read-only: consumers
    mutating a block would otherwise silently corrupt the caller's array —
    and with it every later pass of a source regenerating from it.
    """
    if chunk_size < 1:
        raise StreamProtocolError(f"chunk_size must be >= 1, got {chunk_size}")

    def frozen(block):
        view = block.view()
        view.flags.writeable = False
        return view

    if isinstance(edges, np.ndarray):
        arr = edges
        if arr.dtype != np.int64:
            arr = arr.astype(np.int64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise StreamProtocolError(
                f"edge array must have shape (m, 2), got {arr.shape}"
            )
        for start in range(0, len(arr), chunk_size):
            yield frozen(arr[start : start + chunk_size])
        return
    buf: list = []
    for pair in edges:
        buf.append(pair)
        if len(buf) >= chunk_size:
            yield frozen(np.asarray(buf, dtype=np.int64).reshape(-1, 2))
            buf = []
    if buf:
        yield frozen(np.asarray(buf, dtype=np.int64).reshape(-1, 2))


def iter_edge_blocks(edges, chunk_size: int = DEFAULT_CHUNK_SIZE):
    """Like :func:`as_edge_blocks`, but also accepts an iterable of blocks.

    The writers (:func:`write_edge_file`, the sharded container) take
    edges from three shapes of producer: an ``(m, 2)`` array, an iterable
    of ``(u, v)`` pairs, or — for out-of-core generators that never hold
    the graph — an iterable of ``(k, 2)`` arrays.  Blocks are re-chunked
    to at most ``chunk_size`` rows and yielded read-only, whatever the
    producer's own chunking.
    """
    if isinstance(edges, np.ndarray):
        yield from as_edge_blocks(edges, chunk_size)
        return
    if chunk_size < 1:
        raise StreamProtocolError(f"chunk_size must be >= 1, got {chunk_size}")
    it = iter(edges)
    try:
        first = next(it)
    except StopIteration:
        return
    if isinstance(first, np.ndarray) and first.ndim == 2:
        for block in itertools.chain([first], it):
            yield from as_edge_blocks(np.asarray(block), chunk_size)
    else:
        yield from as_edge_blocks(itertools.chain([first], it), chunk_size)


class StreamSource(abc.ABC):
    """A replayable, pass-counting stream of edge blocks (and list tokens).

    Subclasses implement :meth:`_pass_items`, yielding ``(k, 2)`` int64
    arrays and/or :class:`ListToken` items for one sweep of the input.  The
    base class handles pass counting, the per-pass wall times the driver
    reports (:meth:`note_pass_time`), and cached degree statistics.
    """

    def __init__(self, n: int, chunk_size: int = DEFAULT_CHUNK_SIZE):
        if n < 0:
            raise StreamProtocolError(f"source needs n >= 0, got {n}")
        if chunk_size < 1:
            raise StreamProtocolError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        self.n = n
        self.chunk_size = chunk_size
        #: Passes taken so far (the Theorem 1 statistic).
        self.passes_used = 0
        #: Wall time of each driven pass, its consumer's ``finish()``
        #: included (see :meth:`note_pass_time`).
        self.pass_seconds: list[float] = []
        self._edge_count = None
        self._max_degree = None

    def new_pass(self):
        """Begin a pass; yields edge blocks (and list tokens) in order."""
        self.passes_used += 1
        yield from self._pass_items()

    @abc.abstractmethod
    def _pass_items(self):
        """One sweep of the input as blocks / list tokens (no accounting)."""

    # -- resumable cursors (repro.persist) ------------------------------
    def tell(self) -> dict:
        """Cursor describing the source's replay position (passes started).

        Within-pass offsets are tracked by the consumer driving the pass
        (a pass is a generator; the source itself has no read head), so a
        full resume point is ``tell()`` plus the driver's item offset.
        """
        return {"passes": self.passes_used}

    def seek(self, cursor: dict) -> None:
        """Restore a :meth:`tell` cursor (fast-forwards the pass counter).

        Completed passes are not re-timed: :attr:`pass_seconds` keeps only
        timings observed by this process.
        """
        passes = int(cursor["passes"])
        if passes < 0:
            raise StreamProtocolError(f"cursor passes must be >= 0, got {passes}")
        self.passes_used = passes

    def resume_pass(self, offset: int = 0):
        """Re-enter a pass mid-flight: count it and yield items from ``offset``.

        The first ``offset`` items (blocks / list tokens, as yielded by
        :meth:`new_pass`) are skipped; sources replay deterministically,
        so the items yielded are exactly the uninterrupted pass's tail.
        Used by checkpoint restore for single-pass algorithms whose state
        already reflects the skipped prefix.
        """
        if offset < 0:
            raise StreamProtocolError(f"resume offset must be >= 0, got {offset}")
        self.passes_used += 1
        yield from self._pass_items_from(offset)

    def _pass_items_from(self, offset: int):
        """One sweep starting at item ``offset`` (generic skip loop)."""
        for i, item in enumerate(self._pass_items()):
            if i >= offset:
                yield item

    # -------------------------------------------------------------------
    def iter_items(self):
        """One sweep WITHOUT counting a pass (validation / diagnostics only).

        Streaming algorithms must never call this; it exists for the
        harness to reconstruct the input graph and for out-of-band
        instrumentation, mirroring ``TokenStream.tokens``.
        """
        return self._pass_items()

    def iter_tokens(self):
        """Token-at-a-time sweep WITHOUT counting a pass (diagnostics only)."""
        for item in self.iter_items():
            if isinstance(item, ListToken):
                yield item
            else:
                for u, v in item.tolist():
                    yield EdgeToken(u, v)

    # -------------------------------------------------------------------
    def edge_count(self) -> int:
        """Number of edges per pass (cached after one scan)."""
        if self._edge_count is None:
            self._scan_stats()
        return self._edge_count

    def note_edge_count(self, count: int) -> None:
        """Record an externally-counted edge total, skipping a stats sweep.

        For lazy sources a sweep re-generates the whole stream; callers
        that just iterated every block (e.g. run validation) hand the
        count over instead.
        """
        if self._edge_count is None:
            self._edge_count = count

    def note_pass_time(self, seconds: float) -> None:
        """Record the wall time of the pass just driven over this source.

        The driver times the feeds and the consumer's ``finish()``
        reduction together; the entry goes to :attr:`pass_seconds` and
        becomes that pass's ``stream.pass`` span.
        """
        self.pass_seconds.append(seconds)
        obs.emit_span("stream.pass", seconds,
                      backend=type(self).__name__,
                      pass_index=self.passes_used)

    def max_degree(self) -> int:
        """Max degree of the streamed graph (cached after one scan)."""
        if self._max_degree is None:
            self._scan_stats()
        return self._max_degree

    def _scan_stats(self) -> None:
        deg = np.zeros(max(1, self.n), dtype=np.int64)
        count = 0
        for item in self.iter_items():
            if isinstance(item, ListToken):
                continue
            count += len(item)
            deg += np.bincount(item.ravel(), minlength=len(deg))
        self._edge_count = count
        self._max_degree = int(deg.max()) if self.n else 0


class MaterializedSource(StreamSource):
    """Chunked block view over an in-memory :class:`TokenStream`'s tokens.

    ``ListToken`` interleaving is preserved: edge runs are chunked into
    blocks, list tokens are yielded in place, so with ``chunk_size=1``
    item ``i`` of a pass is token ``i``.
    """

    def __init__(self, stream: TokenStream, chunk_size: int = DEFAULT_CHUNK_SIZE):
        super().__init__(stream.n, chunk_size)
        self.stream = stream
        self._segments = None

    def _build_segments(self) -> list:
        segments: list = []
        buf: list = []

        def flush():
            if buf:
                block = np.asarray(buf, dtype=np.int64).reshape(-1, 2)
                # Blocks are cached and re-yielded every pass: freeze them
                # so a consumer mutating one cannot corrupt later passes
                # (matching FileSource's read-only mapping).
                block.flags.writeable = False
                segments.append(block)
                buf.clear()

        for token in self.stream.tokens:
            if isinstance(token, EdgeToken):
                buf.append((token.u, token.v))
                if len(buf) >= self.chunk_size:
                    flush()
            else:
                flush()
                segments.append(token)
        flush()
        return segments

    def _pass_items(self):
        if self._segments is None:
            self._segments = self._build_segments()
        return iter(self._segments)

    def new_pass(self):
        # Counts its own pass instead of calling StreamSource.new_pass:
        # the layer profiler wraps both by name, and a delegating call
        # would trace every pass twice.
        self.passes_used += 1
        yield from self._pass_items()


class GeneratorSource(StreamSource):
    """Lazy source: re-generates the edge sequence from a factory each pass.

    ``factory()`` is invoked once per sweep and must deterministically
    return the same edges every time — an ``(m, 2)`` array or an iterable
    of ``(u, v)`` pairs (e.g. a seeded generator re-run from scratch).
    Nothing is cached across passes; the memory profile is whatever the
    factory's is (a factory yielding pairs lazily keeps the whole source
    at O(chunk_size), one returning a full array costs O(m) while the
    pass runs).
    """

    def __init__(self, factory, n: int, chunk_size: int = DEFAULT_CHUNK_SIZE):
        super().__init__(n, chunk_size)
        self.factory = factory

    def _pass_items(self):
        yield from as_edge_blocks(self.factory(), self.chunk_size)


def write_edge_file(path, n: int, edges) -> int:
    """Write edges to the binary edge-file format; returns the edge count.

    ``edges`` may be an ``(m, 2)`` array, any iterable of ``(u, v)``
    pairs, or an iterable of ``(k, 2)`` blocks (streamed through in
    chunks — the full list is never required in memory).

    The write is atomic (same-directory temp file + ``os.replace``,
    mirroring the ``REPROCK1`` checkpoint discipline).  The header's edge
    count is patched in only after the payload lands, so without the
    rename a writer dying mid-stream would leave a file that parses as a
    *valid empty* edge file — silent data loss, not a detectable error.
    A crash instead leaves the target absent (or its previous contents
    intact) and only a ``.tmp.<pid>`` file to sweep up.
    """
    m = 0
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(_HEADER.pack(n, 0))  # m patched below
            for block in iter_edge_blocks(edges):
                if len(block) and (block.min() < 0 or block.max() >= n):
                    raise StreamProtocolError(
                        f"edge endpoint out of range [0, {n})"
                    )
                fh.write(np.ascontiguousarray(block, dtype="<i8").tobytes())
                m += len(block)
            fh.seek(len(_MAGIC))
            fh.write(_HEADER.pack(n, m))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return m


def read_edge_file_header(path) -> tuple[int, int]:
    """The ``(n, m)`` header of a binary edge file.

    Raises :class:`EdgeFileError` (a :class:`ValueError`) on a missing or
    unreadable file, a wrong magic, or a header shorter than the fixed 24
    bytes, so probing an arbitrary path never surfaces an OS/struct/numpy
    internal error.
    """
    try:
        fh = open(path, "rb")
    except OSError as error:
        raise EdgeFileError(f"{path}: cannot read edge file: {error}") from error
    with fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise EdgeFileError(
                f"{path}: not a repro edge file (magic {magic!r}, "
                f"expected {_MAGIC!r})"
            )
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise EdgeFileError(
                f"{path}: truncated header ({len(magic) + len(header)} "
                f"bytes; a valid edge file has at least "
                f"{len(_MAGIC) + _HEADER.size})"
            )
        n, m = _HEADER.unpack(header)
    return int(n), int(m)


def _validate_edge_file_payload(path, m: int) -> None:
    """Check the payload length against the header before mapping it.

    Without this, a truncated or odd-length file surfaces as a numpy
    ``memmap``/reshape error deep inside the first pass; the verification
    layer (and any user pointing ``FileSource`` at a damaged file) wants
    a clean :class:`EdgeFileError` at construction time instead.
    """
    offset = len(_MAGIC) + _HEADER.size
    payload = os.path.getsize(path) - offset
    expected = 16 * m  # two little-endian int64 endpoints per edge
    if payload < expected:
        raise EdgeFileError(
            f"{path}: truncated edge file: header claims m={m} edges "
            f"({expected} payload bytes) but only {max(0, payload)} are "
            "present"
        )
    if payload > expected:
        # Anything but an exact match refuses to load: extra bytes mean
        # the file was overwritten shorter in place or damaged, and the
        # mapping below would silently ignore whichever half is stale.
        raise EdgeFileError(
            f"{path}: trailing garbage: header claims m={m} edges "
            f"({expected} payload bytes) but {payload} are present"
        )


class FileSource(StreamSource):
    """Memory-mapped binary edge file; passes read ``chunk_size`` rows at a time.

    The mapping is read-only; blocks handed to algorithms are views into
    the page cache, so re-reading passes costs no Python-object churn and
    no extra resident memory beyond the OS cache.
    """

    def __init__(self, path, chunk_size: int = DEFAULT_CHUNK_SIZE):
        n, m = read_edge_file_header(path)
        _validate_edge_file_payload(path, m)
        super().__init__(n, chunk_size)
        self.path = path
        self.m = m
        self._edge_count = m
        offset = len(_MAGIC) + _HEADER.size
        if m:
            self._mmap = np.memmap(
                path, dtype="<i8", mode="r", offset=offset, shape=(m, 2)
            )
        else:
            self._mmap = np.empty((0, 2), dtype=np.int64)

    def _pass_items(self):
        yield from self._pass_items_from(0)

    def _pass_items_from(self, offset: int):
        # Blocks are uniform chunk_size rows (except the last), so item
        # offset k maps directly to row k * chunk_size: resuming mid-pass
        # never re-reads the skipped prefix from disk.
        if self._mmap is None:
            raise StreamProtocolError(f"{self.path}: source is closed")
        for start in range(offset * self.chunk_size, self.m, self.chunk_size):
            yield np.asarray(
                self._mmap[start : start + self.chunk_size], dtype=np.int64
            )

    def close(self) -> None:
        """Release the memory mapping (subsequent passes raise)."""
        self._mmap = None
