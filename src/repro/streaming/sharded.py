"""Sharded, indexed edge container: the ``REPROED2`` directory format.

A container is a directory holding a JSON manifest plus one or more
``REPROED1`` shard payloads:

    edges.shards/
        manifest.json       <- magic, n, m, shard row ranges, checksums
        shard-00000.ed1     <- ordinary REPROED1 edge file (global rows 0..)
        shard-00001.ed1
        ...

Each shard is independently a valid single-file edge file (header ``n``
equals the container's ``n``, header ``m`` equals the shard's row count),
so single-file tooling can open any shard in isolation.  The manifest pins
the global row order: shard k covers global rows ``[row_start,
row_start + rows)``, the ranges tile ``[0, m)`` in order, and the
concatenation of shard payloads IS the equivalent single-file payload,
byte for byte.

:class:`ShardedFileSource` streams a container through the block data
plane with bounded memory.  It reads shards with plain buffered I/O
(never ``mmap``, whose resident file-backed pages would defeat the
out-of-core RSS story) and yields *global-row-aligned* blocks: block k
covers rows ``[k * chunk_size, (k + 1) * chunk_size)``, assembled from at
most two shard reads when a chunk straddles a boundary.  The block
sequence is therefore identical to a
:class:`~repro.streaming.source.FileSource` over the equivalent single
file at the same chunk size — and so are resume offsets
(``resume_pass(offset)`` starts at global row ``offset * chunk_size``),
``repro.persist`` checkpoints, and results.

Durability discipline (mirroring ``REPROCK1`` checkpoints): every shard
and the manifest are written to a same-directory temp file and atomically
renamed into place, and the manifest is written *last* — a crashed writer
can never leave a directory that parses as a valid container.
"""

import hashlib
import json
import os

import numpy as np

from repro.common.exceptions import EdgeFileError, StreamProtocolError
import repro.obs as obs
from repro.streaming.source import (
    _HEADER,
    _MAGIC,
    DEFAULT_CHUNK_SIZE,
    StreamSource,
    iter_edge_blocks,
    read_edge_file_header,
)

__all__ = [
    "DEFAULT_SHARD_ROWS",
    "MANIFEST_MAGIC",
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "ShardedFileSource",
    "read_shard_manifest",
    "verify_shard_checksums",
    "write_sharded_edge_file",
]

MANIFEST_MAGIC = "REPROED2"
MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"

#: Default rows per shard: 4 Mi edges = 64 MiB of payload.
DEFAULT_SHARD_ROWS = 1 << 22

#: Start of the edge payload inside every shard (magic + ``<QQ`` header).
_PAYLOAD_OFFSET = len(_MAGIC) + _HEADER.size

#: Rows per writer-side block: bounds writer memory at ~4 MiB regardless
#: of the input's own chunking.
_WRITE_BLOCK_ROWS = 1 << 18


def _sha256_payload(path, chunk_bytes: int = 1 << 20) -> str:
    """Hex sha256 of a shard's edge payload (everything past the header)."""
    hasher = hashlib.sha256()
    with open(path, "rb") as fh:
        fh.seek(_PAYLOAD_OFFSET)
        while True:
            data = fh.read(chunk_bytes)
            if not data:
                break
            hasher.update(data)
    return hasher.hexdigest()


class _ShardWriter:
    """One shard payload: temp file, header patched at finish, atomic rename."""

    def __init__(self, dirpath: str, index: int, n: int, row_start: int):
        self.name = f"shard-{index:05d}.ed1"
        self.path = os.path.join(dirpath, self.name)
        self.row_start = row_start
        self.rows = 0
        self._n = n
        self._hasher = hashlib.sha256()
        self._tmp = os.path.join(dirpath, f".{self.name}.tmp.{os.getpid()}")
        self._fh = open(self._tmp, "wb")
        self._fh.write(_MAGIC)
        self._fh.write(_HEADER.pack(n, 0))  # row count patched at finish

    def append(self, block) -> None:
        data = np.ascontiguousarray(block, dtype="<i8").tobytes()
        self._fh.write(data)
        self._hasher.update(data)
        self.rows += len(block)

    def finish(self) -> dict:
        self._fh.seek(len(_MAGIC))
        self._fh.write(_HEADER.pack(self._n, self.rows))
        self._fh.close()
        os.replace(self._tmp, self.path)
        return {
            "name": self.name,
            "rows": self.rows,
            "row_start": self.row_start,
            "sha256": self._hasher.hexdigest(),
        }

    def abort(self) -> None:
        try:
            self._fh.close()
        finally:
            if os.path.exists(self._tmp):
                os.unlink(self._tmp)


def write_sharded_edge_file(
    path,
    n: int,
    edges,
    *,
    shard_rows: int = DEFAULT_SHARD_ROWS,
    track_degrees: bool = True,
) -> dict:
    """Write edges as a ``REPROED2`` container; returns the manifest dict.

    ``edges`` may be an ``(m, 2)`` array, an iterable of ``(u, v)`` pairs,
    or an iterable of ``(k, 2)`` blocks (see
    :func:`~repro.streaming.source.iter_edge_blocks`) — memory stays
    bounded by the writer's own block size either way.  Every shard holds
    exactly ``shard_rows`` rows except the last.

    With ``track_degrees`` (the default) the writer folds degrees as it
    streams and records ``max_degree`` in the manifest, so readers never
    need a stats sweep over the payload; the cost is one O(n) int64 array
    while writing.  The target directory is created if missing and must
    not already hold a container.
    """
    if n < 0:
        raise StreamProtocolError(f"container needs n >= 0, got {n}")
    if shard_rows < 1:
        raise StreamProtocolError(f"shard_rows must be >= 1, got {shard_rows}")
    path = os.fspath(path)
    os.makedirs(path, exist_ok=True)
    manifest_path = os.path.join(path, MANIFEST_NAME)
    if os.path.exists(manifest_path):
        raise EdgeFileError(
            f"{path}: refusing to overwrite an existing container "
            f"({MANIFEST_NAME} already present)"
        )
    deg = np.zeros(max(1, n), dtype=np.int64) if track_degrees else None
    shards: list[dict] = []
    writer = None
    written = 0
    try:
        for block in iter_edge_blocks(edges, _WRITE_BLOCK_ROWS):
            if len(block) and (block.min() < 0 or block.max() >= n):
                raise StreamProtocolError(f"edge endpoint out of range [0, {n})")
            if deg is not None and len(block):
                np.add.at(deg, block.ravel(), 1)
            start = 0
            while start < len(block):
                if writer is None:
                    writer = _ShardWriter(path, len(shards), n, written)
                take = min(len(block) - start, shard_rows - writer.rows)
                writer.append(block[start : start + take])
                start += take
                written += take
                if writer.rows >= shard_rows:
                    shards.append(writer.finish())
                    writer = None
        if writer is not None:
            shards.append(writer.finish())
            writer = None
    except BaseException:
        # Leave no partial container behind: the in-flight temp file and
        # any shards already renamed into place are both removed (the
        # manifest was never written, so nothing parses as a container).
        if writer is not None:
            writer.abort()
        for record in shards:
            try:
                os.unlink(os.path.join(path, record["name"]))
            except OSError:
                pass
        raise
    manifest = {
        "magic": MANIFEST_MAGIC,
        "version": MANIFEST_VERSION,
        "n": n,
        "m": written,
        "shard_rows": shard_rows,
        "shards": shards,
    }
    if deg is not None:
        manifest["max_degree"] = int(deg.max()) if n else 0
    tmp = f"{manifest_path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, manifest_path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return manifest


def read_shard_manifest(path, *, check_payloads: bool = True) -> dict:
    """Load and validate a container manifest; returns the manifest dict.

    Checks the manifest shape (magic, version, field types), that shard
    row ranges tile ``[0, m)`` in order, and — unless ``check_payloads``
    is disabled — that every shard file exists with a header matching the
    manifest and an *exactly* right payload length (truncation and
    trailing garbage both refuse to load).  Checksums are not recomputed
    here; see :func:`verify_shard_checksums`.
    """
    path = os.fspath(path)
    manifest_path = os.path.join(path, MANIFEST_NAME)
    if not os.path.isdir(path) or not os.path.exists(manifest_path):
        raise EdgeFileError(
            f"{path}: not a sharded edge container (expected a directory "
            f"holding {MANIFEST_NAME})"
        )
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as error:
        raise EdgeFileError(
            f"{manifest_path}: unreadable manifest: {error}"
        ) from error
    if not isinstance(manifest, dict) or manifest.get("magic") != MANIFEST_MAGIC:
        raise EdgeFileError(
            f"{manifest_path}: not a {MANIFEST_MAGIC} manifest "
            f"(magic {manifest.get('magic') if isinstance(manifest, dict) else manifest!r})"
        )
    if manifest.get("version") != MANIFEST_VERSION:
        raise EdgeFileError(
            f"{manifest_path}: unsupported container version "
            f"{manifest.get('version')!r} (this reader speaks "
            f"{MANIFEST_VERSION})"
        )
    try:
        n = int(manifest["n"])
        m = int(manifest["m"])
        records = [
            (str(s["name"]), int(s["rows"]), int(s["row_start"]))
            for s in manifest["shards"]
        ]
        for s in manifest["shards"]:
            str(s["sha256"])
    except (KeyError, TypeError, ValueError) as error:
        raise EdgeFileError(
            f"{manifest_path}: malformed manifest: {error!r}"
        ) from error
    if n < 0 or m < 0:
        raise EdgeFileError(f"{manifest_path}: negative n or m (n={n}, m={m})")
    row = 0
    for name, rows, row_start in records:
        if os.path.basename(name) != name or not name:
            raise EdgeFileError(
                f"{manifest_path}: shard name {name!r} escapes the container"
            )
        if rows < 1:
            raise EdgeFileError(
                f"{manifest_path}: shard {name} declares {rows} rows "
                "(every shard holds at least one)"
            )
        if row_start != row:
            raise EdgeFileError(
                f"{manifest_path}: shard {name} starts at row {row_start}, "
                f"expected {row} — shard ranges must tile [0, m) in order"
            )
        row += rows
    if row != m:
        raise EdgeFileError(
            f"{manifest_path}: shards cover {row} rows but the manifest "
            f"declares m={m}"
        )
    if check_payloads:
        for name, rows, _row_start in records:
            shard_path = os.path.join(path, name)
            shard_n, shard_m = read_edge_file_header(shard_path)
            if shard_n != n or shard_m != rows:
                raise EdgeFileError(
                    f"{shard_path}: header (n={shard_n}, m={shard_m}) "
                    f"disagrees with the manifest (n={n}, rows={rows})"
                )
            size = os.path.getsize(shard_path)
            expected = _PAYLOAD_OFFSET + 16 * rows
            if size != expected:
                raise EdgeFileError(
                    f"{shard_path}: {size} bytes on disk but the manifest "
                    f"declares exactly {expected}; refusing a truncated or "
                    "trailing-garbage shard"
                )
    return manifest


def verify_shard_checksums(path) -> dict:
    """Recompute every shard's payload sha256 against the manifest.

    Returns the manifest on success; raises :class:`EdgeFileError` naming
    every mismatched shard otherwise.  This is the deep (full-read) check
    behind ``repro shard verify``; :func:`read_shard_manifest` covers the
    cheap structural checks done on every open.
    """
    manifest = read_shard_manifest(path)
    path = os.fspath(path)
    mismatched = [
        record["name"]
        for record in manifest["shards"]
        if _sha256_payload(os.path.join(path, record["name"])) != record["sha256"]
    ]
    if mismatched:
        raise EdgeFileError(
            f"{path}: shard payload checksum mismatch: {', '.join(mismatched)}"
        )
    return manifest


class ShardedFileSource(StreamSource):
    """Bounded-memory block source over a ``REPROED2`` container.

    Blocks are global-row aligned (block k = rows ``[k * chunk_size,
    (k + 1) * chunk_size)``) and read with buffered I/O, so resident
    memory stays O(chunk_size) however large the container is, and the
    block sequence — hence every result, cursor, and checkpoint — is
    identical to a single-file :class:`~repro.streaming.source.FileSource`
    over the same edges at the same chunk size.

    ``max_degree()`` comes straight from the manifest when the writer
    recorded it; only manifests written with ``track_degrees=False`` fall
    back to the O(n)-array stats sweep.
    """

    def __init__(self, path, chunk_size: int = DEFAULT_CHUNK_SIZE):
        manifest = read_shard_manifest(path)
        super().__init__(int(manifest["n"]), chunk_size)
        self.path = os.fspath(path)
        self.manifest = manifest
        self.m = int(manifest["m"])
        self._edge_count = self.m
        if "max_degree" in manifest:
            self._max_degree = int(manifest["max_degree"])
        self._names = [str(s["name"]) for s in manifest["shards"]]
        # Shard k covers rows [_row_starts[k], _row_starts[k+1]).
        self._row_starts = [int(s["row_start"]) for s in manifest["shards"]]
        self._row_starts.append(self.m)
        self._closed = False

    def _pass_items(self):
        yield from self._pass_items_from(0)

    def _pass_items_from(self, offset: int):
        # Same cursor contract as FileSource: blocks are uniform
        # chunk_size rows (except the last), so item offset k maps to
        # global row k * chunk_size and a resume seeks straight to it
        # without re-reading the skipped prefix.
        if self._closed:
            raise StreamProtocolError(f"{self.path}: source is closed")
        starts = self._row_starts
        row = offset * self.chunk_size
        if row >= self.m:
            return
        idx = 0
        while starts[idx + 1] <= row:
            idx += 1
        fh = None
        fh_idx = -1
        try:
            while row < self.m:
                want = min(self.chunk_size, self.m - row)
                parts = []
                while want:
                    while row >= starts[idx + 1]:
                        idx += 1
                    if fh_idx != idx:
                        if fh is not None:
                            fh.close()
                        fh = open(os.path.join(self.path, self._names[idx]), "rb")
                        fh_idx = idx
                        fh.seek(_PAYLOAD_OFFSET + 16 * (row - starts[idx]))
                        obs.counter(
                            "repro_shard_open_total",
                            "shard files opened by ShardedFileSource",
                        ).inc()
                        if row != starts[idx]:
                            obs.counter(
                                "repro_shard_seek_total",
                                "mid-shard seeks (resume/restart entry)",
                            ).inc()
                    take = min(want, starts[idx + 1] - row)
                    data = fh.read(16 * take)
                    if len(data) != 16 * take:
                        raise EdgeFileError(
                            f"{os.path.join(self.path, self._names[idx])}: "
                            f"shard shrank under the reader (wanted "
                            f"{16 * take} bytes at global row {row}, got "
                            f"{len(data)})"
                        )
                    parts.append(np.frombuffer(data, dtype="<i8"))
                    row += take
                    want -= take
                flat = parts[0] if len(parts) == 1 else np.concatenate(parts)
                block = flat.astype(np.int64, copy=False).reshape(-1, 2)
                block.flags.writeable = False
                yield block
        finally:
            if fh is not None:
                fh.close()

    def close(self) -> None:
        """Mark the source closed (subsequent passes raise)."""
        self._closed = True
