"""The asyncio session manager: many concurrent coloring sessions.

Each :class:`Session` wraps one streaming run over a client-fed edge
log.  One-pass algorithms are *live*: every fed block goes straight
through ``process_block``, so the algorithm's sketch/buffer state evolves
exactly as in the paper's single-pass model while the session stays open
indefinitely.  Multipass algorithms buffer the log; ``advance`` runs one
streaming pass over the sealed log per call (via
:class:`~repro.persist.driver.ResumableRun`), and ``finalize`` drives the
remaining passes and packages the uniform
:class:`~repro.engine.result.ColoringResult` — validation, extras, and
guarantee verification are the engine's own code paths
(``RunSpec.verify`` applies per session).

Residency is bounded: beyond ``max_resident`` live sessions the
least-recently-used idle session is evicted to a ``REPROCK1`` checkpoint
(algorithm state via the ``Snapshotable`` codec + the edge log) and
transparently restored on its next touch, so ``max_sessions`` can far
exceed what fits in memory.  Per-session ``asyncio.Lock``s serialize
operations on one session while different sessions interleave at every
await point.
"""

import asyncio
import os
import tempfile
from contextlib import asynccontextmanager, suppress
from dataclasses import asdict

import numpy as np

from repro.common.exceptions import CheckpointError, ReproError, ServiceError
from repro.engine.registry import REGISTRY
from repro.engine.result import ColoringResult
from repro.engine.runner import RunSpec, run_spec_from_dict
from repro.persist.checkpoint import read_checkpoint, write_checkpoint
from repro.persist.driver import ResumableRun
from repro.streaming.source import DEFAULT_CHUNK_SIZE, GeneratorSource
from repro.streaming.stream import TokenStream
from repro.streaming.tokens import EdgeToken, ListToken
import repro.obs as obs
from repro.obs.clock import perf_now

__all__ = ["Session", "SessionManager", "validate_lists", "validate_spec"]

#: RunSpec fields a client may set when creating a session.  The stream
#: itself is the session's fed edge log, so stream-synthesis fields
#: (graph_seed, graph_family, stream_order, ...) are not accepted.
_SPEC_FIELDS = (
    "algorithm", "n", "delta", "seed", "config", "verify", "chunk_size",
    "validate", "tags",
)


def validate_spec(registry, spec_fields: dict, lists):
    """Validate a client session spec against ``registry``.

    Module-level so the pool dispatcher can reject bad specs before
    routing them to a worker.  Returns ``(spec, entry, config, lists)``
    with lists normalized to ``{vertex: sorted colors}``.
    """
    if not isinstance(spec_fields, dict):
        raise ServiceError("create needs a spec object")
    unknown = set(spec_fields) - set(_SPEC_FIELDS)
    if unknown:
        raise ServiceError(
            f"spec has unknown field(s) {sorted(unknown)}; "
            f"accepted: {list(_SPEC_FIELDS)}"
        )
    for required in ("algorithm", "n", "delta"):
        if required not in spec_fields:
            raise ServiceError(f"spec is missing required field {required!r}")
    entry = registry.get(spec_fields["algorithm"])
    fields = dict(spec_fields)
    for name in ("n", "delta", "seed", "chunk_size"):
        value = fields.get(name)
        if value is not None and (
            isinstance(value, bool) or not isinstance(value, int)
        ):
            raise ServiceError(
                f"spec.{name} must be an integer, got {value!r}"
            )
    for name in ("config", "tags"):
        if name in fields and not isinstance(fields[name], dict):
            raise ServiceError(f"spec.{name} must be an object")
    verify = fields.get("verify", False)
    if verify not in (False, True, "strict"):
        raise ServiceError(
            f"spec.verify must be false, true, or 'strict', got {verify!r}"
        )
    try:
        spec = RunSpec(**fields)
    except TypeError as error:
        raise ServiceError(f"bad spec: {error}") from None
    if spec.n < 0:
        raise ServiceError(f"spec.n must be >= 0, got {spec.n}")
    config = entry.make_config(spec.config)  # ReproError on bad options
    if entry.needs_lists:
        if lists is None:
            raise ServiceError(
                f"algorithm {entry.name!r} needs per-vertex color lists; "
                "pass them at create time"
            )
        lists = validate_lists(lists, spec, config)
    elif lists is not None:
        raise ServiceError(
            f"algorithm {entry.name!r} does not take color lists"
        )
    return spec, entry, config, lists


def validate_lists(lists, spec, config) -> dict:
    if isinstance(lists, list):
        lists = dict(lists)
    try:
        clean = {
            int(x): sorted(int(c) for c in colors)
            for x, colors in lists.items()
        }
    except (TypeError, ValueError) as error:
        raise ServiceError(f"bad color lists: {error}") from None
    for x, colors in clean.items():
        if not 0 <= x < spec.n:
            raise ServiceError(f"list vertex {x} out of range [0, {spec.n})")
        if not colors:
            raise ServiceError(f"vertex {x} has an empty color list")
    return clean


class Session:
    """One coloring session: spec, edge log, and live algorithm state."""

    def __init__(self, sid: str, spec: RunSpec, entry, config, lists=None):
        self.sid = sid
        self.spec = spec
        self.entry = entry
        self.config = config
        self.lists = lists  # vertex -> sorted color list (needs_lists only)
        self.log: list[np.ndarray] = []
        self.edges_total = 0
        self.sealed = False
        self.onepass = entry.kind == "onepass"
        self.algo = None
        self.driver: ResumableRun | None = None
        self.result: ColoringResult | None = None
        self.feed_seconds = 0.0
        self.lock = asyncio.Lock()
        if self.onepass:
            self.algo = entry.create(spec.n, spec.delta, spec.seed, config)
            self.algo.blocks_start()

    # ------------------------------------------------------------------
    @property
    def chunk_size(self) -> int:
        return self.spec.chunk_size or DEFAULT_CHUNK_SIZE

    def log_array(self) -> np.ndarray:
        if not self.log:
            return np.empty((0, 2), dtype=np.int64)
        return np.concatenate(self.log)

    def source(self):
        """The session's stream: its (sealed) edge log as a block source.

        ``needs_lists`` sessions prepend the per-vertex list tokens (the
        Theorem 2 interleaving contract allows any order; lists-first is
        the service's deterministic choice).
        """
        if self.lists is not None:
            tokens: list = [
                ListToken(x, frozenset(colors))
                for x, colors in sorted(self.lists.items())
            ]
            tokens.extend(
                EdgeToken(int(u), int(v)) for u, v in self.log_array().tolist()
            )
            return TokenStream(tokens, self.spec.n).as_source(self.chunk_size)
        arr = self.log_array()
        return GeneratorSource(lambda: arr, self.spec.n,
                               chunk_size=self.chunk_size)

    def status(self) -> dict:
        return {
            "session": self.sid,
            "algorithm": self.entry.name,
            "n": self.spec.n,
            "delta": self.spec.delta,
            "edges": self.edges_total,
            "sealed": self.sealed,
            "finalized": self.result is not None,
            "onepass": self.onepass,
            "passes": (
                self.driver.stream.passes_used if self.driver is not None
                else (1 if self.onepass and self.edges_total else 0)
            ),
        }


class SessionManager:
    """The session table: create/feed/advance/finalize + LRU eviction."""

    def __init__(self, registry=None, max_sessions: int = 256,
                 max_resident: int = 64, checkpoint_dir=None):
        if max_sessions < 1:
            raise ReproError(f"max_sessions must be >= 1, got {max_sessions}")
        if max_resident < 1:
            raise ReproError(f"max_resident must be >= 1, got {max_resident}")
        self.registry = registry if registry is not None else REGISTRY
        self.max_sessions = max_sessions
        self.max_resident = max_resident
        self._tmpdir = None
        if checkpoint_dir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-sessions-")
            checkpoint_dir = self._tmpdir.name
        self.checkpoint_dir = checkpoint_dir
        self._resident: dict[str, Session] = {}
        self._evicted: dict[str, str] = {}  # sid -> checkpoint path
        self._recency: dict[str, int] = {}  # sid -> last-touch tick
        self._restoring: dict[str, asyncio.Task] = {}  # sid -> in-flight load
        self._pins: dict[str, int] = {}  # sid -> coroutines inside _session
        self._tick = 0
        self._next_id = 0
        self._lock = asyncio.Lock()
        self.evictions = 0
        self.restores = 0
        # Obs handles bind here, once — no-op singletons unless the
        # process enabled metrics before constructing the manager.
        self._obs_feed_seconds = obs.histogram(
            "repro_feed_seconds", "wall seconds per feed op")
        self._obs_evictions = obs.counter(
            "repro_session_evictions_total", "LRU evictions to checkpoint")
        self._obs_restores = obs.counter(
            "repro_session_restores_total", "sessions restored from checkpoint")
        self._obs_ck_write = obs.histogram(
            "repro_checkpoint_write_seconds",
            "wall seconds per REPROCK1 checkpoint write")
        self._obs_ck_restore = obs.histogram(
            "repro_checkpoint_restore_seconds",
            "wall seconds per REPROCK1 checkpoint restore")
        obs.register_collector(lambda: [
            ("gauge", "repro_sessions_resident", None, len(self._resident)),
            ("gauge", "repro_sessions_total", None, self._count()),
        ])

    # ------------------------------------------------------------------
    # session table
    # ------------------------------------------------------------------
    def _count(self) -> int:
        return len(self._resident) + len(self._evicted)

    def _touch(self, sid: str) -> None:
        self._tick += 1
        self._recency[sid] = self._tick

    @staticmethod
    def _check_sid(sid) -> None:
        if not isinstance(sid, str):
            raise ServiceError(
                f"session id must be a string, got {type(sid).__name__}"
            )

    async def _get(self, sid: str) -> Session:
        self._check_sid(sid)
        while True:
            async with self._lock:
                session = self._resident.get(sid)
                if session is not None:
                    self._touch(sid)
                    return session
                task = self._restoring.get(sid)
                if task is None:
                    path = self._evicted.get(sid)
                    if path is None:
                        raise ServiceError(f"unknown session {sid!r}")
                    task = asyncio.create_task(self._restore_task(sid, path))
                    self._restoring[sid] = task
            # Await the (possibly shared) restore outside the manager lock
            # so other sessions keep flowing during the disk round-trip;
            # shield keeps the restore alive if this waiter is cancelled.
            await asyncio.shield(task)

    @asynccontextmanager
    async def _session(self, sid: str):
        """Lookup + per-session lock, safe against concurrent eviction.

        Between ``_get`` returning a live session and this coroutine
        acquiring its lock, another coroutine (an explicit ``checkpoint``
        op, or LRU pressure) may evict it — leaving us holding an
        orphaned object whose mutations would be silently lost.  After
        acquiring the lock, re-check that the object is still the table's
        resident entry; otherwise retry, which restores from the fresher
        checkpoint.

        The session is *pinned* for the duration: LRU pressure skips
        pinned sids, so under heavy residency churn a freshly restored
        session cannot be evicted again before its waiter runs (which
        would retry-thrash restore/evict cycles).
        """
        self._check_sid(sid)
        self._pins[sid] = self._pins.get(sid, 0) + 1
        try:
            while True:
                session = await self._get(sid)
                async with session.lock:
                    if self._resident.get(sid) is session:
                        yield session
                        return
        finally:
            remaining = self._pins.get(sid, 0) - 1
            if remaining <= 0:
                self._pins.pop(sid, None)
            else:
                self._pins[sid] = remaining

    # ------------------------------------------------------------------
    # ops
    # ------------------------------------------------------------------
    async def create(self, spec_fields: dict, lists=None) -> str:
        """Open a session; returns its id."""
        spec, entry, config, lists = self._validate_spec(spec_fields, lists)
        async with self._lock:
            if self._count() >= self.max_sessions:
                raise ServiceError(
                    f"session limit reached ({self.max_sessions}); "
                    "finalize or drop sessions first"
                )
            sid = f"s{self._next_id}"
            self._next_id += 1
            session = Session(sid, spec, entry, config, lists)
            self._resident[sid] = session
            self._touch(sid)
            self._maybe_evict()
        return sid

    def _validate_spec(self, spec_fields: dict, lists):
        return validate_spec(self.registry, spec_fields, lists)

    async def feed(self, sid: str, edges) -> dict:
        """Append an edge block; one-pass algorithms consume it now."""
        async with self._session(sid) as session:
            if session.sealed:
                raise ServiceError(
                    f"session {sid} is sealed; no further edges accepted"
                )
            block = self._validate_edges(edges, session.spec.n)
            start = perf_now()
            if len(block):
                session.log.append(block)
                session.edges_total += len(block)
                if session.onepass:
                    session.algo.process_block(block)
            elapsed = perf_now() - start
            session.feed_seconds += elapsed
            self._obs_feed_seconds.observe(elapsed)
        return {"accepted": int(len(block)), "edges_total": session.edges_total}

    @staticmethod
    def _validate_edges(edges, n: int) -> np.ndarray:
        try:
            block = np.asarray(edges)
        except (TypeError, ValueError) as error:
            raise ServiceError(f"bad edge block: {error}") from None
        if block.size == 0:
            return np.empty((0, 2), dtype=np.int64)
        if not np.issubdtype(block.dtype, np.integer):
            # An int64 cast would silently truncate float ids (easy to
            # produce over JSON) into edges the client never sent.
            raise ServiceError(
                f"edge endpoints must be integers, got dtype {block.dtype}"
            )
        block = block.astype(np.int64)
        if block.ndim != 2 or block.shape[1] != 2:
            raise ServiceError(
                f"edge block must be a list of [u, v] pairs, got shape "
                f"{block.shape}"
            )
        if int(block.min()) < 0 or int(block.max()) >= n:
            raise ServiceError(f"edge endpoint out of range [0, {n})")
        if (block[:, 0] == block[:, 1]).any():
            raise ServiceError("self-loops are not valid edges")
        return block

    async def advance(self, sid: str) -> dict:
        """Seal the stream and run one pass (multipass); no-op for one-pass."""
        async with self._session(sid) as session:
            if session.result is not None:
                raise ServiceError(f"session {sid} is already finalized")
            session.sealed = True
            if session.onepass:
                return {"done": True, **session.status()}
            driver = self._ensure_driver(session)
            more = driver.step()
            return {"done": not more and driver.done, **session.status()}

    def _ensure_driver(self, session: Session) -> ResumableRun:
        if session.driver is None:
            session.driver = ResumableRun(
                session.spec, stream=session.source(), registry=self.registry
            )
        return session.driver

    async def finalize(self, sid: str) -> dict:
        """Run the session to completion and return the result record."""
        async with self._session(sid) as session:
            if session.result is None:
                session.sealed = True
                if session.onepass:
                    session.result = self._package_onepass(session)
                else:
                    driver = self._ensure_driver(session)
                    while driver.step():
                        await asyncio.sleep(0)  # let other sessions interleave
                    session.result = driver.result()
        return session.result.to_dict()

    def _package_onepass(self, session: Session) -> ColoringResult:
        from repro.engine.runner import _package_result

        algo = session.algo
        stream = session.source()
        algo.blocks_deliver(None, stream)  # runs query() exactly once
        coloring = algo.blocks_result()
        # The fed log was the run's single streaming pass.
        stream.seek({"passes": 1})
        return _package_result(
            session.spec, session.entry, session.config, stream, algo,
            coloring, session.feed_seconds, passes_before=0, timings_before=0,
        )

    async def result(self, sid: str) -> dict:
        async with self._session(sid) as session:
            if session.result is None:
                raise ServiceError(
                    f"session {sid} is not finalized; call finalize first"
                )
            return session.result.to_dict()

    async def drop(self, sid: str) -> dict:
        # Let an in-flight restore finish first so its publication cannot
        # resurrect the session after the drop.
        task = self._restoring.get(sid) if isinstance(sid, str) else None
        if task is not None:
            with suppress(ReproError):
                await asyncio.shield(task)
        async with self._lock:
            session = self._resident.pop(sid, None)
            path = self._evicted.pop(sid, None)
            self._recency.pop(sid, None)
            if session is None and path is None:
                raise ServiceError(f"unknown session {sid!r}")
        # The sid is unpublished at this point, so the unlink cannot race
        # another request; do it off-loop like the restore path's reads.
        if path is not None and await asyncio.to_thread(os.path.exists, path):
            await asyncio.to_thread(os.unlink, path)
        return {"dropped": sid}

    async def status(self, sid: str) -> dict:
        async with self._session(sid) as session:
            return session.status()

    def stats(self) -> dict:
        return {
            "sessions": self._count(),
            "resident": len(self._resident),
            "evicted_now": len(self._evicted),
            "evictions": self.evictions,
            "restores": self.restores,
            "max_sessions": self.max_sessions,
            "max_resident": self.max_resident,
        }

    # ------------------------------------------------------------------
    # eviction / restore (repro.persist-backed)
    # ------------------------------------------------------------------
    async def checkpoint(self, sid: str) -> str:
        """Explicitly evict a session to disk; returns the checkpoint path."""
        async with self._session(sid) as session, self._lock:
            return self._evict(session)

    async def snapshot(self, sid: str, path=None) -> str:
        """Checkpoint a session *without* evicting it.

        The migration/drain primitive: the written ``REPROCK1`` file can
        be :meth:`adopt`-ed by another manager (typically in a different
        worker process) while this one keeps serving — or drops — the
        original.  Returns the checkpoint path.
        """
        async with self._session(sid) as session:
            if path is None:
                path = f"{self.checkpoint_dir}/{sid}.snap.ck"
            header, arrays = self._session_snapshot(session)
            await asyncio.to_thread(write_checkpoint, path, header, arrays)
        return str(path)

    async def adopt(self, path, sid=None) -> str:
        """Take ownership of a session from a checkpoint file.

        Rebuilds the session under ``sid`` (a fresh local id when None)
        regardless of the id recorded in the checkpoint — the pool
        dispatcher owns the public id space; worker-local ids are its
        implementation detail.  Returns the session id used.
        """
        try:
            header, arrays = await asyncio.to_thread(read_checkpoint, path)
        except CheckpointError as error:
            raise ServiceError(
                f"cannot adopt session checkpoint {path!r}: {error}"
            ) from None
        async with self._lock:
            if sid is None:
                sid = f"s{self._next_id}"
                self._next_id += 1
            self._check_sid(sid)
            if sid in self._resident or sid in self._evicted:
                raise ServiceError(f"session {sid!r} already exists")
            if self._count() >= self.max_sessions:
                raise ServiceError(
                    f"session limit reached ({self.max_sessions}); "
                    "cannot adopt"
                )
            session = self._build_session(sid, header, arrays)
            self._resident[sid] = session
            self._touch(sid)
            self._maybe_evict()
        return sid

    async def quiesce(self) -> dict:
        """Checkpoint every resident session to disk (graceful shutdown).

        Returns ``{sid: checkpoint_path}`` for every session the manager
        holds.  Sessions pinned by in-flight operations are skipped — the
        caller drains requests first, so in practice nothing is pinned.
        """
        async with self._lock:
            for session in sorted(self._resident.values(),
                                  key=lambda s: s.sid):
                if session.lock.locked() or self._pins.get(session.sid):
                    continue
                self._evict(session)
            return dict(self._evicted)

    def _maybe_evict(self) -> None:
        """Evict LRU idle sessions until residency fits (manager lock held)."""
        while len(self._resident) > self.max_resident:
            candidates = sorted(
                (
                    s for s in self._resident.values()
                    if not s.lock.locked() and not self._pins.get(s.sid)
                ),
                key=lambda s: self._recency.get(s.sid, 0),
            )
            if not candidates:
                return  # everything is busy; retry on the next create/touch
            self._evict(candidates[0])

    def _evict(self, session: Session) -> str:
        # The write is synchronous under the manager lock: once a session
        # leaves the table its checkpoint must exist before any lookup can
        # race to restore it, and eviction payloads are snapshot-sized
        # (KBs).  The expensive direction — restore, which also decodes —
        # runs off-lock in a thread (see _restore_task).
        path = os.path.join(self.checkpoint_dir, f"{session.sid}.ck")
        header, arrays = self._session_snapshot(session)
        write_start = perf_now()
        write_checkpoint(path, header, arrays)
        write_seconds = perf_now() - write_start
        self._resident.pop(session.sid, None)
        self._evicted[session.sid] = path
        self.evictions += 1
        self._obs_evictions.inc()
        self._obs_ck_write.observe(write_seconds)
        obs.emit_span("session.evict", write_seconds, sid=session.sid)
        return path

    def _session_snapshot(self, session: Session) -> tuple[dict, dict]:
        header = {
            "kind": "session",
            "sid": session.sid,
            "spec": asdict(session.spec),
            "lists": (
                sorted(session.lists.items()) if session.lists is not None
                else None
            ),
            "edges_total": session.edges_total,
            "sealed": session.sealed,
            "onepass": session.onepass,
            "feed_seconds": session.feed_seconds,
            "result": (
                session.result.to_dict(include_coloring=True)
                if session.result is not None else None
            ),
            "algo": None,
            "driver": None,
        }
        arrays = {"edges": session.log_array()}
        if session.result is None:
            if session.onepass:
                state = session.algo.state_dict()
                header["algo"] = {"class": state["class"], "state": state["state"]}
                arrays.update(state["arrays"])
            elif session.driver is not None:
                driver_header, driver_arrays = session.driver.snapshot()
                header["driver"] = driver_header
                arrays.update(driver_arrays)
        return header, arrays

    async def _restore_task(self, sid: str, path: str) -> None:
        """Load an evicted session back into the table.

        Runs as a shared task (deduped via ``_restoring``) with the file
        read in a worker thread, so concurrent sessions are not stalled
        behind the manager lock for the disk round-trip.
        """
        try:
            restore_start = perf_now()
            try:
                header, arrays = await asyncio.to_thread(read_checkpoint, path)
            except CheckpointError as error:
                raise ServiceError(
                    f"session {sid} checkpoint is unreadable: {error}"
                ) from None
            session = self._build_session(sid, header, arrays)
            restore_seconds = perf_now() - restore_start
            self._obs_ck_restore.observe(restore_seconds)
            obs.emit_span("session.restore", restore_seconds, sid=sid)
            async with self._lock:
                if self._evicted.pop(sid, None) is None:
                    raise ServiceError(
                        f"session {sid} was dropped during restore"
                    )
                self._resident[sid] = session
                self.restores += 1
                self._obs_restores.inc()
                # Freshen recency first, or the restoree is its own LRU
                # victim.
                self._touch(sid)
                self._maybe_evict()
        finally:
            self._restoring.pop(sid, None)

    def _build_session(self, sid: str, header: dict, arrays: dict) -> Session:
        """Rebuild a session object from its checkpoint payload."""
        if header.get("kind") != "session":
            raise ServiceError(
                f"session {sid}: not a session checkpoint (kind "
                f"{header.get('kind')!r})"
            )
        try:
            spec = run_spec_from_dict(header["spec"])
        except (KeyError, TypeError) as error:
            raise ServiceError(f"bad session checkpoint spec: {error}") from None
        entry = self.registry.get(spec.algorithm)
        config = entry.make_config(spec.config)
        lists = (
            {int(x): list(colors) for x, colors in header["lists"]}
            if header.get("lists") is not None else None
        )
        session = Session(sid, spec, entry, config, lists)
        edges = arrays.get("edges")
        if edges is not None and len(edges):
            session.log = [np.asarray(edges, dtype=np.int64)]
        session.edges_total = int(header.get("edges_total", 0))
        session.sealed = bool(header.get("sealed", False))
        session.feed_seconds = float(header.get("feed_seconds", 0.0))
        if header.get("result") is not None:
            session.result = ColoringResult.from_dict(header["result"])
        elif session.onepass:
            algo_state = header.get("algo")
            if algo_state is None:
                raise ServiceError(
                    f"session {sid} checkpoint is missing algorithm state"
                )
            session.algo.load_state(algo_state, arrays)
        elif header.get("driver") is not None:
            session.driver = ResumableRun.from_snapshot(
                header["driver"], arrays, stream=session.source(),
                registry=self.registry,
            )
        return session

    def close(self) -> None:
        """Drop all state and clean the manager's own temp directory."""
        self._resident.clear()
        self._evicted.clear()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None
