"""Sharded multi-core execution plane for the coloring service.

The asyncio front end becomes a *dispatcher*: sessions are spread over a
pool of worker processes, each running its own
:class:`~repro.service.manager.SessionManager` slice on its own event
loop (and its own core).  The dispatcher owns the public session-id
space and the session→worker routing table (least-loaded assignment at
create time, sticky thereafter, with :meth:`WorkerPool.drain_worker` for
explicit rebalance).

**Zero-copy handoff.**  Edge blocks never cross the control pipe: the
dispatcher copies each block into the worker's
:class:`~repro.streaming.shm.EdgeRing` (a producer-owned shared-memory
ring) and sends only the ``{off, rows}`` slot descriptor.  Workers reply
in request order, so slots free strictly FIFO on response delivery and
the allocator needs no cross-process synchronization.  :func:`_send_msg`
/ :func:`_recv_msg` are the only pipe choke points and assert that no
ndarray is ever pickled (staticcheck rule R9 enforces the same contract
at lint time).

**No thread per request.**  The dispatcher reads replies in a
``loop.add_reader`` callback on each worker's pipe and writes requests
straight from the event loop; a worker runs a plain blocking loop, one
request at a time (sticky routing already serializes each session).

**Backpressure.**  Per-worker queues are bounded (``queue_depth``
in-flight requests) and the ring is finite; when either is full the
dispatcher raises :class:`ServiceBusyError`, which the TCP protocol
surfaces as ``busy: true`` + ``retry_after`` instead of buffering
without bound.  Nothing is applied for a shed request, so clients retry
verbatim.

**Crash recovery.**  The dispatcher keeps a per-session *journal*: the
validated spec, every acknowledged edge block since the last sync point,
and the advance count.  Every ``checkpoint_every_ops`` acknowledged
operations it asks the owning worker for a ``REPROCK1`` snapshot
(written into the pool's shared checkpoint directory) and truncates the
journal.  When a worker dies (its pipe reads EOF), its in-flight
requests fail as retryable ``busy``, a replacement is spawned into the
same slot, and each victim session is rebuilt on a survivor from its
last snapshot plus a journal-tail replay.  Sessions are deterministic
functions of (spec, fed-edge sequence), so recovered results are
bit-identical to an uninterrupted run — the strict-verify differential
tests lock this down.

Ops arriving for a session mid-recovery are recovered *inline* (the
per-session lock serializes the two paths); only unacknowledged work is
ever replayed, so an op is applied exactly once relative to the journal.
A dispatcher coroutine cancelled between a worker ack and its journal
append could desynchronize the two; the server's drain-before-shutdown
is what rules that window out in practice.
"""

import asyncio
import os
import tempfile
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.common.exceptions import (
    ReproError,
    ServiceBusyError,
    ServiceError,
    StreamProtocolError,
)
from repro.engine.registry import REGISTRY
import repro.obs as obs
from repro.service.manager import SessionManager, validate_spec
from repro.streaming.shm import EDGE_BYTES, EdgeRing

__all__ = ["PoolConfig", "WorkerPool"]

#: Seconds: the hint returned with busy replies, and the dispatcher's own
#: pause before it retries a shed request or looks for a live worker again.
_RETRY_AFTER_S = 0.05


@dataclass
class PoolConfig:
    """Tunables for the sharded execution plane."""

    workers: int = 2
    #: Max in-flight requests per worker before feeds/ops shed as busy.
    queue_depth: int = 32
    #: Shared-memory ring capacity per worker (bytes of edge payload).
    ring_bytes: int = 4 * 1024 * 1024
    #: Acknowledged ops per session between journal-truncating snapshots.
    checkpoint_every_ops: int = 32
    #: Pool-wide session cap (the dispatcher's table), and each worker's
    #: SessionManager cap too, so one survivor can absorb every session.
    max_sessions: int = 1024
    #: Per-worker SessionManager cap on resident sessions.
    worker_max_resident: int = 64
    #: Shared directory for migration snapshots (a temp dir when None).
    checkpoint_dir: str | None = None

    def validated(self) -> "PoolConfig":
        if self.workers < 1:
            raise ServiceError(f"workers must be >= 1, got {self.workers}")
        if self.queue_depth < 1:
            raise ServiceError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.ring_bytes < EDGE_BYTES:
            raise ServiceError(
                f"ring_bytes must be >= {EDGE_BYTES}, got {self.ring_bytes}"
            )
        if self.checkpoint_every_ops < 1:
            raise ServiceError(
                f"checkpoint_every_ops must be >= 1, "
                f"got {self.checkpoint_every_ops}"
            )
        if self.max_sessions < 1:
            raise ServiceError(
                f"max_sessions must be >= 1, got {self.max_sessions}"
            )
        return self


# ----------------------------------------------------------------------
# pipe choke points (the only IPC send/recv sites; see staticcheck R9)
# ----------------------------------------------------------------------
def _assert_no_ndarray(value, depth: int = 0) -> None:
    """Refuse to pickle edge arrays: blocks travel via shared memory."""
    if isinstance(value, np.ndarray):
        raise StreamProtocolError(
            "worker IPC must not pickle ndarrays; move blocks through the "
            "shared-memory ring"
        )
    if depth >= 4 or isinstance(value, (str, bytes, int, float, bool)):
        return
    if isinstance(value, dict):
        for item in value.values():
            _assert_no_ndarray(item, depth + 1)
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            _assert_no_ndarray(item, depth + 1)


def _send_msg(conn, message: dict) -> None:
    """Pickle one control dict onto the pipe.

    Blocks only when the pipe's buffer (about 208 KB for a socketpair on
    Linux) is full.  Requests are under 1 KB and at most ``queue_depth``
    are in flight per worker, so the dispatcher sends them from the event
    loop; the one exception is a ``create`` carrying color lists (up to
    the protocol's ``MAX_LINE``), which goes from a thread.
    """
    _assert_no_ndarray(message)
    conn.send(message)


def _recv_msg(conn) -> dict:
    """Unpickle one control dict; blocks until all of it has arrived.

    The dispatcher calls it only when the pipe is readable, and a worker
    writes each reply in one go, so the wait is the copy of one reply.
    """
    return conn.recv()


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
def _worker_main(conn, ring_handle: dict, manager_kwargs: dict,
                 obs_config: dict | None = None) -> None:
    """Entry point of one pool worker process: one request at a time.

    A plain blocking loop.  The event loop runs only inside a request:
    no op leaves work on it in between (a restore task is awaited by the
    request that starts it, checkpoint I/O is awaited inline).
    """
    import signal

    # Terminal Ctrl-C delivers SIGINT to the whole process group; the
    # dispatcher drives graceful shutdown, so workers must outlive it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Mirror the dispatcher's observability setup before the manager is
    # built, so metric handles bind live and worker spans append to the
    # same trace log (one JSON line per write; O_APPEND keeps concurrent
    # writers line-atomic).
    obs.configure_from(obs_config)
    ring = EdgeRing.attach(ring_handle)
    manager = SessionManager(**manager_kwargs)
    loop = asyncio.new_event_loop()
    try:
        _send_msg(conn, {"ok": True, "ready": True})
        while True:
            try:
                request = _recv_msg(conn)
            except (EOFError, OSError):
                return
            op = request.get("op")
            if op == "stop":
                _send_msg(conn, {"ok": True, "stopped": True})
                return
            if op == "crash":
                os._exit(17)  # test hook: die without cleanup
            response = loop.run_until_complete(_serve(manager, ring, request))
            try:
                _send_msg(conn, response)
            except OSError:
                return
    finally:
        ring.close()
        manager.close()
        loop.close()


async def _serve(manager: SessionManager, ring: EdgeRing, request: dict) -> dict:
    """Apply one request inside its ``worker.<op>`` span.

    The span opens inside the loop's task, so it times the op alone and
    nests under the dispatcher span that rode in on ``_obs``.
    """
    context = request.pop("_obs", None)
    span_fields = {}
    if "session" in request:
        span_fields["session"] = request["session"]
    with obs.attach_trace_context(context), \
            obs.span(f"worker.{request.get('op')}", **span_fields):
        return await _apply(manager, ring, request)


async def _apply(manager: SessionManager, ring: EdgeRing, request: dict) -> dict:
    op = request.get("op")
    try:
        if op == "create":
            sid = await manager.create(request["spec"], request.get("lists"))
            return {"ok": True, "session": sid}
        if op == "feed":
            block = ring.read(request["slot"])
            out = await manager.feed(request["session"], block)
            return {"ok": True, **out}
        if op == "advance":
            return {"ok": True, **await manager.advance(request["session"])}
        if op == "finalize":
            result = await manager.finalize(request["session"])
            return {"ok": True, "result": result}
        if op == "result":
            return {"ok": True, "result": await manager.result(request["session"])}
        if op == "status":
            return {"ok": True, **await manager.status(request["session"])}
        if op == "drop":
            return {"ok": True, **await manager.drop(request["session"])}
        if op == "snapshot":
            path = await manager.snapshot(request["session"], request.get("path"))
            return {"ok": True, "path": path}
        if op == "adopt":
            sid = await manager.adopt(request["path"], request.get("session"))
            return {"ok": True, "session": sid}
        if op == "stats":
            return {"ok": True, **manager.stats()}
        raise ServiceError(f"unknown worker op {op!r}")
    except ReproError as error:
        return {"ok": False, "error": str(error), "code": type(error).__name__}
    except (KeyError, TypeError, ValueError) as error:
        return {
            "ok": False,
            "error": f"bad worker request: {error!r}",
            "code": "ServiceError",
        }


# ----------------------------------------------------------------------
# dispatcher side
# ----------------------------------------------------------------------
class _WorkerError(ServiceError):
    """A worker-reported failure, relaying the original exception class."""

    def __init__(self, message: str, remote_code: str):
        self.remote_code = remote_code
        super().__init__(message)


class _SessionJournal:
    """Everything needed to rebuild one session on a surviving worker."""

    def __init__(self, sid: str, spec_fields: dict, lists, onepass: bool):
        self.sid = sid
        self.spec_fields = dict(spec_fields)
        self.lists = lists  # validated {vertex: sorted colors} or None
        self.onepass = onepass
        self.blocks: list[np.ndarray] = []  # acknowledged, since last sync
        self.advances = 0  # acknowledged advances since last sync
        self.sealed = False
        self.finalized = False
        self.result: dict | None = None
        self.ckpt_path: str | None = None
        self.ops_since_sync = 0
        self.edges_total = 0


class _Worker:
    """Dispatcher-side handle on one worker process."""

    def __init__(self, index: int, proc, conn, ring: EdgeRing):
        self.index = index
        self.proc = proc
        self.conn = conn
        self.ring = ring
        self.alive = False
        self.stopping = False
        self.send_lock = asyncio.Lock()
        self.inflight: deque = deque()  # (future, ring slot | None), FIFO
        self.assigned: set[str] = set()  # pool sids routed here


class WorkerPool:
    """Session execution spread over worker processes.

    Duck-types :class:`~repro.service.manager.SessionManager`'s public
    surface (create/feed/advance/finalize/result/status/checkpoint/drop
    plus sync ``stats`` and async ``quiesce``), so
    :class:`~repro.service.server.ColoringService` takes either
    interchangeably.  Construct with :meth:`start` (needs a running
    event loop).
    """

    def __init__(self, config: PoolConfig | None = None, registry=None):
        if registry is not None and registry is not REGISTRY:
            raise ServiceError(
                "the worker pool only supports the default registry; "
                "custom registries cannot cross process boundaries"
            )
        self.config = (config or PoolConfig()).validated()
        self.registry = REGISTRY
        self._workers: list[_Worker | None] = []
        self._journals: dict[str, _SessionJournal] = {}
        self._routes: dict[str, _Worker | None] = {}  # None => journal-only
        self._local: dict[str, str] = {}  # pool sid -> worker-local sid
        self._sid_locks: dict[str, asyncio.Lock] = {}
        self._next_id = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._tmpdir = None
        if self.config.checkpoint_dir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-pool-")
            self._dir = self._tmpdir.name
        else:
            self._dir = self.config.checkpoint_dir
        self._spawn_seq = 0
        self._death_tasks: set = set()
        self._closing = False
        self._closed = False
        self.crashes = 0
        self.recoveries = 0
        # Obs handles bind once here; queue depth / ring occupancy /
        # journal length are read by a pull-time collector instead of
        # touching the request hot path.
        self._obs_sheds = obs.counter(
            "repro_busy_sheds_total",
            "requests shed with busy/retry_after backpressure")
        obs.register_collector(self._collect_obs_metrics)

    def _collect_obs_metrics(self):
        rows = [
            ("gauge", "repro_pool_sessions", None, len(self._journals)),
            ("gauge", "repro_journal_blocks", None,
             sum(len(j.blocks) for j in self._journals.values())),
            ("counter", "repro_worker_crashes_total", None, self.crashes),
            ("counter", "repro_worker_recoveries_total", None,
             self.recoveries),
        ]
        for worker in self._workers:
            if worker is None:
                continue
            labels = {"worker": str(worker.index)}
            rows.append(("gauge", "repro_worker_queue_depth", labels,
                         len(worker.inflight)))
            rows.append(("gauge", "repro_ring_used_bytes", labels,
                         worker.ring.used_bytes))
        return rows

    @classmethod
    async def start(cls, config: PoolConfig | None = None,
                    registry=None) -> "WorkerPool":
        pool = cls(config, registry)
        pool._loop = asyncio.get_running_loop()
        import multiprocessing

        # spawn, not fork: a worker must not inherit the dispatcher's loop.
        pool._ctx = multiprocessing.get_context("spawn")
        pool._workers = [None] * pool.config.workers
        spawns = [asyncio.ensure_future(pool._spawn_worker(i))
                  for i in range(pool.config.workers)]
        try:
            await asyncio.gather(*spawns)
        except BaseException:
            # gather leaves the siblings of a failed spawn running: stop
            # them (each reaps its own child) before tearing down.
            for spawn in spawns:
                spawn.cancel()
            await asyncio.gather(*spawns, return_exceptions=True)
            pool.close()
            raise
        return pool

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    async def _spawn_worker(self, index: int) -> _Worker:
        """Boot a worker into slot ``index``.

        The greeting is the first reply on the new pipe, so the reader
        callback resolves it like any other.  A spawn that fails or is
        cancelled (close() cancels every respawn in flight) leaves no
        process, pipe or ring behind.
        """
        wdir = f"{self._dir}/w{index}-{self._spawn_seq}"
        self._spawn_seq += 1
        await asyncio.to_thread(os.makedirs, wdir, exist_ok=True)
        kwargs = {
            "max_sessions": self.config.max_sessions,
            "max_resident": self.config.worker_max_resident,
            "checkpoint_dir": wdir,
        }
        parent_conn, child_conn = self._ctx.Pipe()
        ring = EdgeRing.create(self.config.ring_bytes)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, ring.handle, kwargs, obs.current_config()),
            daemon=True,
        )
        worker = _Worker(index, proc, parent_conn, ring)
        try:
            proc.start()  # fork and exec only, about 1 ms; the child boots on
        except OSError as error:
            self._release(worker)
            raise ServiceError(
                f"worker {index} failed to boot: {error!r}"
            ) from None
        finally:
            child_conn.close()
        greeting = self._loop.create_future()
        worker.inflight.append((greeting, None))
        self._workers[index] = worker
        self._loop.add_reader(parent_conn.fileno(), self._on_readable, worker)
        try:
            ready = (await greeting).get("ready")
        except ServiceBusyError:  # the pipe closed before the greeting
            ready = False
        except BaseException:  # cancelled: reap the child, then unwind
            self._discard(worker)
            raise
        if not ready:
            self._discard(worker)
            raise ServiceError(f"worker {index} failed to boot")
        worker.alive = True
        return worker

    def _on_readable(self, worker: _Worker) -> None:
        """``add_reader`` callback: deliver one reply, or handle EOF.

        One message per call: a connection buffers nothing in user space,
        so a reply still in the pipe keeps the descriptor readable and the
        loop calls back on its next pass.
        """
        try:
            message = _recv_msg(worker.conn)
        except (EOFError, OSError):
            self._reader_exit(worker)
            return
        self._deliver(worker, message)

    def _deliver(self, worker: _Worker, message: dict) -> None:
        """Resolve the oldest in-flight request (event-loop thread)."""
        if not worker.inflight:
            return
        future, slot = worker.inflight.popleft()
        if slot is not None:
            try:
                worker.ring.free(slot)
            except ReproError:  # pragma: no cover - worker misbehaved
                pass
        if not future.done():
            future.set_result(message)

    def _reader_exit(self, worker: _Worker) -> None:
        """The worker's pipe closed: crash, stop, or pool teardown."""
        was_alive = worker.alive
        # A respawn replaces the slot, so release this worker's resources
        # now — close() only sees whoever currently occupies the slots.
        self._release(worker)
        if self._closing or worker.stopping or not was_alive:
            return
        self.crashes += 1
        task = self._loop.create_task(self._on_worker_death(worker))
        self._death_tasks.add(task)
        task.add_done_callback(self._death_tasks.discard)

    def _fail_inflight(self, worker: _Worker) -> None:
        while worker.inflight:
            future, _slot = worker.inflight.popleft()
            if not future.done():
                future.set_exception(ServiceBusyError(
                    f"worker {worker.index} died mid-request; retry",
                    retry_after=_RETRY_AFTER_S,
                ))

    def _release(self, worker: _Worker) -> None:
        """Fail its requests, free its pipe and ring (idempotent)."""
        worker.alive = False
        self._fail_inflight(worker)
        if worker.conn.closed:
            return
        self._loop.remove_reader(worker.conn.fileno())
        worker.conn.close()
        worker.ring.close()
        worker.ring.unlink()

    def _discard(self, worker: _Worker) -> None:
        """Release a worker and stop its process (idempotent)."""
        self._release(worker)
        if worker.proc.is_alive():
            worker.proc.terminate()
        worker.proc.join(timeout=5)
        if worker.proc.is_alive():  # pragma: no cover - stuck worker
            worker.proc.kill()
            worker.proc.join(timeout=1)

    async def _on_worker_death(self, worker: _Worker) -> None:
        """Respawn the slot, then rebuild every victim session."""
        if not self._closing:
            try:
                await self._spawn_worker(worker.index)
            except ServiceError:
                pass  # survivors absorb the sessions; slot stays dead
        for sid in sorted(worker.assigned):
            lock = self._sid_locks.get(sid)
            if lock is None:
                continue
            async with lock:
                # An op may have recovered this session inline already.
                if self._routes.get(sid) is worker and not self._closing:
                    await self._recover_session(sid)

    # ------------------------------------------------------------------
    # request plumbing
    # ------------------------------------------------------------------
    async def _request(self, worker: _Worker, message: dict, block=None,
                       allow_stopping: bool = False) -> dict:
        """One request/response round trip with backpressure.

        The send lock makes (depth check, ring push, in-flight append,
        pipe send) atomic, so pipe order == in-flight order == ring push
        order — the invariant FIFO slot freeing depends on.
        """
        context = obs.current_trace_context()
        if context is not None:
            # Span context rides the control envelope: session ops on the
            # worker nest under the dispatcher's request span.
            message = {**message, "_obs": context}
        async with worker.send_lock:
            if not worker.alive or (worker.stopping and not allow_stopping):
                self._obs_sheds.inc()
                raise ServiceBusyError(
                    f"worker {worker.index} is unavailable; retry",
                    retry_after=_RETRY_AFTER_S,
                )
            if len(worker.inflight) >= self.config.queue_depth:
                self._obs_sheds.inc()
                raise ServiceBusyError(
                    f"worker {worker.index} queue is full; retry",
                    retry_after=_RETRY_AFTER_S,
                )
            slot = None
            if block is not None:
                slot = worker.ring.push(block)
                if slot is None:
                    self._obs_sheds.inc()
                    raise ServiceBusyError(
                        f"worker {worker.index} ring is full; retry",
                        retry_after=_RETRY_AFTER_S,
                    )
                message = {**message, "slot": slot}
            future = self._loop.create_future()
            worker.inflight.append((future, slot))
            try:
                if message.get("lists") is None:
                    _send_msg(worker.conn, message)
                else:
                    # Lists can outgrow the pipe's buffer; a worker busy
                    # with a long op must not stall the loop behind them.
                    await asyncio.to_thread(_send_msg, worker.conn, message)
            except OSError:
                # The worker is gone, and the send can notice before the
                # reader callback sees EOF: handle the death here, so the
                # slot is still respawned and this request fails as busy.
                self._reader_exit(worker)
        response = await future
        if not response.get("ok"):
            raise _WorkerError(
                response.get("error", "worker request failed"),
                response.get("code", "ServiceError"),
            )
        return response

    async def _retry_busy_alive(self, worker: _Worker, message: dict,
                                block=None, allow_stopping=False) -> dict:
        """Retry one request through transient busy while the worker lives.

        Safe because a busy request was never applied; raises the busy
        through once the worker is dead/stopping so callers re-route.
        """
        while True:
            try:
                return await self._request(worker, message, block=block,
                                           allow_stopping=allow_stopping)
            except ServiceBusyError:
                if not worker.alive or (worker.stopping and not allow_stopping):
                    raise
                await asyncio.sleep(_RETRY_AFTER_S)

    def _pick_worker(self) -> _Worker | None:
        live = [w for w in self._workers
                if w is not None and w.alive and not w.stopping]
        if not live:
            return None
        return min(live, key=lambda w: (len(w.assigned), w.index))

    def _journal(self, sid) -> tuple[_SessionJournal, asyncio.Lock]:
        if not isinstance(sid, str):
            raise ServiceError(
                f"session id must be a string, got {type(sid).__name__}"
            )
        journal = self._journals.get(sid)
        if journal is None:
            raise ServiceError(f"unknown session {sid!r}")
        return journal, self._sid_locks[sid]

    async def _ensure_routed(self, sid: str) -> tuple[_Worker, str]:
        """(worker, local sid); recovers inline when the route is dead.

        Caller holds the session lock and has already handled the
        finalized (journal-only) case.
        """
        while True:
            worker = self._routes.get(sid)
            if worker is None and sid not in self._journals:
                raise ServiceError(f"unknown session {sid!r}")
            if (worker is not None and worker.alive and not worker.stopping
                    and sid in worker.assigned):
                return worker, self._local[sid]
            await self._recover_session(sid)

    async def _recover_session(self, sid: str) -> None:
        """Rebuild one session on a live worker (caller holds its lock).

        Snapshot + journal-tail replay; only acknowledged (hence
        journaled) operations are replayed, so the rebuilt session is the
        deterministic image of exactly what clients were told happened.
        """
        journal = self._journals[sid]
        old = self._routes.get(sid)
        if isinstance(old, _Worker):
            old.assigned.discard(sid)
        if journal.finalized:
            self._routes[sid] = None
            return
        while True:
            worker = self._pick_worker()
            if worker is None:
                await asyncio.sleep(_RETRY_AFTER_S)
                continue
            try:
                if journal.ckpt_path is not None:
                    response = await self._retry_busy_alive(
                        worker, {"op": "adopt", "path": journal.ckpt_path}
                    )
                else:
                    response = await self._retry_busy_alive(
                        worker, {"op": "create", "spec": journal.spec_fields,
                                 "lists": _lists_payload(journal.lists)}
                    )
                local = response["session"]
                for blk in journal.blocks:
                    await self._replay_feed(worker, local, blk)
                for _ in range(journal.advances):
                    await self._retry_busy_alive(
                        worker, {"op": "advance", "session": local}
                    )
            except ServiceBusyError:
                # The chosen worker died mid-rebuild; its partial state
                # died with it. Start over on whoever is alive.
                await asyncio.sleep(_RETRY_AFTER_S)
                continue
            self._local[sid] = local
            self._routes[sid] = worker
            worker.assigned.add(sid)
            self.recoveries += 1
            return

    async def _replay_feed(self, worker: _Worker, local: str, block) -> None:
        limit = max(1, worker.ring.max_rows())
        for off in range(0, max(1, len(block)), limit):
            await self._retry_busy_alive(
                worker, {"op": "feed", "session": local},
                block=block[off:off + limit],
            )

    # ------------------------------------------------------------------
    # journal sync points
    # ------------------------------------------------------------------
    async def _sync(self, sid: str, journal: _SessionJournal,
                    worker: _Worker, local: str,
                    allow_stopping: bool = False) -> str:
        path = f"{self._dir}/{sid}.sync.ck"
        response = await self._request(
            worker, {"op": "snapshot", "session": local, "path": path},
            allow_stopping=allow_stopping,
        )
        journal.ckpt_path = response["path"]
        journal.blocks = []
        journal.advances = 0
        journal.ops_since_sync = 0
        return journal.ckpt_path

    async def _maybe_sync(self, sid: str, journal: _SessionJournal) -> None:
        if (journal.finalized
                or journal.ops_since_sync < self.config.checkpoint_every_ops):
            return
        try:
            worker, local = await self._ensure_routed(sid)
            await self._sync(sid, journal, worker, local)
        except ServiceBusyError:
            # Never let a shed *snapshot* bubble into a busy reply for an
            # op that was already applied and journaled — the client
            # would retry and double-apply. The next op re-attempts.
            pass

    # ------------------------------------------------------------------
    # SessionManager-compatible surface
    # ------------------------------------------------------------------
    async def create(self, spec_fields: dict, lists=None) -> str:
        spec, entry, config, lists = validate_spec(
            self.registry, spec_fields, lists
        )
        if len(self._journals) >= self.config.max_sessions:
            raise ServiceError(
                f"session limit reached ({self.config.max_sessions}); "
                "finalize or drop sessions first"
            )
        worker = self._pick_worker()
        if worker is None:
            raise ServiceBusyError(
                "no live worker to place the session; retry",
                retry_after=_RETRY_AFTER_S,
            )
        sid = f"s{self._next_id}"
        self._next_id += 1
        journal = _SessionJournal(
            sid, spec_fields, lists, entry.kind == "onepass"
        )
        self._journals[sid] = journal
        self._routes[sid] = worker
        self._sid_locks[sid] = asyncio.Lock()
        worker.assigned.add(sid)
        async with self._sid_locks[sid]:
            try:
                response = await self._request(
                    worker, {"op": "create", "spec": journal.spec_fields,
                             "lists": _lists_payload(lists)}
                )
            except ReproError:
                worker.assigned.discard(sid)
                self._journals.pop(sid, None)
                self._routes.pop(sid, None)
                self._sid_locks.pop(sid, None)
                raise
            self._local[sid] = response["session"]
        return sid

    async def feed(self, sid: str, edges) -> dict:
        journal, lock = self._journal(sid)
        async with lock:
            if journal.sealed or journal.finalized:
                raise ServiceError(
                    f"session {sid} is sealed; no further edges accepted"
                )
            n = int(journal.spec_fields["n"])
            block = SessionManager._validate_edges(edges, n)
            limit = max(1, self.config.ring_bytes // EDGE_BYTES)
            parts = (
                [block[off:off + limit] for off in range(0, len(block), limit)]
                if len(block) else [block]
            )
            for idx, part in enumerate(parts):
                while True:
                    try:
                        worker, local = await self._ensure_routed(sid)
                        await self._request(
                            worker, {"op": "feed", "session": local},
                            block=part,
                        )
                        break
                    except ServiceBusyError:
                        if idx == 0:
                            # Nothing applied yet: the client may retry
                            # this feed verbatim.
                            raise
                        # Continuation sub-blocks retry internally — a
                        # busy escaping here would make the client
                        # re-send sub-blocks that were already applied.
                        await asyncio.sleep(_RETRY_AFTER_S)
                if len(part):
                    journal.blocks.append(np.array(part))
                    journal.edges_total += len(part)
                journal.ops_since_sync += 1
            await self._maybe_sync(sid, journal)
            return {"accepted": int(len(block)),
                    "edges_total": journal.edges_total}

    async def advance(self, sid: str) -> dict:
        journal, lock = self._journal(sid)
        async with lock:
            if journal.finalized:
                raise ServiceError(f"session {sid} is already finalized")
            while True:
                try:
                    worker, local = await self._ensure_routed(sid)
                    response = await self._request(
                        worker, {"op": "advance", "session": local}
                    )
                    break
                except ServiceBusyError:
                    raise  # not applied; client may retry verbatim
            journal.sealed = True
            journal.advances += 1
            journal.ops_since_sync += 1
            await self._maybe_sync(sid, journal)
            return {**_rewrite_session(response, sid)}

    async def finalize(self, sid: str) -> dict:
        journal, lock = self._journal(sid)
        async with lock:
            if journal.finalized:
                return dict(journal.result)
            worker, local = await self._ensure_routed(sid)
            response = await self._request(
                worker, {"op": "finalize", "session": local}
            )
            journal.result = response["result"]
            journal.finalized = True
            journal.sealed = True
            journal.blocks = []
            journal.advances = 0
            # The session becomes journal-only: result/status serve from
            # the dispatcher, the worker slot is reclaimed.
            try:
                await self._request(worker, {"op": "drop", "session": local})
            except ReproError:
                pass  # worker death reclaims it anyway
            worker.assigned.discard(sid)
            self._routes[sid] = None
            self._local.pop(sid, None)
            return dict(journal.result)

    async def result(self, sid: str) -> dict:
        journal, lock = self._journal(sid)
        async with lock:
            if not journal.finalized:
                raise ServiceError(
                    f"session {sid} is not finalized; call finalize first"
                )
            return dict(journal.result)

    async def status(self, sid: str) -> dict:
        journal, lock = self._journal(sid)
        async with lock:
            if journal.finalized:
                return {
                    "session": sid,
                    "algorithm": journal.spec_fields["algorithm"],
                    "n": int(journal.spec_fields["n"]),
                    "delta": int(journal.spec_fields["delta"]),
                    "edges": journal.edges_total,
                    "sealed": True,
                    "finalized": True,
                    "onepass": journal.onepass,
                    "passes": int(journal.result.get("passes", 0)),
                }
            worker, local = await self._ensure_routed(sid)
            response = await self._request(
                worker, {"op": "status", "session": local}
            )
            return _rewrite_session(response, sid)

    async def checkpoint(self, sid: str) -> str:
        """Snapshot the session into the pool's shared checkpoint dir."""
        journal, lock = self._journal(sid)
        async with lock:
            if journal.finalized:
                raise ServiceError(
                    f"session {sid} is finalized; fetch its result instead"
                )
            worker, local = await self._ensure_routed(sid)
            return await self._sync(sid, journal, worker, local)

    async def drop(self, sid: str) -> dict:
        journal, lock = self._journal(sid)
        async with lock:
            worker = self._routes.get(sid)
            if isinstance(worker, _Worker) and not journal.finalized:
                if worker.alive and sid in worker.assigned:
                    await self._request(
                        worker,
                        {"op": "drop", "session": self._local[sid]},
                        allow_stopping=True,
                    )
                worker.assigned.discard(sid)
            self._journals.pop(sid, None)
            self._routes.pop(sid, None)
            self._local.pop(sid, None)
        self._sid_locks.pop(sid, None)
        return {"dropped": sid}

    def stats(self) -> dict:
        workers = [w for w in self._workers if w is not None]
        return {
            "sessions": len(self._journals),
            "workers": len(self._workers),
            "workers_alive": sum(
                1 for w in workers if w.alive and not w.stopping
            ),
            "inflight": sum(len(w.inflight) for w in workers),
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "max_sessions": self.config.max_sessions,
            "per_worker": [
                {
                    "index": w.index,
                    "alive": w.alive,
                    "stopping": w.stopping,
                    "assigned": len(w.assigned),
                    "inflight": len(w.inflight),
                    "ring_used_bytes": w.ring.used_bytes,
                }
                for w in workers
            ],
        }

    async def worker_stats(self) -> list:
        """Per-worker SessionManager stats (evictions/restores/resident)."""
        out = []
        for worker in self._workers:
            if worker is None or not worker.alive:
                continue
            try:
                response = await self._request(worker, {"op": "stats"})
            except ReproError:
                continue
            out.append({
                "index": worker.index,
                **{k: v for k, v in response.items() if k != "ok"},
            })
        return out

    # ------------------------------------------------------------------
    # drain / shutdown
    # ------------------------------------------------------------------
    async def drain_worker(self, index: int) -> list:
        """Quiesce one worker: migrate its sessions, then stop it.

        Migration prefers a fresh snapshot taken on the draining worker
        (cheap, current); if that sheds, the journal replay path rebuilds
        the identical state. Returns the migrated session ids.
        """
        worker = self._workers[index]
        if worker is None or not worker.alive:
            raise ServiceError(f"worker {index} is not running")
        if self._pick_worker() is worker and sum(
            1 for w in self._workers
            if w is not None and w.alive and not w.stopping
        ) <= 1:
            raise ServiceError("cannot drain the last live worker")
        worker.stopping = True
        migrated = []
        for sid in sorted(worker.assigned):
            lock = self._sid_locks.get(sid)
            if lock is None:
                continue
            async with lock:
                if self._routes.get(sid) is not worker:
                    continue
                journal = self._journals[sid]
                try:
                    await self._sync(sid, journal, worker,
                                     self._local[sid], allow_stopping=True)
                except ReproError:
                    pass  # journal replay covers it
                worker.assigned.discard(sid)
                await self._recover_session(sid)
                migrated.append(sid)
        try:
            await self._retry_busy_alive(
                worker, {"op": "stop"}, allow_stopping=True
            )
        except ReproError:
            pass
        await asyncio.to_thread(worker.proc.join, 5)
        worker.alive = False
        return migrated

    async def quiesce(self) -> dict:
        """Snapshot every unfinalized session to the shared checkpoint dir.

        The graceful-shutdown hook: returns ``{sid: checkpoint_path}``.
        """
        checkpoints = {}
        for sid in sorted(self._journals):
            journal = self._journals.get(sid)
            lock = self._sid_locks.get(sid)
            if journal is None or lock is None:
                continue
            async with lock:
                if journal.finalized:
                    continue
                while True:
                    try:
                        worker, local = await self._ensure_routed(sid)
                        checkpoints[sid] = await self._sync(
                            sid, journal, worker, local
                        )
                        break
                    except ServiceBusyError:
                        await asyncio.sleep(_RETRY_AFTER_S)
        return checkpoints

    async def inject_crash(self, index: int) -> None:
        """Test hook: make worker ``index`` die abruptly (``os._exit``)."""
        worker = self._workers[index]
        if worker is None or not worker.alive:
            raise ServiceError(f"worker {index} is not running")
        async with worker.send_lock:
            try:
                _send_msg(worker.conn, {"op": "crash"})
            except OSError:
                pass

    def close(self) -> None:
        """Tear the pool down (idempotent, safe after the loop exits)."""
        if self._closed:
            return
        self._closed = True
        self._closing = True
        respawns = list(self._death_tasks)
        for task in respawns:
            task.cancel()
        for worker in self._workers:
            if worker is not None:
                self._discard(worker)
        if respawns and not self._loop.is_running() \
                and not self._loop.is_closed():
            # Closed from outside the loop: run the cancelled respawns to
            # their end now, or they would be destroyed pending.
            self._loop.run_until_complete(
                asyncio.gather(*respawns, return_exceptions=True)
            )
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None


def _lists_payload(lists):
    """Lists in the pipe-safe form (sorted pairs; no ndarray anywhere)."""
    if lists is None:
        return None
    return sorted(lists.items())


def _rewrite_session(response: dict, sid: str) -> dict:
    """Replace worker-local ids with the pool-public id in a response."""
    out = {k: v for k, v in response.items() if k != "ok"}
    if "session" in out:
        out["session"] = sid
    if "dropped" in out:
        out["dropped"] = sid
    return out
