"""repro.service.pool: the sharded multi-core execution plane.

The load-bearing checks, all against the inline engine as ground truth:

- a session routed through worker processes produces the *bit-identical*
  result (colors, random bits) of the same spec + stream run inline;
- killing a worker mid-stream loses nothing: the dispatcher restores its
  sessions from checkpoint + journal on the survivors and the final
  results stay bit-identical;
- draining a worker migrates its sessions and changes nothing;
- backpressure surfaces as the ``busy``/``retry_after`` protocol reply
  and the client's transparent retry hides it;
- ``repro serve --workers`` shuts down cleanly on SIGTERM with every
  resident session checkpointed.

Everything drives plain ``asyncio.run`` (no plugin dependency); worker
processes use the spawn start method, so each pool costs ~a second to
boot — tests share pools where determinism allows.
"""

import asyncio
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.common.exceptions import (
    ReproError,
    ServiceBusyError,
    ServiceError,
    StreamProtocolError,
)
from repro.engine import RunSpec, run
from repro.graph.zoo import arrange_edges, workload_delta, workload_edges
from repro.persist.driver import VOLATILE_EXTRAS
from repro.service import ColoringService, PoolConfig, ServiceClient, WorkerPool
from repro.service.manager import SessionManager
from repro.streaming.shm import EDGE_BYTES, EdgeRing, SharedEdgeArray
from repro.streaming.source import GeneratorSource

REPO_ROOT = Path(__file__).resolve().parents[1]


def zoo_cell(family="power_law", n=40, order="random", seed=3):
    edges, n_actual = workload_edges(family, n, seed)
    delta = max(1, workload_delta(n_actual, edges))
    return arrange_edges(n_actual, edges, order, seed), n_actual, delta


def spec_dict(algorithm, n, delta, seed=3, verify="strict", **extra):
    return {"algorithm": algorithm, "n": n, "delta": delta, "seed": seed,
            "verify": verify, **extra}


def blocks_of(arranged, size):
    return [arranged[off:off + size] for off in range(0, len(arranged), size)]


def engine_reference(algorithm, arranged, n, delta, seed=3):
    spec = RunSpec(algorithm=algorithm, n=n, delta=delta, seed=seed,
                   verify="strict")
    source = GeneratorSource(lambda: arranged, n, chunk_size=8192)
    return run(spec, stream=source)


def manager_reference(spec_fields, blocks, lists=None, advance=False):
    """The single-process SessionManager result for the same feed blocks.

    The dispatcher's exactly-once contract is bit-identity against the
    non-sharded service fed the *same partition*: the space meter charges
    per processed block, so peak_space_bits is a function of the feed
    boundaries (not just the stream), and only a same-partition replay is
    comparable field-for-field.
    """

    async def go():
        manager = SessionManager()
        sid = await manager.create(dict(spec_fields), lists)
        for block in blocks:
            await manager.feed(sid, np.asarray(block).tolist())
        if advance:
            while not (await manager.advance(sid))["done"]:
                pass
        result = await manager.finalize(sid)
        manager.close()
        return result

    return asyncio.run(go())


def comparable(result: dict) -> dict:
    """A result dict minus wall-clock noise (strip_volatile for dicts)."""
    data = {k: v for k, v in result.items() if k != "wall_time_s"}
    data["extras"] = {
        k: v for k, v in data.get("extras", {}).items()
        if k not in VOLATILE_EXTRAS
    }
    return data


def assert_bit_identical(result, ref):
    """Pool result vs same-partition manager reference: full equality."""
    assert result["proper"]
    assert result["extras"]["guarantees"]["ok"]
    assert comparable(result) == comparable(ref)


def assert_matches_engine(result, ref):
    """Pool result vs the inline engine (partition-independent fields)."""
    assert result["proper"]
    assert result["colors_used"] == ref.colors_used
    assert result["random_bits"] == ref.random_bits
    assert result["extras"]["guarantees"]["ok"]


async def feed_retrying(pool, sid, block):
    """Feed through transient busy windows (crash-recovery tests)."""
    for _ in range(400):
        try:
            return await pool.feed(sid, block)
        except ServiceBusyError as error:
            await asyncio.sleep(error.retry_after)
    raise AssertionError("feed stayed busy for 400 retries")


# ----------------------------------------------------------------------
# shared-memory primitives
# ----------------------------------------------------------------------
class TestEdgeRing:
    def test_push_read_free_round_trip(self):
        ring = EdgeRing.create(64 * EDGE_BYTES)
        try:
            block = np.arange(24, dtype=np.int64).reshape(12, 2)
            slot = ring.push(block)
            assert slot is not None and slot["rows"] == 12
            np.testing.assert_array_equal(ring.read(slot), block)
            ring.free(slot)
            assert ring.used_bytes == 0
        finally:
            ring.close()
            ring.unlink()

    def test_full_ring_returns_none_and_wraps(self):
        ring = EdgeRing.create(8 * EDGE_BYTES)
        try:
            a = ring.push(np.zeros((5, 2), dtype=np.int64))
            b = ring.push(np.ones((3, 2), dtype=np.int64))
            assert a is not None and b is not None
            assert ring.push(np.zeros((1, 2), dtype=np.int64)) is None
            ring.free(a)  # frees the head of the FIFO
            c = ring.push(np.full((4, 2), 7, dtype=np.int64))
            assert c is not None  # wrapped into the freed prefix
            np.testing.assert_array_equal(
                ring.read(c), np.full((4, 2), 7, dtype=np.int64)
            )
            ring.free(b)
            ring.free(c)
            assert ring.used_bytes == 0
        finally:
            ring.close()
            ring.unlink()

    def test_out_of_order_free_rejected(self):
        ring = EdgeRing.create(8 * EDGE_BYTES)
        try:
            ring.push(np.zeros((2, 2), dtype=np.int64))
            later = ring.push(np.zeros((2, 2), dtype=np.int64))
            with pytest.raises(StreamProtocolError):
                ring.free(later)
        finally:
            ring.close()
            ring.unlink()

    def test_attach_sees_producer_bytes(self):
        ring = EdgeRing.create(16 * EDGE_BYTES)
        try:
            block = np.arange(10, dtype=np.int64).reshape(5, 2)
            slot = ring.push(block)
            view = EdgeRing.attach(ring.handle)
            try:
                np.testing.assert_array_equal(view.read(slot), block)
            finally:
                view.close()
        finally:
            ring.close()
            ring.unlink()

    def test_shared_edge_array_publish_attach(self):
        edges = np.arange(20, dtype=np.int64).reshape(10, 2)
        shared = SharedEdgeArray.publish(edges)
        try:
            twin = SharedEdgeArray.attach(shared.handle)
            try:
                np.testing.assert_array_equal(twin.array, edges)
                with pytest.raises(ValueError):
                    twin.array[0, 0] = 99  # read-only mapping
            finally:
                twin.close()
        finally:
            shared.close()
            shared.unlink()


# ----------------------------------------------------------------------
# the pool vs the inline engine
# ----------------------------------------------------------------------
class TestWorkerPool:
    def test_sessions_bit_identical_to_engine_across_workers(self):
        arranged, n, delta = zoo_cell()
        blocks = blocks_of(arranged, 16)

        async def go():
            pool = await WorkerPool.start(PoolConfig(workers=2))
            try:
                results = {}
                for algorithm in ("cgs22", "robust"):
                    sid = await pool.create(spec_dict(algorithm, n, delta))
                    for block in blocks:
                        await pool.feed(sid, block)
                    status = await pool.status(sid)
                    assert status["edges"] == len(arranged)
                    results[algorithm] = await pool.finalize(sid)
                    # result is idempotent after finalize
                    assert await pool.result(sid) == results[algorithm]
                stats = pool.stats()
                assert stats["workers_alive"] == 2
                assert stats["crashes"] == 0
                return results
            finally:
                pool.close()

        results = asyncio.run(go())
        for algorithm, result in results.items():
            assert_bit_identical(
                result, manager_reference(spec_dict(algorithm, n, delta),
                                          blocks),
            )
            assert_matches_engine(
                result, engine_reference(algorithm, arranged, n, delta)
            )

    def test_multipass_session_advances_on_a_worker(self):
        arranged, n, delta = zoo_cell()

        async def go():
            pool = await WorkerPool.start(PoolConfig(workers=2))
            try:
                sid = await pool.create(spec_dict("deterministic", n, delta))
                await pool.feed(sid, arranged)
                passes = 0
                while True:
                    status = await pool.advance(sid)
                    passes += 1
                    assert passes < 200
                    if status["done"]:
                        break
                return await pool.finalize(sid)
            finally:
                pool.close()

        result = asyncio.run(go())
        assert_bit_identical(
            result,
            manager_reference(spec_dict("deterministic", n, delta),
                              [arranged], advance=True),
        )
        assert_matches_engine(
            result, engine_reference("deterministic", arranged, n, delta)
        )

    def test_sessions_spread_over_workers_least_loaded(self):
        arranged, n, delta = zoo_cell()

        async def go():
            pool = await WorkerPool.start(PoolConfig(workers=2))
            try:
                for _ in range(4):
                    await pool.create(spec_dict("robust", n, delta))
                per_worker = [w["assigned"] for w in pool.stats()["per_worker"]]
                assert per_worker == [2, 2]
            finally:
                pool.close()

        asyncio.run(go())

    def test_manager_parity_on_errors(self):
        """Error surfaces match the single-process SessionManager."""
        arranged, n, delta = zoo_cell()

        async def go():
            pool = await WorkerPool.start(
                PoolConfig(workers=2, max_sessions=2)
            )
            try:
                with pytest.raises(ReproError, match="unknown algorithm"):
                    await pool.create(spec_dict("nope", n, delta))
                with pytest.raises(ServiceError, match="unknown session"):
                    await pool.feed("s999", arranged[:4])
                sid = await pool.create(spec_dict("robust", n, delta))
                with pytest.raises(ReproError, match="out of range"):
                    await pool.feed(sid, [[0, n + 5]])
                await pool.feed(sid, arranged)
                await pool.finalize(sid)
                with pytest.raises(ServiceError, match="sealed|finalized"):
                    await pool.feed(sid, arranged[:4])
                # session limit counts live sessions across all shards
                await pool.create(spec_dict("robust", n, delta, seed=4))
                with pytest.raises(ServiceError, match="session limit"):
                    await pool.create(spec_dict("robust", n, delta, seed=5))
            finally:
                pool.close()

        asyncio.run(go())

    def test_drop_releases_capacity(self):
        arranged, n, delta = zoo_cell()

        async def go():
            pool = await WorkerPool.start(
                PoolConfig(workers=2, max_sessions=1)
            )
            try:
                sid = await pool.create(spec_dict("robust", n, delta))
                await pool.feed(sid, arranged[:32])
                assert (await pool.drop(sid))["dropped"] == sid
                with pytest.raises(ServiceError, match="unknown session"):
                    await pool.status(sid)
                sid2 = await pool.create(spec_dict("robust", n, delta))
                await pool.feed(sid2, arranged)
                return await pool.finalize(sid2)
            finally:
                pool.close()

        result = asyncio.run(go())
        assert_bit_identical(
            result, manager_reference(spec_dict("robust", n, delta),
                                      [arranged]),
        )


# ----------------------------------------------------------------------
# crash recovery
# ----------------------------------------------------------------------
class TestCrashRecovery:
    def test_worker_crash_mid_feed_restores_on_survivor(self):
        arranged, n, delta = zoo_cell()
        blocks = blocks_of(arranged, 8)
        crash_at = len(blocks) // 2

        async def go():
            # checkpoint_every_ops=3 forces adopt-from-snapshot + journal
            # tail replay rather than full from-scratch replay.
            pool = await WorkerPool.start(
                PoolConfig(workers=2, checkpoint_every_ops=3)
            )
            try:
                sid = await pool.create(spec_dict("cgs22", n, delta))
                for block in blocks[:crash_at]:
                    await pool.feed(sid, block)
                victim = pool._routes[sid]
                await pool.inject_crash(victim.index)
                for block in blocks[crash_at:]:
                    await feed_retrying(pool, sid, block)
                assert pool._routes[sid] is not victim
                result = await pool.finalize(sid)
                assert pool.crashes == 1 and pool.recoveries >= 1
                return result
            finally:
                pool.close()

        result = asyncio.run(go())
        assert_bit_identical(
            result, manager_reference(spec_dict("cgs22", n, delta), blocks)
        )
        assert_matches_engine(
            result, engine_reference("cgs22", arranged, n, delta)
        )

    def test_worker_crash_mid_advance_restores_multipass(self):
        arranged, n, delta = zoo_cell()

        async def go():
            pool = await WorkerPool.start(
                PoolConfig(workers=2, checkpoint_every_ops=2)
            )
            try:
                sid = await pool.create(spec_dict("deterministic", n, delta))
                await pool.feed(sid, arranged)
                done = (await pool.advance(sid))["done"]
                await pool.inject_crash(pool._routes[sid].index)
                passes = 1
                while not done:
                    try:
                        done = (await pool.advance(sid))["done"]
                        passes += 1
                    except ServiceBusyError as error:
                        await asyncio.sleep(error.retry_after)
                    assert passes < 200
                return await pool.finalize(sid)
            finally:
                pool.close()

        result = asyncio.run(go())
        assert_bit_identical(
            result,
            manager_reference(spec_dict("deterministic", n, delta),
                              [arranged], advance=True),
        )

    def test_crash_with_many_resident_sessions_recovers_all(self):
        arranged, n, delta = zoo_cell()
        half = len(arranged) // 2
        blocks = [arranged[:half], arranged[half:]]

        async def go():
            pool = await WorkerPool.start(
                PoolConfig(workers=2, checkpoint_every_ops=4)
            )
            try:
                sids = []
                for seed in range(4):
                    sid = await pool.create(
                        spec_dict("robust", n, delta, seed=seed)
                    )
                    await pool.feed(sid, blocks[0])
                    sids.append(sid)
                await pool.inject_crash(0)
                results = []
                for sid in sids:
                    await feed_retrying(pool, sid, blocks[1])
                    results.append(await pool.finalize(sid))
                return results
            finally:
                pool.close()

        results = asyncio.run(go())
        for seed, result in enumerate(results):
            assert_bit_identical(
                result,
                manager_reference(
                    spec_dict("robust", n, delta, seed=seed), blocks
                ),
            )


# ----------------------------------------------------------------------
# drain + quiesce
# ----------------------------------------------------------------------
class TestDrainAndQuiesce:
    def test_drain_migrates_sessions_bit_identically(self):
        arranged, n, delta = zoo_cell()

        async def go():
            pool = await WorkerPool.start(PoolConfig(workers=2))
            try:
                sid = await pool.create(
                    spec_dict("palette_sparsification", n, delta, seed=5)
                )
                await pool.feed(sid, arranged)
                source = pool._routes[sid].index
                migrated = await pool.drain_worker(source)
                assert sid in migrated
                assert pool._routes[sid].index != source
                assert pool.stats()["workers_alive"] == 1
                return await pool.finalize(sid)
            finally:
                pool.close()

        result = asyncio.run(go())
        assert_bit_identical(
            result,
            manager_reference(
                spec_dict("palette_sparsification", n, delta, seed=5),
                [arranged],
            ),
        )
        assert_matches_engine(
            result,
            engine_reference("palette_sparsification", arranged, n, delta,
                             seed=5),
        )

    def test_last_worker_cannot_be_drained(self):
        async def go():
            pool = await WorkerPool.start(PoolConfig(workers=1))
            try:
                with pytest.raises(ServiceError, match="last live worker"):
                    await pool.drain_worker(0)
            finally:
                pool.close()

        asyncio.run(go())

    def test_quiesce_checkpoints_every_open_session(self):
        arranged, n, delta = zoo_cell()

        async def go():
            pool = await WorkerPool.start(PoolConfig(workers=2))
            try:
                open_sid = await pool.create(spec_dict("robust", n, delta))
                await pool.feed(open_sid, arranged[:64])
                done_sid = await pool.create(
                    spec_dict("robust", n, delta, seed=4)
                )
                await pool.feed(done_sid, arranged)
                await pool.finalize(done_sid)
                checkpoints = await pool.quiesce()
                assert set(checkpoints) == {open_sid}
                assert os.path.exists(checkpoints[open_sid])
            finally:
                pool.close()

        asyncio.run(go())


# ----------------------------------------------------------------------
# backpressure
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_full_queue_sheds_as_busy(self):
        arranged, n, delta = zoo_cell()

        async def go():
            pool = await WorkerPool.start(
                PoolConfig(workers=1, queue_depth=1)
            )
            try:
                sid = await pool.create(spec_dict("robust", n, delta))
                worker = pool._routes[sid]
                # occupy the single queue slot with a phantom request
                phantom = asyncio.get_running_loop().create_future()
                worker.inflight.append((phantom, None))
                with pytest.raises(ServiceBusyError) as info:
                    await pool.feed(sid, arranged[:16])
                assert info.value.retry_after > 0
                worker.inflight.remove((phantom, None))
                phantom.cancel()
                # nothing was applied: the retried feed sees every edge
                await pool.feed(sid, arranged)
                result = await pool.finalize(sid)
                return result
            finally:
                pool.close()

        result = asyncio.run(go())
        assert_bit_identical(
            result, manager_reference(spec_dict("robust", n, delta),
                                      [arranged]),
        )

    def test_busy_envelope_over_tcp_and_client_retry(self):
        arranged, n, delta = zoo_cell()

        async def go():
            pool = await WorkerPool.start(
                PoolConfig(workers=1, queue_depth=1,
                           ring_bytes=256 * EDGE_BYTES)
            )
            service = ColoringService(manager=pool)
            server = await service.serve_tcp()
            port = server.sockets[0].getsockname()[1]

            async def one(seed):
                client = await ServiceClient.connect("127.0.0.1", port)
                async with client:
                    result = await client.run_session(
                        spec_dict("robust", n, delta, seed=seed),
                        arranged, feed_edges=32,
                    )
                return result, client.busy_retries_used

            try:
                outcomes = await asyncio.gather(*(one(s) for s in range(6)))
            finally:
                server.close()
                await server.wait_closed()
                pool.close()
            return outcomes

        outcomes = asyncio.run(go())
        assert len(outcomes) == 6
        for seed, (result, _) in enumerate(outcomes):
            assert_bit_identical(
                result,
                manager_reference(spec_dict("robust", n, delta, seed=seed),
                                  blocks_of(arranged, 32)),
            )


# ----------------------------------------------------------------------
# transport: pipe I/O on the event loop, and teardown mid-spawn
# ----------------------------------------------------------------------
def shm_segments() -> set:
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


def child_pids() -> set:
    return {proc.pid for proc in multiprocessing.active_children()}


def reader_threads() -> list:
    return [thread.name for thread in threading.enumerate()
            if thread.name.startswith("repro-pool-reader")]


async def crash_and_await_respawn(pool) -> None:
    """Crash worker 0 and return while its replacement is booting."""
    await pool.inject_crash(0)
    for _ in range(1000):
        if pool._death_tasks:
            break
        await asyncio.sleep(0.005)
    assert pool._death_tasks, "the crash was never noticed"
    await asyncio.sleep(0.05)
    assert not any(task.done() for task in pool._death_tasks)


@pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                    reason="shared-memory segments are listed in /dev/shm")
class TestTransport:
    def test_close_during_respawn_leaves_nothing(self):
        shm_before, children_before = shm_segments(), child_pids()

        async def go():
            pool = await WorkerPool.start(PoolConfig(workers=2))
            try:
                await crash_and_await_respawn(pool)
            finally:
                pool.close()
            return pool

        pool = asyncio.run(go())
        assert not pool._death_tasks
        assert child_pids() <= children_before
        assert shm_segments() <= shm_before

    def test_close_off_loop_during_respawn_leaves_nothing(self):
        """The property sweep's pattern: close() after the loop stopped."""
        shm_before, children_before = shm_segments(), child_pids()
        loop = asyncio.new_event_loop()
        try:
            pool = loop.run_until_complete(
                WorkerPool.start(PoolConfig(workers=2))
            )
            try:
                loop.run_until_complete(crash_and_await_respawn(pool))
            finally:
                pool.close()
            pending = asyncio.all_tasks(loop)
        finally:
            loop.close()
        assert not pending
        assert child_pids() <= children_before
        assert shm_segments() <= shm_before

    def test_failed_boot_stops_sibling_spawns(self, monkeypatch):
        real_spawn = WorkerPool._spawn_worker

        async def spawn(self, index):
            if index == 1:
                await asyncio.sleep(0.05)  # worker 0 is still booting
                raise ServiceError("worker 1 failed to boot: injected")
            return await real_spawn(self, index)

        monkeypatch.setattr(WorkerPool, "_spawn_worker", spawn)
        shm_before, children_before = shm_segments(), child_pids()

        async def go():
            with pytest.raises(ServiceError, match="injected"):
                await WorkerPool.start(PoolConfig(workers=2))
            return asyncio.all_tasks() - {asyncio.current_task()}

        assert not asyncio.run(go())
        assert child_pids() <= children_before
        assert shm_segments() <= shm_before

    def test_large_create_does_not_block_other_workers(self):
        """A create too big for the pipe's buffer waits off the loop.

        Worker A is busy finalizing; a create with over 1 MB of lists
        queues behind it.  Feeds to a session on worker B keep completing
        meanwhile, each far faster than A's busy time.
        """
        from repro.service.client import build_session_workload

        spec_a, edges_a, lists_a = build_session_workload(
            "list_coloring", "power_law", 300, seed=1, verify=False
        )
        arranged, n, delta = zoo_cell(n=1000)
        big_lists = {x: list(range(1 << 20, (1 << 20) + 220))
                     for x in range(1000)}
        assert len(pickle.dumps(sorted(big_lists.items()))) > 1 << 20

        async def go():
            loop = asyncio.get_running_loop()
            pool = await WorkerPool.start(PoolConfig(workers=2))
            try:
                sid_a = await pool.create(spec_a, lists_a)
                sid_b = await pool.create(spec_dict("robust", n, delta))
                busy = pool._routes[sid_a]
                assert pool._routes[sid_b] is not busy
                await pool.feed(sid_a, edges_a)
                started = loop.time()
                finalize = asyncio.ensure_future(pool.finalize(sid_a))
                await asyncio.sleep(0.05)  # A is finalizing
                create = asyncio.ensure_future(pool.create(
                    spec_dict("list_coloring", 1000, 4, verify=False),
                    big_lists,
                ))
                feeds = []  # (completed at, latency)
                for block in blocks_of(arranged, 4):
                    if finalize.done():
                        break
                    t0 = loop.time()
                    await pool.feed(sid_b, block)
                    feeds.append((loop.time(), loop.time() - t0))
                    await asyncio.sleep(0.01)
                await finalize
                busy_s = loop.time() - started
                sid_big = await create
                assert pool._routes[sid_big] is busy
                await pool.drop(sid_big)
                await pool.drop(sid_b)
                return feeds, started + busy_s, busy_s
            finally:
                pool.close()

        feeds, busy_until, busy_s = asyncio.run(go())
        during = [latency for done, latency in feeds if done < busy_until]
        assert len(during) >= 5, (feeds, busy_s)
        assert max(latency for _, latency in feeds) < busy_s / 4, \
            (feeds, busy_s)

    def test_no_thread_per_worker_or_request(self, monkeypatch):
        arranged, n, delta = zoo_cell()
        blocks = [block.copy() for block in np.array_split(arranged, 20)]
        spec = spec_dict("robust", n, delta)
        real_to_thread = asyncio.to_thread
        calls = []

        async def counting_to_thread(func, *args, **kwargs):
            calls.append(getattr(func, "__name__", repr(func)))
            return await real_to_thread(func, *args, **kwargs)

        async def go():
            pool = await WorkerPool.start(PoolConfig(workers=2))
            try:
                assert reader_threads() == []
                monkeypatch.setattr(asyncio, "to_thread", counting_to_thread)
                sid = await pool.create(dict(spec))
                for block in blocks:
                    await pool.feed(sid, block)
                result = await pool.finalize(sid)
                await pool.drop(sid)
                assert calls == []
                victim = pool._workers[0]
                await pool.inject_crash(0)
                for _ in range(3000):
                    replacement = pool._workers[0]
                    if replacement is not victim and replacement.alive:
                        break
                    await asyncio.sleep(0.01)
                else:
                    raise AssertionError("worker 0 was never respawned")
                assert reader_threads() == []
                return result
            finally:
                pool.close()

        result = asyncio.run(go())
        assert_bit_identical(result, manager_reference(spec, blocks))


# ----------------------------------------------------------------------
# graceful shutdown of `repro serve --workers`
# ----------------------------------------------------------------------
class TestGracefulShutdown:
    def test_sigterm_drains_and_checkpoints(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        ckdir = tmp_path / "ck"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "2", "--checkpoint-dir", str(ckdir)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=env, text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "listening on" in line, line
            port = int(line.rsplit(":", 1)[1])
            arranged, n, delta = zoo_cell()

            async def open_session():
                client = await ServiceClient.connect(
                    "127.0.0.1", port, retries=3
                )
                async with client:
                    sid = await client.create(spec_dict("robust", n, delta))
                    await client.feed(sid, arranged[:64])
                    return sid

            sid = asyncio.run(open_session())
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "shut down cleanly (1 session(s) checkpointed)" in out
        snaps = list(ckdir.glob("**/*.ck"))
        assert snaps, f"no checkpoint written for {sid} under {ckdir}"


# ----------------------------------------------------------------------
# GridRunner zero-copy shared edges
# ----------------------------------------------------------------------
class TestGridSharedEdges:
    def test_pool_path_matches_inline_per_spec(self):
        from repro.engine.grid import GridRunner

        arranged, n, delta = zoo_cell(n=48, seed=7)
        specs = [
            RunSpec(algorithm="cgs22", n=n, delta=delta, seed=s,
                    verify="strict", chunk_size=64)
            for s in range(3)
        ]
        inline = GridRunner(workers=1).run_specs(specs, shared_edges=arranged)
        pooled = GridRunner(workers=2).run_specs(specs, shared_edges=arranged)
        for a, b in zip(inline, pooled):
            assert a.proper and b.proper
            assert a.colors_used == b.colors_used
            assert a.random_bits == b.random_bits

    def test_shared_edges_rejects_games_and_bad_shapes(self):
        from repro.engine.grid import GridRunner
        from repro.engine.runner import GameSpec

        runner = GridRunner(workers=1)
        with pytest.raises(ReproError, match="shape"):
            runner.run_specs([], shared_edges=np.zeros((3, 3), dtype=np.int64))
        game = GameSpec(algorithm="robust", n=8, delta=2, rounds=4)
        with pytest.raises(ReproError, match="stream specs"):
            runner.run_specs(
                [game], shared_edges=np.zeros((1, 2), dtype=np.int64)
            )


# ----------------------------------------------------------------------
# trace continuity: spans crossing the process boundary
# ----------------------------------------------------------------------
class TestTraceContinuity:
    """The obs plane's cross-process story, exercised on a real pool.

    Span context rides the ``_obs`` key of the control envelope; worker
    processes append to the same O_APPEND trace log.  The checks: worker
    spans land under the dispatcher-side parent with distinct pids, a
    SIGKILL'd worker (``inject_crash``) never leaves the log unparseable,
    and a session restored via checkpoint + journal replay keeps tracing
    into the same trace from a different worker pid.
    """

    def test_request_span_contains_worker_child_spans(self, tmp_path):
        import repro.obs as obs

        arranged, n, delta = zoo_cell()
        path = tmp_path / "trace.jsonl"
        obs.configure(trace_log=path)
        try:
            async def go():
                pool = await WorkerPool.start(PoolConfig(workers=2))
                service = ColoringService(manager=pool)
                try:
                    created = await service.dispatch(
                        {"op": "create", "spec": spec_dict("cgs22", n, delta)}
                    )
                    sid = created["session"]
                    await service.dispatch({
                        "op": "feed", "session": sid,
                        "edges": np.asarray(arranged).tolist(),
                    })
                    await service.dispatch(
                        {"op": "finalize", "session": sid}
                    )
                finally:
                    pool.close()

            asyncio.run(go())
        finally:
            obs.reset()
        records = _read_trace(path)
        requests = {r["span"]: r for r in records
                    if r["name"] == "service.request"}
        workers = [r for r in records if r["name"].startswith("worker.")]
        assert requests and workers
        for span in workers:
            parent = requests.get(span["parent"])
            assert parent is not None, span
            assert span["trace"] == parent["trace"]
            assert span["pid"] != os.getpid()
            assert parent["pid"] == os.getpid()

    def test_trace_survives_crash_and_journal_replay(self, tmp_path):
        import repro.obs as obs

        arranged, n, delta = zoo_cell()
        blocks = blocks_of(arranged, 8)
        crash_at = len(blocks) // 2
        path = tmp_path / "trace.jsonl"
        obs.configure(trace_log=path)
        try:
            async def go():
                # checkpoint_every_ops=3: recovery goes through
                # adopt-from-snapshot + journal tail replay.
                pool = await WorkerPool.start(
                    PoolConfig(workers=2, checkpoint_every_ops=3)
                )
                try:
                    with obs.span("session.lifecycle") as lifecycle:
                        sid = await pool.create(spec_dict("cgs22", n, delta))
                        for block in blocks[:crash_at]:
                            await pool.feed(sid, block)
                        victim = pool._routes[sid]
                        await pool.inject_crash(victim.index)
                        for block in blocks[crash_at:]:
                            await feed_retrying(pool, sid, block)
                        result = await pool.finalize(sid)
                    assert pool.crashes == 1
                    return result, lifecycle
                finally:
                    pool.close()

            result, lifecycle = asyncio.run(go())
        finally:
            obs.reset()
        assert result["proper"]
        # SIGKILL mid-traffic: the log must stay parseable (at worst a
        # torn tail, which read_trace_log tolerates by contract).
        records = _read_trace(path)
        session_spans = [
            r for r in records
            if r["name"].startswith("worker.")
            and r["trace"] == lifecycle.trace_id
        ]
        assert all(
            r["parent"] == lifecycle.span_id for r in session_spans
        )
        pids = {r["pid"] for r in session_spans}
        assert os.getpid() not in pids
        # The session traced from two worker processes: the victim
        # before the crash and the survivor it was restored onto.
        assert len(pids) >= 2, pids


def _read_trace(path):
    from repro.obs import read_trace_log

    return read_trace_log(path)
