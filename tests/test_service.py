"""repro.service: session lifecycle, protocol, eviction, concurrency.

Tests drive the asyncio stack with plain ``asyncio.run`` (no plugin
dependency).  The load-bearing checks: a session's result equals the
engine's inline result for the same spec + stream; eviction to a
``REPROCK1`` checkpoint and restore mid-stream changes nothing; and many
concurrent sessions finalize verified under residency pressure.
"""

import asyncio

import numpy as np
import pytest

from repro.common.exceptions import ServiceError
from repro.engine import RunSpec, run
from repro.graph.zoo import arrange_edges, workload_delta, workload_edges
from repro.service import ColoringService, ServiceClient, SessionManager
from repro.service.protocol import decode_message, encode_message


def zoo_cell(family="power_law", n=40, order="random", seed=3):
    edges, n_actual = workload_edges(family, n, seed)
    delta = max(1, workload_delta(n_actual, edges))
    return arrange_edges(n_actual, edges, order, seed), n_actual, delta


def spec_dict(algorithm, n, delta, seed=3, verify="strict", **extra):
    return {"algorithm": algorithm, "n": n, "delta": delta, "seed": seed,
            "verify": verify, **extra}


def engine_reference(algorithm, arranged, n, delta, seed=3, chunk=8192):
    """The inline engine result for the same instance (token reference)."""
    from repro.streaming.source import GeneratorSource

    spec = RunSpec(algorithm=algorithm, n=n, delta=delta, seed=seed,
                   keep_coloring=True, verify="strict")
    source = GeneratorSource(lambda: arranged, n, chunk_size=chunk)
    return run(spec, stream=source)


class TestSessionManager:
    def test_onepass_session_matches_engine(self):
        arranged, n, delta = zoo_cell()

        async def go():
            manager = SessionManager()
            sid = await manager.create(spec_dict("robust", n, delta))
            for start in range(0, len(arranged), 13):
                await manager.feed(sid, arranged[start : start + 13].tolist())
            result = await manager.finalize(sid)
            manager.close()
            return result

        result = await_result = asyncio.run(go())
        assert await_result["proper"]
        assert result["passes"] == 1
        assert result["extras"]["guarantees"]["ok"]
        ref = engine_reference("robust", arranged, n, delta)
        assert result["colors_used"] == ref.colors_used
        assert result["peak_space_bits"] == ref.peak_space_bits
        assert result["random_bits"] == ref.random_bits

    def test_multipass_session_advances_pass_by_pass(self):
        arranged, n, delta = zoo_cell()

        async def go():
            manager = SessionManager()
            sid = await manager.create(spec_dict("deterministic", n, delta))
            await manager.feed(sid, arranged.tolist())
            passes = 0
            while True:
                status = await manager.advance(sid)
                passes += 1
                if status["done"]:
                    break
                assert passes < 200
            result = await manager.finalize(sid)
            manager.close()
            return result

        result = asyncio.run(go())
        assert result["proper"] and result["passes"] > 1
        assert result["extras"]["guarantees"]["ok"]
        ref = engine_reference("deterministic", arranged, n, delta)
        assert result["passes"] == ref.passes
        assert result["colors_used"] == ref.colors_used

    def test_feed_after_seal_rejected(self):
        arranged, n, delta = zoo_cell()

        async def go():
            manager = SessionManager()
            sid = await manager.create(spec_dict("deterministic", n, delta))
            await manager.feed(sid, arranged.tolist())
            await manager.advance(sid)
            with pytest.raises(ServiceError, match="sealed"):
                await manager.feed(sid, [[0, 1]])
            manager.close()

        asyncio.run(go())

    def test_list_coloring_session_with_lists(self):
        from repro.graph.generators import random_list_assignment
        from repro.graph.graph import Graph

        arranged, n, delta = zoo_cell("bipartite", 30)
        universe = 2 * (delta + 1)
        graph = Graph(n, [tuple(e) for e in arranged.tolist()])
        lists = {
            x: sorted(colors)
            for x, colors in random_list_assignment(
                graph, palette_size=universe, seed=3
            ).items()
        }

        async def go():
            manager = SessionManager()
            sid = await manager.create(
                spec_dict("list_coloring", n, delta,
                          config={"universe": universe}),
                lists,
            )
            await manager.feed(sid, arranged.tolist())
            result = await manager.finalize(sid)
            manager.close()
            return result

        result = asyncio.run(go())
        assert result["proper"]
        assert result["extras"]["guarantees"]["ok"]

    def test_eviction_and_restore_changes_nothing(self):
        arranged, n, delta = zoo_cell("cliques_paths", 36, seed=7)
        half = len(arranged) // 2

        async def run_session(evict: bool):
            manager = SessionManager(max_resident=4)
            sid = await manager.create(spec_dict("cgs22", n, delta, seed=7))
            await manager.feed(sid, arranged[:half].tolist())
            if evict:
                path = await manager.checkpoint(sid)
                assert manager.stats()["resident"] == 0
                import os

                assert os.path.exists(path)
            await manager.feed(sid, arranged[half:].tolist())
            result = await manager.finalize(sid)
            manager.close()
            return result

        plain = asyncio.run(run_session(False))
        evicted = asyncio.run(run_session(True))
        for field in ("colors_used", "passes", "peak_space_bits",
                      "random_bits", "proper", "palette_bound"):
            assert plain[field] == evicted[field], field

    def test_multipass_eviction_mid_advance(self):
        arranged, n, delta = zoo_cell(seed=5)

        async def run_session(evict: bool):
            manager = SessionManager()
            sid = await manager.create(
                spec_dict("deterministic", n, delta, seed=5, chunk_size=16)
            )
            await manager.feed(sid, arranged.tolist())
            await manager.advance(sid)
            await manager.advance(sid)
            if evict:
                await manager.checkpoint(sid)
            result = await manager.finalize(sid)
            manager.close()
            return result

        plain = asyncio.run(run_session(False))
        evicted = asyncio.run(run_session(True))
        for field in ("colors_used", "passes", "peak_space_bits",
                      "random_bits", "proper"):
            assert plain[field] == evicted[field], field

    @pytest.mark.parametrize("algorithm", ["robust", "deterministic"])
    def test_checkpoint_with_kernel_tier_key_restores(self, algorithm,
                                                      tmp_path):
        # Specs stored while RunSpec still had a kernel tier carry the key.
        from repro.persist import read_checkpoint, write_checkpoint
        from repro.persist.driver import VOLATILE_EXTRAS

        arranged, n, delta = zoo_cell(seed=5)
        half = len(arranged) // 2

        async def run_session(spec_key):
            manager = SessionManager(checkpoint_dir=str(tmp_path))
            try:
                sid = await manager.create(
                    spec_dict(algorithm, n, delta, seed=5)
                )
                await manager.feed(sid, arranged[:half].tolist())
                if spec_key is not None:
                    path = await manager.snapshot(sid)
                    await manager.drop(sid)
                    header, arrays = read_checkpoint(path)
                    header["spec"][spec_key] = "numpy"
                    write_checkpoint(path, header, arrays)
                    sid = await manager.adopt(path)
                await manager.feed(sid, arranged[half:].tolist())
                result = await manager.finalize(sid)
            finally:
                manager.close()
            result.pop("wall_time_s")
            result["extras"] = {k: v for k, v in result["extras"].items()
                                if k not in VOLATILE_EXTRAS}
            return result

        plain = asyncio.run(run_session(None))
        assert asyncio.run(run_session("kernel_tier")) == plain
        with pytest.raises(ServiceError, match="bad session checkpoint spec"):
            asyncio.run(run_session("colour_scheme"))

    def test_lru_eviction_under_residency_pressure(self):
        arranged, n, delta = zoo_cell(n=24)

        async def go():
            manager = SessionManager(max_resident=2, max_sessions=10)
            sids = []
            for i in range(6):
                sid = await manager.create(
                    spec_dict("robust", n, delta, seed=i)
                )
                await manager.feed(sid, arranged.tolist())
                sids.append(sid)
            stats = manager.stats()
            assert stats["resident"] <= 2
            assert stats["evictions"] >= 4
            results = [await manager.finalize(sid) for sid in sids]
            assert manager.stats()["restores"] >= 4
            manager.close()
            return results

        results = asyncio.run(go())
        assert all(r["proper"] for r in results)
        # Same spec -> same state regardless of eviction history.
        assert results[0]["colors_used"] == asyncio.run(self._rerun(arranged, n, delta))

    async def _rerun(self, arranged, n, delta):
        manager = SessionManager()
        sid = await manager.create(spec_dict("robust", n, delta, seed=0))
        await manager.feed(sid, arranged.tolist())
        result = await manager.finalize(sid)
        manager.close()
        return result["colors_used"]

    def test_session_limit(self):
        async def go():
            manager = SessionManager(max_sessions=2)
            await manager.create(spec_dict("naive", 8, 2, verify=False))
            await manager.create(spec_dict("naive", 8, 2, verify=False))
            with pytest.raises(ServiceError, match="session limit"):
                await manager.create(spec_dict("naive", 8, 2, verify=False))
            manager.close()

        asyncio.run(go())

    def test_bad_specs_and_edges_rejected(self):
        async def go():
            manager = SessionManager()
            with pytest.raises(ServiceError, match="unknown field"):
                await manager.create({"algorithm": "naive", "n": 8,
                                      "delta": 2, "graph_seed": 1})
            with pytest.raises(ServiceError, match="missing required"):
                await manager.create({"algorithm": "naive", "n": 8})
            with pytest.raises(ServiceError, match="needs per-vertex"):
                await manager.create(spec_dict("list_coloring", 8, 2))
            with pytest.raises(ServiceError, match="does not take"):
                await manager.create(spec_dict("naive", 8, 2, verify=False),
                                     {0: [1]})
            sid = await manager.create(spec_dict("naive", 8, 2, verify=False))
            with pytest.raises(ServiceError, match="out of range"):
                await manager.feed(sid, [[0, 99]])
            with pytest.raises(ServiceError, match="self-loops"):
                await manager.feed(sid, [[3, 3]])
            with pytest.raises(ServiceError, match="integers"):
                await manager.feed(sid, [[0.9, 1.7]])  # no silent truncation
            with pytest.raises(ServiceError, match="pairs"):
                await manager.feed(sid, [[1, 2, 3]])
            with pytest.raises(ServiceError, match="unknown session"):
                await manager.feed("s999", [[0, 1]])
            with pytest.raises(ServiceError, match="not finalized"):
                await manager.result(sid)
            manager.close()

        asyncio.run(go())


class TestProtocol:
    def test_roundtrip(self):
        message = {"op": "feed", "session": "s1", "edges": [[0, 1]]}
        assert decode_message(encode_message(message)) == message

    def test_malformed_json(self):
        with pytest.raises(ServiceError, match="malformed"):
            decode_message(b"{nope\n")

    def test_non_object(self):
        with pytest.raises(ServiceError, match="object"):
            decode_message(b"[1,2]\n")


class TestTcpService:
    @staticmethod
    async def _start():
        service = ColoringService(max_resident=4, max_sessions=64)
        server = await service.serve_tcp("127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        return service, server, port

    def test_end_to_end_session(self):
        arranged, n, delta = zoo_cell()

        async def go():
            service, server, port = await self._start()
            async with await ServiceClient.connect("127.0.0.1", port) as c:
                assert await c.ping()
                result = await c.run_session(
                    spec_dict("robust_lowrandom", n, delta), arranged,
                    feed_edges=17,
                )
                status = await c.stats()
            server.close()
            await server.wait_closed()
            service.manager.close()
            return result, status

        result, status = asyncio.run(go())
        assert result["proper"] and result["extras"]["guarantees"]["ok"]
        assert status["sessions"] == 1

    def test_concurrent_sessions_all_verified(self):
        cells = [
            ("robust", *zoo_cell("power_law", 32, seed=s)) for s in range(4)
        ] + [
            ("cgs22", *zoo_cell("bipartite", 28, seed=s)) for s in range(4)
        ] + [
            ("deterministic", *zoo_cell("cliques_paths", 30, seed=s))
            for s in range(4)
        ] + [
            ("acs22", *zoo_cell("near_star", 24, seed=s)) for s in range(4)
        ]

        async def go():
            service, server, port = await self._start()

            async def one(algorithm, arranged, n, delta, seed):
                async with await ServiceClient.connect("127.0.0.1", port) as c:
                    return await c.run_session(
                        spec_dict(algorithm, n, delta, seed=seed), arranged,
                        feed_edges=11,
                    )

            results = await asyncio.gather(*[
                one(algorithm, arranged, n, delta, seed)
                for seed, (algorithm, arranged, n, delta) in enumerate(cells)
            ])
            stats = service.manager.stats()
            server.close()
            await server.wait_closed()
            service.manager.close()
            return results, stats

        results, stats = asyncio.run(go())
        assert len(results) == 16
        assert all(r["proper"] for r in results)
        assert all(r["extras"]["guarantees"]["ok"] for r in results)
        # Residency pressure (max_resident=4) forced the persist layer on.
        assert stats["evictions"] > 0 and stats["restores"] > 0

    def test_error_envelope_keeps_connection_alive(self):
        async def go():
            service, server, port = await self._start()
            async with await ServiceClient.connect("127.0.0.1", port) as c:
                with pytest.raises(ServiceError, match="unknown op"):
                    await c.request("frobnicate")
                with pytest.raises(ServiceError, match="unknown session"):
                    await c.request("feed", session="s0", edges=[[0, 1]])
                assert await c.ping()  # connection still fine
            server.close()
            await server.wait_closed()
            service.manager.close()

        asyncio.run(go())

    def test_checkpoint_drop_and_result_ops(self, tmp_path):
        arranged, n, delta = zoo_cell(n=24)

        async def go():
            service = ColoringService(checkpoint_dir=str(tmp_path))
            server = await service.serve_tcp("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with await ServiceClient.connect("127.0.0.1", port) as c:
                sid = await c.create(spec_dict("robust", n, delta))
                await c.feed(sid, arranged)
                path = await c.checkpoint(sid)
                assert path.startswith(str(tmp_path))
                result = await c.finalize(sid)  # restored transparently
                again = await c.result(sid)
                assert again == result
                await c.drop(sid)
                with pytest.raises(ServiceError, match="unknown session"):
                    await c.status(sid)
            server.close()
            await server.wait_closed()
            service.manager.close()
            return result

        result = asyncio.run(go())
        assert result["proper"]

    def test_malformed_request_shapes_get_envelopes_not_disconnects(self):
        # Type confusion in request fields (string sizes, unhashable ids,
        # non-dict specs) must come back as ok:false envelopes with the
        # connection still usable afterwards.
        async def go():
            service, server, port = await self._start()
            async with await ServiceClient.connect("127.0.0.1", port) as c:
                for params in (
                    {"spec": {"algorithm": "robust", "n": "64", "delta": 1}},
                    {"spec": {"algorithm": "robust", "n": 8, "delta": True}},
                    {"spec": [1, 2]},
                    {"spec": {"algorithm": "robust", "n": 8, "delta": 2,
                              "config": "nope"}},
                ):
                    with pytest.raises(ServiceError):
                        await c.request("create", **params)
                with pytest.raises(ServiceError, match="string"):
                    await c.request("feed", session=["x"], edges=[[0, 1]])
                with pytest.raises(ServiceError):
                    await c.request("feed", session={"a": 1}, edges=[])
                assert await c.ping()
            server.close()
            await server.wait_closed()
            service.manager.close()

        asyncio.run(go())

    def test_oversized_line_drops_connection_cleanly(self, monkeypatch):
        import repro.service.server as server_mod

        monkeypatch.setattr(server_mod, "MAX_LINE", 1024)

        async def go():
            service, server, port = await self._start()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b'{"op":"ping","pad":"' + b"x" * 4096 + b'"}\n')
            await writer.drain()
            line = await reader.readline()  # server dropped us, no reply
            assert line == b""
            writer.close()
            await writer.wait_closed()
            # The server survives and accepts new connections.
            async with await ServiceClient.connect("127.0.0.1", port) as c:
                assert await c.ping()
            server.close()
            await server.wait_closed()
            service.manager.close()

        asyncio.run(go())

    def test_stale_session_reference_cannot_lose_edges(self):
        # A coroutine holding a pre-eviction Session object must not
        # mutate the orphan: ops re-check residency under the session
        # lock, so edges fed around an eviction always land in the state
        # the next restore sees.
        arranged, n, delta = zoo_cell(n=28)
        third = len(arranged) // 3

        async def go():
            manager = SessionManager(max_resident=4)
            sid = await manager.create(spec_dict("robust", n, delta))
            await manager.feed(sid, arranged[:third].tolist())
            # Simulate the race: look up the live object, then have the
            # eviction happen before the feeder takes the session lock.
            stale = await manager._get(sid)
            await manager.checkpoint(sid)
            assert manager.stats()["resident"] == 0
            assert stale is not manager._resident.get(sid)
            await manager.feed(sid, arranged[third:].tolist())
            result = await manager.finalize(sid)
            manager.close()
            return result

        result = asyncio.run(go())
        assert result["proper"]
        assert result["extras"]["stream_edges"] == len(
            np.unique(arranged, axis=0)
        ) or result["extras"]["stream_edges"] == len(arranged)

    def test_shutdown_op(self):
        async def go():
            service, server, port = await self._start()
            async with await ServiceClient.connect("127.0.0.1", port) as c:
                await c.shutdown()
            assert service.shutdown_event.is_set()
            server.close()
            await server.wait_closed()
            service.manager.close()

        asyncio.run(go())


class TestClientRobustness:
    """Per-request timeouts, reconnect backoff, busy-retry transparency."""

    def test_request_timeout_marks_connection_broken(self):
        async def go():
            async def black_hole(reader, writer):
                await reader.readline()  # swallow the request, never reply

            server = await asyncio.start_server(black_hole, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = await ServiceClient.connect(
                "127.0.0.1", port, timeout=0.1
            )
            async with client:
                with pytest.raises(ServiceError, match="timed out after"):
                    await client.ping()
                # the reply may still be in flight: reusing the stream
                # would desync pairing, so the client refuses
                with pytest.raises(ServiceError, match="broken"):
                    await client.ping()
            server.close()
            await server.wait_closed()

        asyncio.run(go())

    def test_connect_retries_exhausted_is_service_error(self):
        async def go():
            # grab a port and close it so nothing listens there
            probe = await asyncio.start_server(
                lambda r, w: None, "127.0.0.1", 0
            )
            port = probe.sockets[0].getsockname()[1]
            probe.close()
            await probe.wait_closed()
            with pytest.raises(ServiceError, match="after 3 attempt"):
                await ServiceClient.connect(
                    "127.0.0.1", port, retries=2, backoff=0.01
                )

        asyncio.run(go())

    def test_connect_backoff_reaches_late_server(self):
        async def go():
            probe = await asyncio.start_server(
                lambda r, w: None, "127.0.0.1", 0
            )
            port = probe.sockets[0].getsockname()[1]
            probe.close()
            await probe.wait_closed()

            service = ColoringService(max_sessions=4)
            server = None

            async def boot_late():
                nonlocal server
                await asyncio.sleep(0.15)
                server = await service.serve_tcp("127.0.0.1", port)

            boot = asyncio.create_task(boot_late())
            client = await ServiceClient.connect(
                "127.0.0.1", port, retries=8, backoff=0.05
            )
            async with client:
                assert await client.ping()
            await boot
            server.close()
            await server.wait_closed()
            service.manager.close()

        asyncio.run(go())

    def test_busy_replies_are_retried_transparently(self):
        async def go():
            sheds = 2

            async def flaky(reader, writer):
                nonlocal sheds
                while True:
                    line = await reader.readline()
                    if not line:
                        return
                    if sheds > 0:
                        sheds -= 1
                        response = {"ok": False, "error": "shard busy",
                                    "code": "ServiceBusyError",
                                    "busy": True, "retry_after": 0.01}
                    else:
                        response = {"ok": True, "pong": True}
                    writer.write(encode_message(response))
                    await writer.drain()

            server = await asyncio.start_server(flaky, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = await ServiceClient.connect("127.0.0.1", port)
            async with client:
                assert await client.ping()
                assert client.busy_retries_used == 2
            server.close()
            await server.wait_closed()

        asyncio.run(go())

    def test_busy_retries_exhausted_raises_busy_error(self):
        from repro.common.exceptions import ServiceBusyError

        async def go():
            async def always_busy(reader, writer):
                while True:
                    line = await reader.readline()
                    if not line:
                        return
                    writer.write(encode_message(
                        {"ok": False, "error": "shard busy",
                         "code": "ServiceBusyError",
                         "busy": True, "retry_after": 0.001}
                    ))
                    await writer.drain()

            server = await asyncio.start_server(always_busy, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = await ServiceClient.connect(
                "127.0.0.1", port, busy_retries=3
            )
            async with client:
                with pytest.raises(ServiceBusyError, match="still busy"):
                    await client.ping()
            server.close()
            await server.wait_closed()

        asyncio.run(go())


class TestSessionVsEngineDifferential:
    """A session's result must equal the engine's for the same stream."""

    @pytest.mark.parametrize("algorithm", [
        "robust", "robust_lowrandom", "cgs22", "deterministic", "acs22",
        "palette_sparsification",
    ])
    def test_session_equals_engine(self, algorithm):
        arranged, n, delta = zoo_cell("power_law", 36, seed=2)

        async def go():
            manager = SessionManager()
            sid = await manager.create(
                spec_dict(algorithm, n, delta, seed=2)
            )
            await manager.feed(sid, arranged.tolist())
            result = await manager.finalize(sid)
            manager.close()
            return result

        session_result = asyncio.run(go())
        ref = engine_reference(algorithm, arranged, n, delta, seed=2)
        for field in ("colors_used", "palette_bound", "proper",
                      "peak_space_bits", "random_bits"):
            assert session_result[field] == getattr(ref, field), field
        if algorithm != "robust":  # robust passes: session counts 1 == ref
            assert session_result["passes"] == ref.passes
