"""Property sweep: crash/suspend points never change a session's result.

Hypothesis drives the *interruption schedule* — which feed block to
crash or checkpoint after, how often the dispatcher syncs its journal —
while the workload stays fixed per algorithm.  Whatever the schedule,
the finalized result must equal the single-process SessionManager run of
the same feed partition, field for field.

Worker processes spawn in ~a second, so the pool is shared across
examples: one persistent event loop hosts the pool for the whole sweep
(``run_until_complete`` per example keeps the dispatcher's pipe
readers and locks on their home loop).  Crash examples respawn a worker
each time; the explicit ``max_examples`` keeps the sweep bounded no
matter the profile.
"""

import asyncio

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.common.exceptions import ServiceBusyError  # noqa: E402
from repro.persist.driver import VOLATILE_EXTRAS  # noqa: E402
from repro.graph.zoo import (  # noqa: E402
    arrange_edges,
    workload_delta,
    workload_edges,
)
from repro.service import PoolConfig, WorkerPool  # noqa: E402
from repro.service.manager import SessionManager  # noqa: E402


def zoo_cell(n=32, seed=3):
    edges, n_actual = workload_edges("power_law", n, seed)
    delta = max(1, workload_delta(n_actual, edges))
    return arrange_edges(n_actual, edges, "random", seed), n_actual, delta


def comparable(result: dict) -> dict:
    data = {k: v for k, v in result.items() if k != "wall_time_s"}
    data["extras"] = {
        k: v for k, v in data.get("extras", {}).items()
        if k not in VOLATILE_EXTRAS
    }
    return data


async def pool_session(pool, spec, blocks, *, crash_after=None,
                       checkpoint_after=None):
    sid = await pool.create(dict(spec))
    for index, block in enumerate(blocks):
        for _ in range(400):
            try:
                await pool.feed(sid, block)
                break
            except ServiceBusyError as error:
                await asyncio.sleep(error.retry_after)
        else:
            raise AssertionError("feed stayed busy for 400 retries")
        if checkpoint_after is not None and index == checkpoint_after:
            await pool.checkpoint(sid)
        if crash_after is not None and index == crash_after:
            await pool.inject_crash(pool._routes[sid].index)
    return await pool.finalize(sid)


def manager_session(spec, blocks):
    async def go():
        manager = SessionManager()
        sid = await manager.create(dict(spec))
        for block in blocks:
            await manager.feed(sid, np.asarray(block).tolist())
        result = await manager.finalize(sid)
        manager.close()
        return result

    return asyncio.run(go())


def sweep(loop, pool, *, crash: bool, max_examples: int):
    arranged, n, delta = zoo_cell()
    blocks = [arranged[off:off + 8] for off in range(0, len(arranged), 8)]
    references: dict = {}

    @settings(max_examples=max_examples, deadline=None, derandomize=True)
    @given(
        algorithm=st.sampled_from(["robust", "cgs22"]),
        point=st.integers(min_value=0, max_value=len(blocks) - 1),
        seed=st.integers(min_value=0, max_value=3),
    )
    def check(algorithm, point, seed):
        spec = {"algorithm": algorithm, "n": n, "delta": delta,
                "seed": seed, "verify": "strict"}
        key = (algorithm, seed)
        if key not in references:
            references[key] = comparable(manager_session(spec, blocks))
        interruption = (
            {"crash_after": point} if crash else {"checkpoint_after": point}
        )
        result = loop.run_until_complete(
            pool_session(pool, spec, blocks, **interruption)
        )
        assert comparable(result) == references[key]

    check()


def run_sweep(*, crash: bool, max_examples: int, checkpoint_every_ops: int):
    loop = asyncio.new_event_loop()
    try:
        asyncio.set_event_loop(loop)
        pool = loop.run_until_complete(WorkerPool.start(PoolConfig(
            workers=2, checkpoint_every_ops=checkpoint_every_ops,
        )))
        try:
            sweep(loop, pool, crash=crash, max_examples=max_examples)
        finally:
            pool.close()
    finally:
        asyncio.set_event_loop(None)
        loop.close()


def test_checkpoint_at_any_block_changes_nothing():
    run_sweep(crash=False, max_examples=12, checkpoint_every_ops=2)


def test_crash_at_any_block_changes_nothing():
    run_sweep(crash=True, max_examples=6, checkpoint_every_ops=3)
