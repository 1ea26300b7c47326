"""Checkpoints of the D-sketch algorithms written by earlier code restore.

The files in ``tests/data/sketch_checkpoints/`` were recorded at commit
224be37, while Algorithm 3 (``robust_lowrandom``) and the [CGS22]
baseline (``cgs22``) still kept buffer B and every sketch ``D_{i, j}`` as a
Python list of edge tuples (``None`` once wiped).  Each ``<case>.ck`` is a
``REPROCK1`` file holding one algorithm's ``state_dict()`` taken part-way
through the stream of its case in :data:`CASES`; ``session.ck`` is a
half-fed :class:`~repro.service.SessionManager` session snapshot.  Every
one must restore into today's classes and finish exactly as the run that
was never interrupted.  Never re-record them: they stand for checkpoints
already on disk.

``python tests/test_sketch_checkpoints.py DIR`` writes the same files,
from the code it runs on, into ``DIR``.
"""

import asyncio
import pathlib
import sys

import numpy as np
import pytest

from repro.baselines.cgs22 import SketchSwitchingQuadraticColoring
from repro.core.robust_lowrandom import LowRandomnessRobustColoring
from repro.graph.generators import near_regular_edge_array
from repro.persist import read_checkpoint, write_checkpoint
from repro.persist.driver import VOLATILE_EXTRAS
from repro.service import SessionManager

DATA = pathlib.Path(__file__).parent / "data" / "sketch_checkpoints"

CLASSES = {
    "cgs22": SketchSwitchingQuadraticColoring,
    "robust_lowrandom": LowRandomnessRobustColoring,
}

#: name -> (algorithm, n, delta, edges fed before the checkpoint,
#: attribute overrides).  Edges are ``near_regular_edge_array(n, delta,
#: 3)``, fed in blocks of :data:`CHUNK` edges, to an algorithm with seed
#: 3 and :data:`REPS` repetitions.
CASES = {
    "robust_lowrandom-mid": ("robust_lowrandom", 40, 6, 30, {}),
    "robust_lowrandom-rolled": ("robust_lowrandom", 40, 6, 90, {}),
    "robust_lowrandom-wiped": ("robust_lowrandom", 40, 6, 32,
                               {"overflow_cap": 4}),
    "cgs22-mid": ("cgs22", 40, 9, 60, {}),
    "cgs22-rolled": ("cgs22", 40, 9, 130, {}),
    "cgs22-wiped": ("cgs22", 40, 9, 96, {"overflow_cap": 14}),
}
CHUNK = 16
SEED = 3
REPS = 8

#: The session case: spec fields, and the edge feeds before the snapshot.
SESSION_SPEC = {"algorithm": "robust_lowrandom", "n": 40, "delta": 6,
                "seed": 5, "config": {"repetitions": REPS},
                "verify": "strict"}
SESSION_FEEDS = (0, 30, 60)


def case_edges(name):
    _, n, delta, _, _ = CASES[name]
    return near_regular_edge_array(n, delta, SEED)


def fresh(name):
    algorithm, n, delta, _, overrides = CASES[name]
    algo = CLASSES[algorithm](n, delta, seed=SEED, repetitions=REPS)
    for attr, value in overrides.items():
        setattr(algo, attr, value)
    return algo


def feed_blocks(algo, edges):
    for start in range(0, len(edges), CHUNK):
        algo.process_block(edges[start:start + CHUNK])


def session_edges():
    return near_regular_edge_array(SESSION_SPEC["n"], SESSION_SPEC["delta"],
                                   SESSION_SPEC["seed"])


async def run_session(path=None, record_to=None):
    """A session over :func:`session_edges`, fed in :data:`SESSION_FEEDS`
    parts; restored from ``path`` after the first two when given."""
    edges = session_edges().tolist()
    bounds = list(SESSION_FEEDS) + [len(edges)]
    manager = SessionManager()
    try:
        sid = None
        if path is None:
            sid = await manager.create(dict(SESSION_SPEC))
            for lo, hi in zip(bounds[:2], bounds[1:3]):
                await manager.feed(sid, edges[lo:hi])
            if record_to is not None:
                await manager.snapshot(sid, record_to)
                return None
        else:
            sid = await manager.adopt(path)
        await manager.feed(sid, edges[bounds[2]:])
        result = await manager.finalize(sid)
    finally:
        manager.close()
    result.pop("wall_time_s")
    result["extras"] = {k: v for k, v in result["extras"].items()
                        if k not in VOLATILE_EXTRAS}
    return result


def record(directory) -> None:
    """Write every case's checkpoint and the session snapshot to ``directory``."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, (_, _, _, cut, _) in CASES.items():
        algo = fresh(name)
        feed_blocks(algo, case_edges(name)[:cut])
        state = algo.state_dict()
        write_checkpoint(directory / f"{name}.ck",
                         {"class": state["class"], "state": state["state"]},
                         state["arrays"])
    asyncio.run(run_session(record_to=str(directory / "session.ck")))


@pytest.mark.parametrize("name", sorted(CASES))
def test_old_checkpoint_restores_and_finishes_as_uninterrupted(name):
    _, _, _, cut, _ = CASES[name]
    edges = case_edges(name)
    header, arrays = read_checkpoint(DATA / f"{name}.ck")
    restored = fresh(name)
    restored.load_state(header, arrays)
    reference = fresh(name)
    feed_blocks(reference, edges[:cut])
    assert same_sketches(restored, reference)
    # The rest of the stream, through both writers: a few scalar
    # insertions, then blocks.
    for algo in (reference, restored):
        for u, v in edges[cut:cut + 5].tolist():
            algo.process(u, v)
        feed_blocks(algo, edges[cut + 5:])
    assert same_sketches(restored, reference)
    assert list(restored.query().items()) == list(reference.query().items())


def same_sketches(a, b) -> bool:
    """Equal epoch, space meter, buffer and sketches ``D_{i, j}``.

    The sketch log of a converted checkpoint lists its rows sketch by
    sketch, not in discovery order, so the logs themselves may differ.
    """
    epochs, reps = a._coeffs.shape[:2]
    for i in range(1, epochs + 1):
        for j in range(reps):
            da, db = a.sketch_edges(i, j), b.sketch_edges(i, j)
            if (da is None) != (db is None):
                return False
            if da is not None and not (da.dtype == db.dtype
                                       and np.array_equal(da, db)):
                return False
    return (a._curr == b._curr and a.meter.report() == b.meter.report()
            and a._buffer.dtype == b._buffer.dtype
            and np.array_equal(a._buffer, b._buffer))


def test_case_checkpoints_cover_a_roll_and_a_wipe():
    """The files hold the list-based layout, one rolled B and one wiped
    sketch per algorithm."""
    for name, (algorithm, _, _, _, _) in CASES.items():
        header, _ = read_checkpoint(DATA / f"{name}.ck")
        state = header["state"]
        assert header["class"].endswith(CLASSES[algorithm].__name__)
        assert isinstance(state["_buffer"], list)
        assert (state["_curr"] > 1) == name.endswith("rolled"), name
        wiped = any(d is None for d_i in state["_d_sets"] for d in d_i)
        assert wiped == name.endswith("wiped"), name


def test_old_session_snapshot_restores_and_finishes_as_uninterrupted():
    restored = asyncio.run(run_session(path=str(DATA / "session.ck")))
    assert restored == asyncio.run(run_session())
    assert restored["proper"]


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/test_sketch_checkpoints.py DIR")
    record(sys.argv[1])
