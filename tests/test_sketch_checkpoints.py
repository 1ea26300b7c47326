"""Checkpoints of the sketch algorithms written by earlier code restore.

The files in ``tests/data/sketch_checkpoints/`` stand for checkpoints
already on disk, in layouts the code no longer writes:

- the ``robust_lowrandom-*`` and ``cgs22-*`` cases and ``session.ck``
  were recorded at commit 224be37, while Algorithm 3
  (``robust_lowrandom``) and the [CGS22] baseline (``cgs22``) still kept
  buffer B and every sketch ``D_{i, j}`` as a Python list of edge tuples
  (``None`` once wiped);
- the ``robust-*`` cases and ``robust-session.ck`` were recorded at
  commit 7200edd, while Algorithm 2 (``robust``) still kept every sketch
  ``A_i`` and ``C_l`` as an int64 edge array of its own.

Each ``<case>.ck`` is a ``REPROCK1`` file holding one algorithm's
``state_dict()`` taken part-way through the stream of its case in
:data:`CASES`; each session file is a half-fed
:class:`~repro.service.SessionManager` session snapshot of its spec in
:data:`SESSIONS`.  Every one must restore into today's classes and finish
exactly as the run that was never interrupted.  Never re-record them.

``python tests/test_sketch_checkpoints.py DIR`` writes the same files,
from the code it runs on, into ``DIR``.
"""

import asyncio
import pathlib
import sys

import numpy as np
import onepass_reference as reference
import pytest

from repro.baselines.cgs22 import SketchSwitchingQuadraticColoring
from repro.core.robust import RobustColoring
from repro.core.robust_lowrandom import LowRandomnessRobustColoring
from repro.graph.generators import near_regular_edge_array
from repro.persist import read_checkpoint, write_checkpoint
from repro.persist.driver import VOLATILE_EXTRAS
from repro.service import SessionManager

DATA = pathlib.Path(__file__).parent / "data" / "sketch_checkpoints"

CLASSES = {
    "cgs22": SketchSwitchingQuadraticColoring,
    "robust": RobustColoring,
    "robust_lowrandom": LowRandomnessRobustColoring,
}

#: name -> (algorithm, n, delta, edges fed before the checkpoint,
#: options).  Edges are ``near_regular_edge_array(n, delta, 3)``, fed in
#: blocks of :data:`CHUNK` edges, to an algorithm with seed 3.  A D-sketch
#: algorithm has :data:`REPS` repetitions and its options are attribute
#: overrides; ``robust``'s options are constructor keywords.
CASES = {
    "robust_lowrandom-mid": ("robust_lowrandom", 40, 6, 30, {}),
    "robust_lowrandom-rolled": ("robust_lowrandom", 40, 6, 90, {}),
    "robust_lowrandom-wiped": ("robust_lowrandom", 40, 6, 32,
                               {"overflow_cap": 4}),
    "cgs22-mid": ("cgs22", 40, 9, 60, {}),
    "cgs22-rolled": ("cgs22", 40, 9, 130, {}),
    "cgs22-wiped": ("cgs22", 40, 9, 96, {"overflow_cap": 14}),
    "robust-mid": ("robust", 40, 9, 30, {}),
    "robust-rolled": ("robust", 40, 9, 100, {}),
    "robust-beta-mid": ("robust", 40, 9, 60, {"beta": 0.5}),
    "robust-beta-rolled": ("robust", 40, 9, 150, {"beta": 0.5}),
}
CHUNK = 16
SEED = 3
REPS = 8

#: Session file -> spec fields.  Each session is fed
#: :data:`SESSION_FEEDS` before the snapshot.
SESSIONS = {
    "session.ck": {"algorithm": "robust_lowrandom", "n": 40, "delta": 6,
                   "seed": 5, "config": {"repetitions": REPS},
                   "verify": "strict"},
    "robust-session.ck": {"algorithm": "robust", "n": 40, "delta": 9,
                          "seed": 5, "verify": "strict"},
}
SESSION_FEEDS = (0, 30, 60)


def case_edges(name):
    _, n, delta, _, _ = CASES[name]
    return near_regular_edge_array(n, delta, SEED)


def fresh(name):
    algorithm, n, delta, _, options = CASES[name]
    if algorithm == "robust":
        return RobustColoring(n, delta, seed=SEED, **options)
    algo = CLASSES[algorithm](n, delta, seed=SEED, repetitions=REPS)
    for attr, value in options.items():
        setattr(algo, attr, value)
    return algo


def feed_blocks(algo, edges):
    for start in range(0, len(edges), CHUNK):
        algo.process_block(edges[start:start + CHUNK])


async def run_session(spec, path=None, record_to=None):
    """A session of ``spec`` over ``near_regular_edge_array(n, delta,
    seed)``, fed in :data:`SESSION_FEEDS` parts; restored from ``path``
    after the first two when given."""
    edges = near_regular_edge_array(spec["n"], spec["delta"],
                                    spec["seed"]).tolist()
    bounds = list(SESSION_FEEDS) + [len(edges)]
    manager = SessionManager()
    try:
        sid = None
        if path is None:
            sid = await manager.create(dict(spec))
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
    """Write every case's checkpoint and every session snapshot to
    ``directory``."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, (_, _, _, cut, _) in CASES.items():
        algo = fresh(name)
        feed_blocks(algo, case_edges(name)[:cut])
        state = algo.state_dict()
        write_checkpoint(directory / f"{name}.ck",
                         {"class": state["class"], "state": state["state"]},
                         state["arrays"])
    for file, spec in SESSIONS.items():
        asyncio.run(run_session(spec, record_to=str(directory / file)))


@pytest.mark.parametrize("name", sorted(CASES))
def test_old_checkpoint_restores_and_finishes_as_uninterrupted(name):
    _, _, _, cut, _ = CASES[name]
    edges = case_edges(name)
    header, arrays = read_checkpoint(DATA / f"{name}.ck")
    restored = fresh(name)
    restored.load_state(header, arrays)
    uninterrupted = fresh(name)
    feed_blocks(uninterrupted, edges[:cut])
    assert same_sketches(restored, uninterrupted)
    # The rest of the stream, through both writers: a few insertions
    # through the per-edge reference, then blocks.
    for algo in (uninterrupted, restored):
        reference.feed(algo, edges[cut:cut + 5])
        feed_blocks(algo, edges[cut + 5:])
    assert same_sketches(restored, uninterrupted)
    assert list(restored.query().items()) == list(uninterrupted.query().items())


def same_sketches(a, b) -> bool:
    """Equal epoch, space meter, buffer and sketches: ``D_{i, j}``, or
    ``robust``'s ``A_i`` and ``C_l`` and its degree counters.

    The sketch log of a converted checkpoint lists its rows sketch by
    sketch, not in discovery order, so the logs themselves may differ.
    """
    if isinstance(a, RobustColoring):
        return same_robust_sketches(a, b)
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


def same_robust_sketches(a, b) -> bool:
    p = a.params
    for family, count in (("A", p.num_epochs), ("C", p.num_levels)):
        for index in range(1, count + 1):
            sa, sb = a.sketch_edges(family, index), b.sketch_edges(family, index)
            if not (sa.dtype == sb.dtype and np.array_equal(sa, sb)):
                return False
    return (a._curr == b._curr and a.meter.report() == b.meter.report()
            and a.sketch_edge_count == b.sketch_edge_count
            and a._edges_seen == b._edges_seen
            and a._buffer.dtype == b._buffer.dtype
            and all(np.array_equal(x, y) for x, y in (
                (a._buffer, b._buffer), (a._degree, b._degree),
                (a._buffer_degree, b._buffer_degree),
            )))


def test_case_checkpoints_cover_a_roll_and_a_wipe():
    """The D-sketch files hold the list-based layout, one rolled B and one
    wiped sketch per algorithm."""
    for name, (algorithm, _, _, _, _) in CASES.items():
        if algorithm == "robust":
            continue
        header, _ = read_checkpoint(DATA / f"{name}.ck")
        state = header["state"]
        assert header["class"].endswith(CLASSES[algorithm].__name__)
        assert isinstance(state["_buffer"], list)
        assert (state["_curr"] > 1) == name.endswith("rolled"), name
        wiped = any(d is None for d_i in state["_d_sets"] for d in d_i)
        assert wiped == name.endswith("wiped"), name


def test_robust_checkpoints_hold_one_array_per_sketch():
    """The ``robust`` files hold one edge array per sketch, a rolled B
    where the name says so, and edges in several A sketches and in a C
    sketch."""
    for name, (algorithm, _, _, _, _) in CASES.items():
        if algorithm != "robust":
            continue
        header, arrays = read_checkpoint(DATA / f"{name}.ck")
        state = header["state"]
        assert header["class"].endswith(RobustColoring.__name__)
        assert (state["_curr"] > 1) == name.endswith("rolled"), name
        a_sizes, c_sizes = (
            [len(arrays[node["ref"]]) for node in state[sets]]
            for sets in ("_a_sets", "_c_sets")
        )
        assert sum(size > 0 for size in a_sizes) > 1, name
        assert sum(c_sizes) > 0 or name == "robust-mid", name


def test_old_session_snapshot_restores_and_finishes_as_uninterrupted():
    for file, spec in SESSIONS.items():
        restored = asyncio.run(run_session(spec, path=str(DATA / file)))
        assert restored == asyncio.run(run_session(spec)), file
        assert restored["proper"], file


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/test_sketch_checkpoints.py DIR")
    record(sys.argv[1])
