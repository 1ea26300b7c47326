"""The D-sketch block path shared by Algorithm 3 and the [CGS22] baseline.

Both classes replay blocks through
:func:`repro.streaming.blocks.sketch_process_block` and read their hash
values from one vertex-major table.  These tests pin the block path's
outputs, drive it through sketch wipes against the per-edge reference
(``tests/onepass_reference.py``), check that the snapshot state does not
depend on how the stream was cut into blocks, and check that a self-loop
is rejected at its own stream index.  One more test checks that this
block path and Algorithm 2's leave ``numpy.ma`` unimported.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import onepass_reference as reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.baselines.cgs22 import SketchSwitchingQuadraticColoring
from repro.common.exceptions import ReproError
from repro.core.robust_lowrandom import LowRandomnessRobustColoring
from repro.engine import RunSpec, run
from repro.graph.coloring import coloring_array, num_colors_used
from repro.graph.generators import near_regular_edge_array
from repro.streaming.source import FileSource, write_edge_file
from repro.streaming.stream import TokenStream
from repro.streaming.tokens import edge_tokens

CLASSES = {
    "cgs22": SketchSwitchingQuadraticColoring,
    "robust_lowrandom": LowRandomnessRobustColoring,
}


def feed_blocks(algo, edges, chunk_size):
    for start in range(0, len(edges), chunk_size):
        algo.process_block(edges[start:start + chunk_size])


def sketches(algo):
    """Every ``D_{i, j}`` by epoch ``i``: its edges as a list, or None."""
    epochs, reps = algo._coeffs.shape[:2]
    return [
        [None if d is None else d.tolist()
         for d in (algo.sketch_edges(i, j) for j in range(reps))]
        for i in range(1, epochs + 1)
    ]


def survivors(algo):
    """How many sketches ``D_{i, j}`` of each epoch ``i`` are still valid."""
    return [sum(d is not None for d in d_i) for d_i in sketches(algo)]


def sketch_state(algo):
    """The state both paths must evolve identically."""
    return (sketches(algo), algo._buffer.tolist(), algo._curr,
            algo.meter.report())


def same_state(a, b):
    """Equal ``state_dict()`` trees and equal arrays (values and dtypes)."""
    sa, sb = a.state_dict(), b.state_dict()
    assert sa["state"] == sb["state"]
    assert sa["arrays"].keys() == sb["arrays"].keys()
    for name, array in sa["arrays"].items():
        other = sb["arrays"][name]
        assert array.dtype == other.dtype and np.array_equal(array, other), name


def raised(feed, chunk):
    """The message of the ReproError ``feed(chunk)`` raises, or None."""
    try:
        feed(chunk)
    except ReproError as error:
        return str(error)
    return None


def random_edges(rng, n, k):
    """(k, 2) int64 edges with distinct endpoints, repeats allowed."""
    us = rng.integers(0, n, size=k, dtype=np.int64)
    vs = (us + rng.integers(1, n, size=k, dtype=np.int64)) % n
    return np.stack([us, vs], axis=1)


class TestGoldenBlockPath:
    """sha256 pins recorded before the block path moved to the narrow table.

    The digest covers the coloring (its dict order and its values),
    ``peak_space_bits``, ``random_bits``, ``colors_used`` and the
    surviving sketches per epoch.  A lowered ``overflow_cap`` pins the
    wipe path too.
    """

    GOLDEN = {
        ("cgs22", None): "ac519396bbb1882d49de9edab10bdbf4cbca95b71b759354b9e2b0ab7d0c5ce0",
        ("cgs22", 300): "9933b7f665e6fe37ee37192cf96e24ff3fa8b693248068f84e0a49ccecafc6de",
        ("robust_lowrandom", None): "083d0f62a0f1fa58043f28114347f3827e5ad08895853950af1cb68ec819a9b0",
        ("robust_lowrandom", 40): "788b2cafd66b2aa89a58b0c3f07eb73b078423a90bb198fa4271c25dd8cb609a",
    }

    @pytest.mark.parametrize("algorithm,cap", list(GOLDEN))
    def test_fingerprint(self, algorithm, cap):
        n, delta = 600, 12
        edges = near_regular_edge_array(n, delta, 3)
        algo = CLASSES[algorithm](n, delta, seed=3)
        if cap is not None:
            algo.overflow_cap = cap
        feed_blocks(algo, edges, 256)
        coloring = algo.query()
        alive = survivors(algo)
        assert algo._curr > 1
        assert (min(alive) < algo.repetitions) == (cap is not None)
        digest = hashlib.sha256()
        digest.update(np.asarray(list(coloring), dtype="<i8").tobytes())
        digest.update(coloring_array(n, coloring).astype("<i8").tobytes())
        digest.update(json.dumps([
            algo.peak_space_bits, algo.random_bits_used,
            num_colors_used(coloring), alive,
        ]).encode())
        assert digest.hexdigest() == self.GOLDEN[(algorithm, cap)]


class TestWipes:
    @pytest.mark.parametrize("algorithm", sorted(CLASSES))
    @given(
        seed=st.integers(0, 10**6),
        delta=st.sampled_from([2, 4, 6]),
        cap=st.integers(0, 3),
        cuts=st.lists(st.integers(1, 40), min_size=1, max_size=12),
        loop_at=st.one_of(st.none(), st.integers(0, 99)),
    )
    @settings(deadline=None)
    def test_random_block_splits(self, algorithm, seed, delta, cap, cuts,
                                 loop_at):
        """process_block over any split == the per-edge reference, with
        sketches wiping mid-block; a self-loop raises the same error and
        leaves the same partial state."""
        n = 12
        edges = random_edges(np.random.default_rng(seed), n, 100)
        if loop_at is not None:
            edges[loop_at] = (5, 5)
        cls = CLASSES[algorithm]
        scalar = cls(n, delta, seed=seed, repetitions=3)
        block = cls(n, delta, seed=seed, repetitions=3)
        scalar.overflow_cap = block.overflow_cap = cap

        def scalar_loop(chunk):
            reference.feed(scalar, chunk)

        start, error = 0, None
        for size in cuts * (len(edges) // sum(cuts) + 1):
            chunk = edges[start:start + size]
            start += len(chunk)
            error = raised(scalar_loop, chunk)
            assert raised(block.process_block, chunk) == error
            assert sketch_state(block) == sketch_state(scalar)
            same_state(block, scalar)
            if error is not None:
                break
        assert (error is None) == (loop_at is None)

    @pytest.mark.parametrize("algorithm", sorted(CLASSES))
    def test_one_block_appends_and_wipes(self, algorithm):
        """A single block fills some sketches past the cap and leaves
        others alive, exactly as the per-edge reference does."""
        n, delta = 12, 4
        edges = random_edges(np.random.default_rng(7), n, 60)
        cls = CLASSES[algorithm]
        scalar = cls(n, delta, seed=7, repetitions=4)
        block = cls(n, delta, seed=7, repetitions=4)
        scalar.overflow_cap = block.overflow_cap = 2
        reference.feed(scalar, edges)
        block.process_block(edges)
        assert sketch_state(block) == sketch_state(scalar)
        all_sketches = [d for d_i in sketches(block) for d in d_i]
        assert any(d is None for d in all_sketches)
        assert any(d for d in all_sketches)

    @pytest.mark.parametrize("algorithm", sorted(CLASSES))
    def test_cap_lowered_below_a_sketch_wipes_it_on_its_next_event(
            self, algorithm):
        n, delta = 40, 4
        edges = random_edges(np.random.default_rng(8), n, 60)
        cls = CLASSES[algorithm]
        scalar = cls(n, delta, seed=8, repetitions=4)
        block = cls(n, delta, seed=8, repetitions=4)
        reference.feed(scalar, edges[:30])
        block.process_block(edges[:30])
        assert block._curr == 1
        assert max(len(d) for d in sketches(block)[1]) > 1
        scalar.overflow_cap = block.overflow_cap = 1
        reference.feed(scalar, edges[30:])
        block.process_block(edges[30:])
        assert sketch_state(block) == sketch_state(scalar)
        assert None in sketches(block)[1]


class TestSnapshotContract:
    @pytest.mark.parametrize("algorithm", sorted(CLASSES))
    def test_chunk_size_does_not_change_state(self, algorithm):
        """Equal state_dict() for chunk sizes 1, 7 and 4096 and for the
        per-edge reference, with B rolled and sketches wiped on the way; it
        holds exactly the live rows of B and of the sketch log."""
        n, delta = 60, 8
        edges = random_edges(np.random.default_rng(9), n, 301)
        cls = CLASSES[algorithm]
        algos = []
        for chunk_size in (1, 7, 4096, None):
            algo = cls(n, delta, seed=9, repetitions=8)
            algo.overflow_cap = {"cgs22": 26, "robust_lowrandom": 4}[algorithm]
            if chunk_size is None:
                reference.feed(algo, edges)
            else:
                feed_blocks(algo, edges, chunk_size)
            algos.append(algo)
        algo = algos[0]
        alive = survivors(algo)
        assert algo._curr > 1  # B rolled
        # Some epoch lost sketches and kept others.
        assert any(0 < alive_i < algo.repetitions for alive_i in alive)
        for other in algos[1:]:
            same_state(algo, other)
        state = algo.state_dict()
        arrays, tree = state["arrays"], state["state"]
        buffer = arrays[tree["_buffer"]["ref"]]
        rolled = (algo._curr - 1) * algo.buffer_capacity
        assert np.array_equal(buffer, edges[rolled:])
        assert len(buffer) * algo._edge_bits == algo.meter.gauge("buffer B")
        log = arrays[tree["_d_edges"]["ref"]]
        assert len(log) == len(arrays[tree["_d_ids"]["ref"]])
        assert len(log) == sum(len(d) for d_i in sketches(algo) for d in d_i
                               if d is not None)
        assert len(log) * algo._edge_bits == algo.meter.gauge("D sketches")
        assert log.dtype == buffer.dtype == np.uint8


class TestSelfLoops:
    @pytest.mark.parametrize("algorithm", sorted(CLASSES))
    @pytest.mark.parametrize("backend", ["tokens", "materialized", "file"])
    @pytest.mark.parametrize("chunk_size", [1, 3, 4096])
    def test_loop_named_at_its_stream_index(self, algorithm, backend,
                                            chunk_size, tmp_path):
        n, delta = 8, 4
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]
        stream_edges = edges[:4] + [(3, 3)] + edges[4:]
        tokens = TokenStream(edge_tokens(stream_edges), n)
        if backend == "tokens":
            stream = tokens
        elif backend == "materialized":
            stream = tokens.as_source(chunk_size)
        else:
            path = tmp_path / "loop.bin"
            write_edge_file(path, n, np.asarray(stream_edges, dtype=np.int64))
            stream = FileSource(path, chunk_size=chunk_size)
        spec = RunSpec(algorithm=algorithm, n=n, delta=delta, seed=1)
        with pytest.raises(ReproError, match=r"self-loop \(3,3\) at stream index 4$"):
            run(spec, stream)
        if backend == "file":
            stream.close()

    @pytest.mark.parametrize("algorithm", sorted(CLASSES))
    def test_index_counts_across_buffer_rolls(self, algorithm):
        n, delta = 6, 4
        edges = random_edges(np.random.default_rng(3), n, 41)
        algo = CLASSES[algorithm](n, delta, seed=1)
        fed = CLASSES[algorithm](n, delta, seed=1)
        feed_blocks(algo, edges, 1)
        feed_blocks(fed, edges, 1)
        assert algo._curr > 2  # the buffer rolled more than once
        with pytest.raises(ReproError, match=r"self-loop \(2,2\) at stream index 41$"):
            algo.process_block(np.array([[2, 2]]))
        # Rejected before any state change.
        same_state(algo, fed)


#: Runs ``robust`` and ``robust_lowrandom`` on a block source, then
#: prints whether ``numpy.ma`` was imported.
NO_MA_SCRIPT = """
import sys
from repro.engine import RunSpec, run
from repro.graph.generators import near_regular_edge_array
from repro.streaming.stream import TokenStream
from repro.streaming.tokens import edge_tokens

n, delta = 200, 6
edges = near_regular_edge_array(n, delta, 1).tolist()
for algorithm in ("robust", "robust_lowrandom"):
    spec = RunSpec(algorithm=algorithm, n=n, delta=delta, seed=1)
    assert run(spec, TokenStream(edge_tokens(edges), n).as_source(64)).proper
print("numpy.ma" in sys.modules)
"""


def test_sketch_block_paths_leave_numpy_ma_unimported():
    """Plain ``np.unique`` imports ``numpy.ma`` on numpy 2.x, about
    0.7 MB in every process; the block paths use ``sorted_distinct``."""
    src = str(pathlib.Path(repro.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src if not path else os.pathsep.join((src, path))}
    out = subprocess.run([sys.executable, "-c", NO_MA_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    assert out.stdout.split() == ["False"]
