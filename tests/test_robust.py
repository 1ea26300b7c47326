"""Integration tests for Algorithm 2 (Theorem 3) and the Cor. 4.7 tradeoff."""

import hashlib
import json

import numpy as np
import onepass_reference as reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversaries import (
    ConflictSeekingAdversary,
    LevelAwareAdversary,
    RandomAdversary,
    StaticStreamAdversary,
    run_adversarial_game,
)
from repro.common.exceptions import ReproError
from repro.core.robust import RobustColoring, RobustParameters
from repro.engine import REGISTRY, RunSpec, run
from repro.graph.coloring import coloring_array, greedy_coloring, num_colors_used
from repro.graph.degeneracy import degeneracy_coloring
from repro.graph.generators import near_regular_edge_array, random_max_degree_graph
from repro.persist.codec import encode_value
from repro.streaming.blocks import append_rows
from repro.streaming.source import FileSource, write_edge_file
from repro.streaming.stream import TokenStream
from repro.streaming.tokens import edge_tokens


class TestParameters:
    def test_beta_zero_base_algorithm(self):
        p = RobustParameters.create(n=100, delta=16, beta=0.0)
        assert p.buffer_capacity == 100
        assert p.num_epochs == 16
        assert p.h_range == 256  # Delta^2
        assert p.fast_threshold == 4  # sqrt(Delta)
        assert p.num_levels == 4
        assert p.g_range == 64  # Delta^{3/2}

    def test_beta_half(self):
        p = RobustParameters.create(n=100, delta=16, beta=0.5)
        assert p.buffer_capacity == 400  # n * Delta^{1/2}
        assert p.num_epochs == 4  # Delta^{1/2}
        assert p.h_range == 16  # Delta^{2-1}
        assert p.fast_threshold == 8  # Delta^{3/4}

    def test_color_bound_shape(self):
        p0 = RobustParameters.create(100, 16, 0.0)
        p5 = RobustParameters.create(100, 16, 0.5)
        assert p0.color_bound == pytest.approx(16**2.5)
        assert p5.color_bound == pytest.approx(16**1.75)

    def test_invalid_beta(self):
        with pytest.raises(ReproError):
            RobustParameters.create(10, 4, beta=1.5)

    def test_invalid_delta(self):
        with pytest.raises(ReproError):
            RobustParameters.create(10, 0)


class TestStaticStreams:
    @pytest.mark.parametrize("beta", [0.0, 1 / 3, 0.5])
    def test_every_prefix_properly_colored(self, beta):
        n, delta = 60, 8
        g = random_max_degree_graph(n, delta, seed=41)
        algo = RobustColoring(n, delta, seed=42, beta=beta)
        adv = StaticStreamAdversary(g.edge_list())
        result = run_adversarial_game(algo, adv, n=n, delta=delta,
                                      rounds=g.m, query_every=7)
        assert result.clean

    def test_degree_promise_enforced(self):
        algo = RobustColoring(5, 1, seed=1)
        algo.process_block(np.array([[0, 1]]))
        with pytest.raises(ReproError):
            # vertex 0 already at degree Delta=1
            algo.process_block(np.array([[0, 2]]))

    def test_query_before_any_edge(self):
        algo = RobustColoring(10, 3, seed=2)
        coloring = algo.query()
        assert set(coloring) == set(range(10))

    def test_buffer_rollover_and_epochs(self):
        """More than buffer_capacity edges forces an epoch switch."""
        n, delta = 30, 12
        g = random_max_degree_graph(n, delta, seed=43)
        assert g.m > n  # ensures a rollover with buffer capacity n
        algo = RobustColoring(n, delta, seed=44)
        adv = StaticStreamAdversary(g.edge_list())
        result = run_adversarial_game(algo, adv, n=n, delta=delta,
                                      rounds=g.m, query_every=5)
        assert result.clean
        assert algo._curr >= 2  # buffer rolled at least once


class TestAdaptiveAdversaries:
    @pytest.mark.parametrize("adversary_cls", [
        ConflictSeekingAdversary, LevelAwareAdversary, RandomAdversary,
    ])
    def test_never_errs(self, adversary_cls):
        n, delta = 48, 9
        algo = RobustColoring(n, delta, seed=45)
        adv = adversary_cls(seed=46)
        result = run_adversarial_game(algo, adv, n=n, delta=delta,
                                      rounds=(n * delta) // 3)
        assert result.clean

    def test_beta_variants_never_err(self):
        n, delta = 40, 9
        for beta in (0.0, 1 / 3, 0.5):
            algo = RobustColoring(n, delta, seed=47, beta=beta)
            adv = ConflictSeekingAdversary(seed=48)
            result = run_adversarial_game(algo, adv, n=n, delta=delta,
                                          rounds=(n * delta) // 3,
                                          query_every=3)
            assert result.clean, f"beta={beta} errored"

    @given(st.integers(0, 10**6))
    @settings(max_examples=6, deadline=None)
    def test_property_random_seeds(self, seed):
        n, delta = 30, 6
        algo = RobustColoring(n, delta, seed=seed)
        adv = ConflictSeekingAdversary(seed=seed + 1)
        result = run_adversarial_game(algo, adv, n=n, delta=delta,
                                      rounds=n, query_every=2)
        assert result.clean


class TestAccounting:
    def test_random_bits_charged(self):
        algo = RobustColoring(50, 9, seed=49)
        # h: Delta functions to [D^2]; g: sqrt(D) functions to [D^{3/2}].
        assert algo.random_bits_used > 0
        assert algo.meter.random_bits == algo._oracle.bits_served

    def test_space_grows_with_buffer(self):
        algo = RobustColoring(50, 9, seed=50)
        before = algo.meter.current_bits
        algo.process_block(np.array([[0, 1]]))
        assert algo.meter.current_bits > before

    def test_sketch_edge_count(self):
        n, delta = 40, 8
        g = random_max_degree_graph(n, delta, seed=51)
        algo = RobustColoring(n, delta, seed=52)
        algo.process_block(np.asarray(g.edge_list()))
        assert algo.sketch_edge_count >= 0  # smoke: accessor works


# ----------------------------------------------------------------------
# the block path on arrays: pins, differentials and the snapshot contract
# ----------------------------------------------------------------------

def feed_blocks(algo, edges, chunk_size):
    for start in range(0, len(edges), chunk_size):
        algo.process_block(edges[start:start + chunk_size])


def reference_query(algo):
    """The per-block loop ``RobustColoring.query`` that arrays replaced.

    Slow ``h_curr`` blocks are greedy-colored on ``A_curr | B`` and fast
    ``g_l`` blocks degeneracy-colored on ``C_l | B``, one block at a time
    with fresh palettes; kept as the oracle for the vectorized query.
    """
    p = algo.params
    buffer = algo.buffer_edges().tolist()
    degree = algo._degree.tolist()
    coloring: dict[int, int] = {}
    next_free_color = 1
    fast = {
        v for v in range(algo.n)
        if algo._buffer_degree[v] > p.fast_threshold
    }
    h_curr = algo._h[min(algo._curr, p.num_epochs) - 1]
    a_curr = (
        algo.sketch_edges("A", algo._curr) if algo._curr <= p.num_epochs else []
    )
    zones = [(
        greedy_coloring,
        [v for v in range(algo.n) if v not in fast],
        h_curr,
        a_curr,
    )]
    for level in range(1, p.num_levels + 1):
        members = [
            v for v in fast
            if reference.level_of_degree(algo, degree[v]) == level
        ]
        zones.append((
            degeneracy_coloring, members, algo._g[level - 1],
            algo.sketch_edges("C", level),
        ))
    for color_block, members, function, sketch in zones:
        blocks: dict[int, list[int]] = {}
        block_of: dict[int, int] = {}
        for v in members:
            blocks.setdefault(function(v), []).append(v)
            block_of[v] = function(v)
        block_edges: dict[int, list] = {c: [] for c in blocks}
        for u, v in np.reshape(sketch, (-1, 2)).tolist() + buffer:
            bu = block_of.get(u)
            if bu is not None and bu == block_of.get(v):
                block_edges[bu].append((u, v))
        for c, block in sorted(blocks.items()):
            sub, index = algo._induced(block, block_edges[c])
            local = color_block(sub)
            for original, local_id in index.items():
                coloring[original] = next_free_color + local[local_id] - 1
            next_free_color += max(local.values(), default=0)
    return coloring


def same_state(a, b, skip=()):
    """Equal ``state_dict()`` trees and equal arrays (values and dtypes),
    apart from the state entries named in ``skip``."""
    sa, sb = a.state_dict(), b.state_dict()
    tree_a, tree_b = (
        {name: node for name, node in s["state"].items() if name not in skip}
        for s in (sa, sb)
    )
    assert tree_a == tree_b
    skipped = {sa["state"][name]["ref"] for name in skip}
    assert sa["arrays"].keys() == sb["arrays"].keys()
    for name, array in sa["arrays"].items():
        if name in skipped:
            continue
        other = sb["arrays"][name]
        assert array.dtype == other.dtype and np.array_equal(array, other), name


def sketches(algo):
    """``(family, index, rows)`` of every sketch ``A_i`` and ``C_l``."""
    p = algo.params
    for family, count in (("A", p.num_epochs), ("C", p.num_levels)):
        for index in range(1, count + 1):
            yield family, index, algo.sketch_edges(family, index)


#: The state entries of the two sketch logs.
SKETCH_LOGS = ("_a_edges", "_a_ids", "_c_edges", "_c_ids")


def same_sketches(a, b):
    """:func:`same_state`, with the sketch logs compared sketch by sketch:
    a converted checkpoint's log holds its rows sketch by sketch rather
    than in discovery order."""
    assert a.sketch_edge_count == b.sketch_edge_count
    for (family, index, rows), (_, _, other) in zip(sketches(a), sketches(b)):
        assert rows.dtype == other.dtype and np.array_equal(rows, other), (
            family, index,
        )
    same_state(a, b, skip=SKETCH_LOGS)


class TestGoldenBlockPath:
    """sha256 pins of the block path, recorded before it moved to arrays.

    The digest covers the coloring (its dict order, which adaptive
    adversaries iterate, and its values), ``peak_space_bits``,
    ``random_bits``, ``colors_used`` and ``sketch_edge_count``.
    """

    GOLDEN = {
        0.0: "da5da8490e3acd8c72913f723a423c726d5635e006fb5bdaab8ff257987bde48",
        0.5: "3f0cd08a5d9395299b3e0dfa1846354b5dea0eab8b184f0de3cdf13ce350be5c",
    }

    @pytest.mark.parametrize("beta", sorted(GOLDEN))
    def test_fingerprint(self, beta):
        n, delta = 2000, 24
        edges = near_regular_edge_array(n, delta, 5)
        algo = RobustColoring(n, delta, seed=5, beta=beta)
        feed_blocks(algo, edges, 512)
        coloring = algo.query()
        # Both zones are populated, so the degeneracy path is pinned too.
        fast = np.asarray(algo._buffer_degree) > algo.params.fast_threshold
        assert 0 < fast.sum() < n
        assert algo._curr > 1
        digest = hashlib.sha256()
        digest.update(np.asarray(list(coloring), dtype="<i8").tobytes())
        digest.update(coloring_array(n, coloring).astype("<i8").tobytes())
        digest.update(json.dumps([
            algo.peak_space_bits, algo.random_bits_used,
            num_colors_used(coloring), algo.sketch_edge_count,
        ]).encode())
        assert digest.hexdigest() == self.GOLDEN[beta]
        assert list(coloring.items()) == list(reference_query(algo).items())


class TestBlockMatchesScalar:
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    @given(
        seed=st.integers(0, 10**6),
        cuts=st.lists(st.integers(1, 40), min_size=1, max_size=12),
        violation=st.sampled_from([None, "degree", "loop"]),
    )
    @settings(deadline=None)
    def test_random_block_splits(self, beta, seed, cuts, violation):
        """process_block over any split == the per-edge reference, with
        query() between blocks; a violation mid-block raises the same
        error and leaves the same partial state."""
        n = 24
        graph = random_max_degree_graph(n, 6, seed=seed)
        delta = graph.max_degree()
        stream = graph.edge_list()
        if violation == "degree":
            u = max(range(n), key=graph.degree)  # at the degree cap
            bad = (u, (u + 1) % n)
        elif violation == "loop":
            u = min(range(n), key=graph.degree)
            bad = (u, u)
        if violation is not None:
            stream = stream + [bad] + stream[:5]
        edges = np.asarray(stream, dtype=np.int64)
        scalar = RobustColoring(n, delta, seed=seed, beta=beta)
        block = RobustColoring(n, delta, seed=seed, beta=beta)

        def scalar_loop(chunk):
            reference.feed(scalar, chunk)

        start, error = 0, None
        for size in cuts * (len(edges) // sum(cuts) + 1):
            chunk = edges[start:start + size]
            start += len(chunk)
            error = raised(scalar_loop, chunk)
            assert raised(block.process_block, chunk) == error
            if error is not None:
                break
            expected, actual = reference_query(scalar), block.query()
            assert list(expected.items()) == list(actual.items())
            assert list(scalar.query().items()) == list(actual.items())
        assert (error is None) == (violation is None)
        same_state(scalar, block)


def raised(feed, chunk):
    """The message of the ReproError ``feed(chunk)`` raises, or None."""
    try:
        feed(chunk)
    except ReproError as error:
        return str(error)
    return None


class TestQueryPools:
    def test_sketch_edges_count_only_in_their_own_pool(self):
        """Slow blocks see A_curr | B and level-l fast blocks C_l | B:
        an edge in another sketch joins no block's pool."""
        n, delta = 2000, 24
        algo = RobustColoring(n, delta, seed=5)
        feed_blocks(algo, near_regular_edge_array(n, delta, 5), 512)
        before = algo.query()
        key = algo._block_keys()
        p = algo.params
        fast_level = (key - p.h_range) // p.g_range + 1

        def same_colored_pair(fast):
            for u in range(n):
                for v in range(u + 1, n):
                    if key[u] == key[v] and before[u] == before[v] and (
                        (key[u] >= p.h_range) == fast
                    ):
                        return u, v
            raise AssertionError("no same-colored pair in one block")

        def plant(family, index, edge):
            if family == "A":
                algo._a_edges = append_rows(algo._a_edges, [edge])
                algo._a_ids = append_rows(algo._a_ids, [index])
            else:
                algo._c_edges = append_rows(algo._c_edges, [edge])
                algo._c_ids = append_rows(algo._c_ids, [index])
            assert algo.sketch_edges(family, index).tolist()[-1] == list(edge)

        u, v = same_colored_pair(fast=False)
        for level in range(1, p.num_levels + 1):
            plant("C", level, (u, v))
        u, v = same_colored_pair(fast=True)
        other = 1 + fast_level[u] % p.num_levels
        plant("A", algo._curr, (u, v))
        plant("C", other, (u, v))
        assert other != fast_level[u]
        after = algo.query()
        assert list(after.items()) == list(before.items())
        assert list(after.items()) == list(reference_query(algo).items())


class TestSnapshotContract:
    def test_chunk_size_does_not_change_state(self):
        """Equal state_dict() for chunk sizes 1, 7 and 4096 and for the
        per-edge reference, holding exactly the live rows of B and of the
        sketch logs (no spare capacity, no pre-roll rows)."""
        n, delta = 120, 8
        edges = near_regular_edge_array(n, delta, 3)[:301]
        algos = []
        for chunk_size in (1, 7, 4096, None):
            algo = RobustColoring(n, delta, seed=9)
            if chunk_size is None:
                reference.feed(algo, edges)
            else:
                feed_blocks(algo, edges, chunk_size)
            algos.append(algo)
        assert algos[0]._curr == 3  # B rolled twice
        for other in algos[1:]:
            same_state(algos[0], other)
        algo = algos[0]
        state = algo.state_dict()
        arrays, tree = state["arrays"], state["state"]
        buffer = arrays[tree["_buffer"]["ref"]]
        assert buffer.shape == (301 - 2 * n, 2)
        assert len(buffer) * algo._edge_bits == algo.meter.gauge("buffer B")
        assert np.array_equal(buffer, edges[2 * n:])
        for family in ("A", "C"):
            log, ids = (
                arrays[tree[f"_{family.lower()}_{name}"]["ref"]]
                for name in ("edges", "ids")
            )
            stored = sum(len(rows) for f, _, rows in sketches(algo) if f == family)
            assert 0 < len(log) == len(ids) == stored, family
            assert len(log) * algo._edge_bits == algo.meter.gauge(f"{family} sketches")
        view = algo.buffer_edges()
        assert not view.flags.writeable
        assert np.array_equal(view, buffer)

    def test_restored_state_keeps_appending(self):
        n, delta = 120, 8
        edges = near_regular_edge_array(n, delta, 3)
        reference = RobustColoring(n, delta, seed=9)
        feed_blocks(reference, edges, 64)
        restored = RobustColoring(n, delta, seed=9)
        feed_blocks(restored, edges[:150], 64)
        fresh = RobustColoring(n, delta, seed=9)
        fresh.load_state(restored.state_dict())
        feed_blocks(fresh, edges[150:], 64)
        same_state(reference, fresh)
        assert reference.query() == fresh.query()

    def test_list_state_of_older_checkpoints_restores(self):
        """A state tree written while the state was Python lists restores
        to the same arrays and then feeds like the uninterrupted run."""
        n, delta = 120, 8
        edges = near_regular_edge_array(n, delta, 3)
        uninterrupted = RobustColoring(n, delta, seed=9)
        feed_blocks(uninterrupted, edges[:150], 64)
        assert uninterrupted._curr > 1 and uninterrupted.sketch_edge_count > 0
        restored = RobustColoring(n, delta, seed=9)
        restored.load_state(list_state(uninterrupted))
        same_sketches(uninterrupted, restored)
        for algo in (uninterrupted, restored):
            reference.feed(algo, edges[150:200])
            feed_blocks(algo, edges[200:], 64)
        same_sketches(uninterrupted, restored)
        assert list(uninterrupted.query().items()) == list(restored.query().items())


def list_state(algo):
    """``algo``'s snapshot as the list-based code wrote it: the counters
    as lists of ints, B and each sketch ``A_i`` and ``C_l`` as lists of
    edge tuples, the sketches in ``_a_sets[i]`` and ``_c_sets[l]``."""
    snapshot = algo.state_dict()
    state, arrays = dict(snapshot["state"]), snapshot["arrays"]

    def edge_tuples(rows):
        # Tuples of ints hold no arrays, so the codec needs no array sink.
        return encode_value([tuple(edge) for edge in rows.tolist()], sink=None)

    p = algo.params
    state["_degree"] = arrays[state["_degree"]["ref"]].tolist()
    state["_buffer_degree"] = arrays[state["_buffer_degree"]["ref"]].tolist()
    state["_buffer"] = edge_tuples(algo.buffer_edges())
    state["_a_sets"] = [
        edge_tuples(algo.sketch_edges("A", i)) for i in range(p.num_epochs + 2)
    ]
    state["_c_sets"] = [
        edge_tuples(algo.sketch_edges("C", level))
        for level in range(p.num_levels + 2)
    ]
    for name in SKETCH_LOGS:
        del state[name]
    return {**snapshot, "state": state}


#: The bad edge inserted at stream index 4 of a path, the degree cap, and
#: the error it must raise.  The self-loop's delta leaves room for the
#: loop's two endpoint counts, so the loop is the first violation; at
#: delta 2 vertex 2 is full after (1, 2) and (2, 3).
VIOLATIONS = {
    "loop": ((3, 3), 4, r"self-loop \(3,3\) at stream index 4$"),
    "degree": (
        (2, 5), 2,
        r"edge \(2,5\) at stream index 4 exceeds the promised max degree 2$",
    ),
}


class TestSelfLoops:
    @pytest.mark.parametrize("violation", sorted(VIOLATIONS))
    @pytest.mark.parametrize("backend", ["tokens", "materialized", "file"])
    @pytest.mark.parametrize("chunk_size", [1, 3, 4096])
    def test_loop_named_at_its_stream_index(self, backend, chunk_size,
                                            violation, tmp_path):
        bad, delta, message = VIOLATIONS[violation]
        n = 8
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]
        stream_edges = edges[:4] + [bad] + edges[4:]
        tokens = TokenStream(edge_tokens(stream_edges), n)
        if backend == "tokens":
            stream = tokens
        elif backend == "materialized":
            stream = tokens.as_source(chunk_size)
        else:
            path = tmp_path / "loop.bin"
            write_edge_file(path, n, np.asarray(stream_edges, dtype=np.int64))
            stream = FileSource(path, chunk_size=chunk_size)
        spec = RunSpec(algorithm="robust", n=n, delta=delta, seed=1)
        with pytest.raises(ReproError, match=message):
            run(spec, stream)
        if backend == "file":
            stream.close()

    def test_one_edge_block_rejects_before_any_state_change(self):
        algo = RobustColoring(5, 2, seed=1)
        algo.process_block(np.array([[0, 1]]))
        with pytest.raises(ReproError, match=r"self-loop \(2,2\) at stream index 1"):
            algo.process_block(np.array([[2, 2]]))
        fed_once = RobustColoring(5, 2, seed=1)
        fed_once.process_block(np.array([[0, 1]]))
        same_state(algo, fed_once)


class TestRobustExtras:
    def test_sketch_max_vertex_degree_matches_loop(self):
        n, delta = 300, 12
        algo = RobustColoring(n, delta, seed=4)
        feed_blocks(algo, near_regular_edge_array(n, delta, 4), 256)
        per_vertex = [0] * n
        for _, _, edge_set in sketches(algo):
            for u, v in edge_set.tolist():
                per_vertex[u] += 1
                per_vertex[v] += 1
        extras = REGISTRY.get("robust").collect_extras(algo)
        assert algo.sketch_edge_count > 0
        assert extras["sketch_max_vertex_degree"] == max(per_vertex)
