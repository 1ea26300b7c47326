"""Tests for the sharded edge container (repro.streaming.sharded).

Covers the writer's layout/atomicity guarantees, manifest validation,
ShardedFileSource's bit-identity with FileSource (blocks, cursors,
resume offsets), the engine's ``sharded_file`` backend, out-of-core zoo
writers, and the suspend/restore differential across shard boundaries.
"""

import json
import os

import numpy as np
import pytest

from repro.common.exceptions import (
    EdgeFileError,
    ReproError,
    StreamProtocolError,
)
from repro.engine import RunSpec, resume, run
from repro.graph.zoo import (
    ZOO_FAMILIES,
    arrange_edges,
    circulant_edge_blocks,
    circulant_edges,
    workload_edges,
    write_zoo_shards,
    zoo_degrees,
)
from repro.persist import ResumableRun, strip_volatile
from repro.streaming import (
    FileSource,
    ShardedFileSource,
    read_shard_manifest,
    verify_shard_checksums,
    write_edge_file,
    write_sharded_edge_file,
)
from repro.streaming.sharded import MANIFEST_NAME


def small_edges(m=37, n=16, seed=7):
    """A deterministic loop-free (m, 2) int64 edge array, endpoints in [0, n)."""
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, size=m, dtype=np.int64)
    v = (u + rng.integers(1, n, size=m, dtype=np.int64)) % n
    return np.stack([u, v], axis=1), n


def collect_blocks(source):
    return [b for b in source.new_pass() if isinstance(b, np.ndarray)]


def collect_edges(source):
    blocks = collect_blocks(source)
    if not blocks:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(blocks)


# ----------------------------------------------------------------------
# writer
# ----------------------------------------------------------------------

class TestWriteShardedEdgeFile:
    def test_round_trip_and_layout(self, tmp_path):
        edges, n = small_edges()
        path = tmp_path / "c.shards"
        manifest = write_sharded_edge_file(path, n, edges, shard_rows=10)
        assert manifest["magic"] == "REPROED2"
        assert manifest["n"] == n and manifest["m"] == len(edges)
        assert [s["rows"] for s in manifest["shards"]] == [10, 10, 10, 7]
        assert [s["row_start"] for s in manifest["shards"]] == [0, 10, 20, 30]
        assert manifest["max_degree"] == int(zoo_degrees(n, edges).max())
        assert np.array_equal(collect_edges(ShardedFileSource(path)), edges)

    def test_shard_payloads_concatenate_to_single_file(self, tmp_path):
        edges, n = small_edges()
        container = tmp_path / "c.shards"
        single = tmp_path / "single.bin"
        manifest = write_sharded_edge_file(container, n, edges, shard_rows=8)
        write_edge_file(single, n, edges)
        payload = b"".join(
            (container / s["name"]).read_bytes()[24:]
            for s in manifest["shards"]
        )
        assert payload == single.read_bytes()[24:]

    def test_accepts_pair_and_block_iterables(self, tmp_path):
        edges, n = small_edges(m=9)
        a = write_sharded_edge_file(
            tmp_path / "a", n, (tuple(r) for r in edges.tolist()), shard_rows=4
        )
        b = write_sharded_edge_file(
            tmp_path / "b", n, iter([edges[:5], edges[5:]]), shard_rows=4
        )
        assert a["m"] == b["m"] == 9
        assert [s["sha256"] for s in a["shards"]] == [
            s["sha256"] for s in b["shards"]
        ]

    def test_empty_container(self, tmp_path):
        manifest = write_sharded_edge_file(tmp_path / "e", 4, [])
        assert manifest["m"] == 0 and manifest["shards"] == []
        source = ShardedFileSource(tmp_path / "e")
        assert source.edge_count() == 0
        assert collect_blocks(source) == []

    def test_untracked_degrees_fall_back_to_stats_sweep(self, tmp_path):
        edges, n = small_edges()
        manifest = write_sharded_edge_file(
            tmp_path / "c", n, edges, track_degrees=False
        )
        assert "max_degree" not in manifest
        source = ShardedFileSource(tmp_path / "c")
        assert source.max_degree() == int(zoo_degrees(n, edges).max())

    def test_refuses_to_overwrite_a_container(self, tmp_path):
        edges, n = small_edges(m=4)
        write_sharded_edge_file(tmp_path / "c", n, edges)
        with pytest.raises(EdgeFileError, match="refusing to overwrite"):
            write_sharded_edge_file(tmp_path / "c", n, edges)

    def test_rejects_out_of_range_endpoints(self, tmp_path):
        with pytest.raises(StreamProtocolError, match="out of range"):
            write_sharded_edge_file(tmp_path / "c", 2, [(0, 1), (1, 5)])
        assert not (tmp_path / "c" / MANIFEST_NAME).exists()

    def test_crash_mid_stream_leaves_no_container(self, tmp_path):
        def dying():
            yield from [(0, 1)] * 25
            raise RuntimeError("writer killed mid-stream")

        path = tmp_path / "torn.shards"
        with pytest.raises(RuntimeError, match="killed"):
            write_sharded_edge_file(path, 2, dying(), shard_rows=10)
        # No manifest, no finished shards, no temp files: nothing parses.
        assert list(path.iterdir()) == []
        with pytest.raises(EdgeFileError, match="not a sharded edge container"):
            ShardedFileSource(path)


# ----------------------------------------------------------------------
# manifest validation
# ----------------------------------------------------------------------

class TestReadShardManifest:
    @pytest.fixture
    def container(self, tmp_path):
        edges, n = small_edges()
        path = tmp_path / "c.shards"
        write_sharded_edge_file(path, n, edges, shard_rows=10)
        return path

    def _edit(self, path, mutate):
        manifest_path = path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        mutate(manifest)
        manifest_path.write_text(json.dumps(manifest))

    def test_missing_directory(self, tmp_path):
        with pytest.raises(EdgeFileError, match="not a sharded edge container"):
            read_shard_manifest(tmp_path / "nope")

    def test_plain_file_is_not_a_container(self, tmp_path):
        target = tmp_path / "flat.bin"
        write_edge_file(target, 3, [(0, 1)])
        with pytest.raises(EdgeFileError, match="not a sharded edge container"):
            read_shard_manifest(target)

    def test_corrupt_manifest_json(self, container):
        (container / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(EdgeFileError):
            read_shard_manifest(container)

    def test_wrong_magic(self, container):
        self._edit(container, lambda m: m.update(magic="REPROED9"))
        with pytest.raises(EdgeFileError, match="magic"):
            read_shard_manifest(container)

    def test_wrong_version(self, container):
        self._edit(container, lambda m: m.update(version=99))
        with pytest.raises(EdgeFileError, match="version"):
            read_shard_manifest(container)

    def test_missing_shard_file(self, container):
        manifest = read_shard_manifest(container)
        os.unlink(container / manifest["shards"][1]["name"])
        with pytest.raises(EdgeFileError):
            read_shard_manifest(container)

    def test_shard_name_may_not_escape_the_directory(self, container):
        def mutate(m):
            m["shards"][0]["name"] = "../evil.ed1"

        self._edit(container, mutate)
        with pytest.raises(EdgeFileError, match="name"):
            read_shard_manifest(container)

    def test_row_tiling_violation(self, container):
        def mutate(m):
            m["shards"][1]["row_start"] += 1

        self._edit(container, mutate)
        with pytest.raises(EdgeFileError):
            read_shard_manifest(container)

    def test_truncated_shard_payload(self, container):
        manifest = read_shard_manifest(container)
        shard = container / manifest["shards"][0]["name"]
        shard.write_bytes(shard.read_bytes()[:-16])
        with pytest.raises(EdgeFileError):
            read_shard_manifest(container)

    def test_trailing_garbage_in_shard(self, container):
        manifest = read_shard_manifest(container)
        shard = container / manifest["shards"][0]["name"]
        shard.write_bytes(shard.read_bytes() + b"\x00" * 16)
        with pytest.raises(EdgeFileError):
            read_shard_manifest(container)

    def test_checksum_flip_is_caught_by_verify(self, container):
        # Structural checks pass (same length), only the deep verify sees it.
        manifest = read_shard_manifest(container)
        shard = container / manifest["shards"][2]["name"]
        data = bytearray(shard.read_bytes())
        data[-1] ^= 0x01
        shard.write_bytes(bytes(data))
        read_shard_manifest(container)  # structural: still fine
        with pytest.raises(EdgeFileError, match="checksum mismatch"):
            verify_shard_checksums(container)

    def test_verify_passes_on_a_clean_container(self, container):
        assert verify_shard_checksums(container)["m"] == 37


# ----------------------------------------------------------------------
# source semantics: bit-identity with FileSource
# ----------------------------------------------------------------------

class TestShardedFileSource:
    @pytest.fixture
    def pair(self, tmp_path):
        edges, n = small_edges(m=53, n=20)
        container = tmp_path / "c.shards"
        single = tmp_path / "single.bin"
        write_sharded_edge_file(container, n, edges, shard_rows=9)
        write_edge_file(single, n, edges)
        return container, single

    @pytest.mark.parametrize("chunk_size", [1, 3, 9, 10, 27, 53, 1000])
    def test_blocks_identical_to_file_source(self, pair, chunk_size):
        container, single = pair
        sharded = collect_blocks(ShardedFileSource(container, chunk_size))
        flat = collect_blocks(FileSource(single, chunk_size=chunk_size))
        assert len(sharded) == len(flat)
        for a, b in zip(sharded, flat):
            assert np.array_equal(a, b)
            assert not a.flags.writeable

    @pytest.mark.parametrize("chunk_size", [1, 4, 9, 16])
    def test_resume_offsets_identical_to_file_source(self, pair, chunk_size):
        container, single = pair
        total = -(-53 // chunk_size)
        for offset in range(total + 1):
            a = list(ShardedFileSource(container, chunk_size).resume_pass(offset))
            b = list(FileSource(single, chunk_size=chunk_size).resume_pass(offset))
            assert len(a) == len(b)
            for x, y in zip(a, b):
                assert np.array_equal(x, y)

    def test_stats_come_from_the_manifest(self, pair):
        container, _ = pair
        source = ShardedFileSource(container)
        assert source.edge_count() == 53
        assert source.max_degree() == source.manifest["max_degree"]
        assert source.passes_used == 0  # no stats sweep happened

    def test_tell_seek_cursor_round_trip(self, pair):
        container, _ = pair
        source = ShardedFileSource(container, chunk_size=8)
        list(source.new_pass())
        cursor = source.tell()
        fresh = ShardedFileSource(container, chunk_size=8)
        fresh.seek(cursor)
        assert fresh.passes_used == source.passes_used == 1

    def test_closed_source_refuses_passes(self, pair):
        container, _ = pair
        source = ShardedFileSource(container)
        source.close()
        with pytest.raises(StreamProtocolError, match="closed"):
            list(source.new_pass())

    def test_shard_shrinking_under_the_reader_is_detected(self, pair):
        container, _ = pair
        source = ShardedFileSource(container, chunk_size=8)
        shard = container / source.manifest["shards"][3]["name"]
        items = source.new_pass()
        next(items)  # open the sweep before the file changes
        shard.write_bytes(shard.read_bytes()[:24])
        with pytest.raises(EdgeFileError, match="shrank"):
            list(items)

    def test_negative_resume_offset_rejected(self, pair):
        container, _ = pair
        with pytest.raises(StreamProtocolError, match=">= 0"):
            list(ShardedFileSource(container).resume_pass(-1))


# ----------------------------------------------------------------------
# engine backend + suspend/restore across shard boundaries
# ----------------------------------------------------------------------

def zoo_spec(algorithm, chunk_size, backend, n=48, seed=3, **overrides):
    from repro.streaming.workloads import workload_stats

    n_actual, delta, _ = workload_stats("power_law", n, seed)
    base = dict(
        algorithm=algorithm, n=n_actual, delta=max(1, delta), seed=seed,
        graph_seed=seed, stream_backend=backend, chunk_size=chunk_size,
        keep_coloring=True, validate=algorithm != "naive",
        verify=algorithm != "naive",
    )
    base.update(overrides)
    return RunSpec(**base)


def checkpoint_sweep(spec, path, stream=None):
    """Run with a checkpoint at every block; return the snapshot bytes."""
    import repro.persist.driver as driver_mod

    copies = []
    original = driver_mod.write_checkpoint

    def capture(p, header, arrays):
        original(p, header, arrays)
        with open(p, "rb") as fh:
            copies.append(fh.read())

    driver_mod.write_checkpoint = capture
    try:
        driver = ResumableRun(spec, stream=stream)
        driver.run_to_completion(checkpoint_every=1, checkpoint_path=path)
        driver.close()
    finally:
        driver_mod.write_checkpoint = original
    return copies


class TestEngineShardedBackend:
    @pytest.mark.parametrize("algorithm", ["naive", "robust", "cgs22"])
    def test_matches_file_backend_bit_for_bit(self, algorithm):
        sharded = strip_volatile(run(zoo_spec(algorithm, 7, "sharded_file")))
        flat = strip_volatile(run(zoo_spec(algorithm, 7, "file")))
        assert sharded["extras"].pop("stream_backend") == "sharded_file"
        assert flat["extras"].pop("stream_backend") == "file"
        assert sharded == flat

    def test_backend_is_listed(self):
        from repro.engine.runner import STREAM_BACKENDS

        assert "sharded_file" in STREAM_BACKENDS


class TestShardBoundarySuspendRestore:
    """Suspend at every block boundary of a sharded run; restore must be
    bit-identical whether the cursor landed on a shard seam or mid-shard."""

    @pytest.mark.parametrize("algorithm", ["naive", "robust", "cgs22"])
    def test_every_boundary_over_engine_backend(self, algorithm, tmp_path):
        # Engine backend shards into 4; chunk_size 5 puts most checkpoints
        # mid-shard and several exactly on shard seams.
        spec = zoo_spec(algorithm, 5, "sharded_file")
        reference = run(spec)
        path = str(tmp_path / "run.ck")
        copies = checkpoint_sweep(spec, path)
        assert len(copies) > 4, "sweep produced too few suspend points"
        for index in range(len(copies)):
            with open(path, "wb") as fh:
                fh.write(copies[index])
            restored = resume(path)
            assert restored.extras["resumed"] is True
            assert strip_volatile(restored) == strip_volatile(reference)

    def test_every_boundary_over_external_container(self, tmp_path):
        # chunk_size 4 vs shard_rows 12: suspend points at rows 4, 8,
        # 12 (seam), 16, ... — both seam and mid-shard cursors covered.
        edges, n = small_edges(m=60, n=24, seed=5)
        container = tmp_path / "c.shards"
        write_sharded_edge_file(container, n, edges, shard_rows=12)
        delta = max(1, int(zoo_degrees(n, edges).max()))
        spec = RunSpec(
            algorithm="robust", n=n, delta=delta, seed=3, chunk_size=4,
            keep_coloring=True, validate=True, verify=True,
        )
        reference = run(spec, stream=ShardedFileSource(container, 4))
        path = str(tmp_path / "run.ck")
        copies = checkpoint_sweep(
            spec, path, stream=ShardedFileSource(container, 4)
        )
        assert len(copies) >= 60 // 4
        for index in range(len(copies)):
            with open(path, "wb") as fh:
                fh.write(copies[index])
            restored = resume(path, stream=ShardedFileSource(container, 4))
            assert strip_volatile(restored) == strip_volatile(reference)


# ----------------------------------------------------------------------
# hypothesis fuzz: (shard size, chunk size, suspend point)
# ----------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(deadline=None, max_examples=25)
@given(
    shard_rows=st.integers(min_value=1, max_value=17),
    chunk_size=st.integers(min_value=1, max_value=11),
    suspend=st.integers(min_value=0, max_value=10**6),
)
def test_fuzz_sharded_suspend_restore(shard_rows, chunk_size, suspend,
                                      tmp_path_factory):
    edges, n = small_edges(m=41, n=14, seed=9)
    tmp_path = tmp_path_factory.mktemp("fuzz")
    container = tmp_path / "c.shards"
    write_sharded_edge_file(container, n, edges, shard_rows=shard_rows)
    delta = max(1, int(zoo_degrees(n, edges).max()))
    spec = RunSpec(
        algorithm="naive", n=n, delta=delta, seed=3, chunk_size=chunk_size,
        keep_coloring=True,
    )
    reference = run(spec, stream=ShardedFileSource(container, chunk_size))
    path = str(tmp_path / "run.ck")
    copies = checkpoint_sweep(
        spec, path, stream=ShardedFileSource(container, chunk_size)
    )
    assert copies
    with open(path, "wb") as fh:
        fh.write(copies[suspend % len(copies)])
    restored = resume(path, stream=ShardedFileSource(container, chunk_size))
    assert strip_volatile(restored) == strip_volatile(reference)


# ----------------------------------------------------------------------
# out-of-core zoo writers
# ----------------------------------------------------------------------

class TestWriteZooShards:
    def test_zoo_family_matches_arranged_array(self, tmp_path):
        edges, n_actual = workload_edges("power_law", 32, 3)
        arranged = arrange_edges(n_actual, edges, "random", 3)
        manifest = write_zoo_shards(
            tmp_path / "z", "power_law", 32, 3, order="random", shard_rows=11
        )
        assert manifest["n"] == n_actual and manifest["m"] == len(arranged)
        assert np.array_equal(
            collect_edges(ShardedFileSource(tmp_path / "z")), arranged
        )

    def test_all_zoo_families_write(self, tmp_path):
        for family in sorted(ZOO_FAMILIES):
            manifest = write_zoo_shards(tmp_path / family, family, 20, 1)
            assert manifest["magic"] == "REPROED2"

    def test_circulant_streams_without_materializing(self, tmp_path):
        manifest = write_zoo_shards(
            tmp_path / "c", "circulant", 40, 2, k=3, shard_rows=32
        )
        assert manifest["m"] == 40 * 3
        assert manifest["max_degree"] == 6
        assert np.array_equal(
            collect_edges(ShardedFileSource(tmp_path / "c")),
            circulant_edges(40, 3, seed=2),
        )

    def test_circulant_requires_insertion_order(self, tmp_path):
        with pytest.raises(ReproError, match="insertion"):
            write_zoo_shards(tmp_path / "c", "circulant", 40, 2, order="bfs")

    def test_unknown_family_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="unknown"):
            write_zoo_shards(tmp_path / "c", "mystery", 40, 2)


class TestCirculantFamily:
    def test_shape_and_degrees(self):
        edges = circulant_edges(30, 4, seed=1)
        assert edges.shape == (120, 2)
        assert set(zoo_degrees(30, edges)) == {8}

    def test_deterministic_in_seed(self):
        a = np.concatenate(list(circulant_edge_blocks(25, 3, seed=6, block_rows=7)))
        b = circulant_edges(25, 3, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(b, circulant_edges(25, 3, seed=7))

    def test_validates_parameters(self):
        with pytest.raises(ReproError):
            circulant_edges(10, 5)  # needs 2k < n
        with pytest.raises(ReproError):
            circulant_edges(10, 0)
