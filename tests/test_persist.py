"""repro.persist: codec round-trips, checkpoint format, suspend/restore.

The load-bearing suite is the **differential**: for every (algorithm,
zoo family, chunk size) cell, a run suspended at a block boundary —
including mid-pass — and restored from its serialized snapshot must
finish with a :class:`ColoringResult` that is field-for-field identical
to the uninterrupted run (wall-clock timings aside), and the
crash-at-every-block-boundary sweep proves there is no boundary where
that breaks for the four core algorithms.
"""

import os
import random
from dataclasses import asdict

import numpy as np
import pytest

from repro.common.exceptions import CheckpointError
from repro.engine import REGISTRY, RunSpec, resume, run
from repro.engine.runner import run_spec_from_dict
from repro.persist import (
    ResumableRun,
    read_checkpoint,
    strip_volatile,
    write_checkpoint,
)
from repro.persist.codec import decode_value, encode_value, snapshot_object
from repro.persist.codec import _ArraySink


def roundtrip(value):
    sink = _ArraySink()
    tree = encode_value(value, sink)
    import json

    tree = json.loads(json.dumps(tree))  # must survive JSON
    return decode_value(tree, sink.arrays)


class TestCodec:
    def test_primitives_and_containers(self):
        value = {
            "a": [1, 2.5, None, True, "x"],
            3: (1, (2, 3)),
            "set": {1, 5, 2},
            "fro": frozenset({(1, 2), (3, 4)}),
            "bytes": b"\x00\xffhello",
        }
        out = roundtrip(value)
        assert out == value
        assert isinstance(out[3], tuple)
        assert isinstance(out["fro"], frozenset)
        assert isinstance(next(iter(out["fro"])), tuple)

    def test_dict_preserves_key_types_and_order(self):
        value = {5: "a", 1: "b", "x": {2: 3}}
        out = roundtrip(value)
        assert list(out) == [5, 1, "x"]
        assert out[5] == "a" and out["x"][2] == 3

    def test_ndarray_dtype_shape_and_writeable(self):
        arr = np.arange(12, dtype=np.int32).reshape(3, 4)
        frozen = arr.copy()
        frozen.flags.writeable = False
        out = roundtrip({"a": arr, "b": frozen, "empty": np.empty((0, 2))})
        assert out["a"].dtype == np.int32 and out["a"].shape == (3, 4)
        assert (out["a"] == arr).all()
        assert out["b"].flags.writeable is False
        assert out["empty"].shape == (0, 2)

    def test_numpy_scalar(self):
        out = roundtrip(np.int64(7))
        assert out == 7 and isinstance(out, np.int64)

    def test_python_random_draw_position(self):
        rng = random.Random(17)
        rng.random()
        out = roundtrip(rng)
        assert out.random() == rng.random()
        assert out.getstate() == rng.getstate()

    def test_numpy_generator_draw_position(self):
        gen = np.random.default_rng(17)
        gen.integers(0, 100, size=5)
        out = roundtrip(gen)
        assert (out.integers(0, 100, size=8) == gen.integers(0, 100, size=8)).all()

    def test_seeded_rng_component(self):
        from repro.common.rng import SeededRng

        rng = SeededRng(5)
        rng.randint(0, 99)
        rng.np.integers(0, 9, size=3)
        out = roundtrip(rng)
        assert out.randint(0, 99) == rng.randint(0, 99)
        assert (out.np.integers(0, 9, size=4) == rng.np.integers(0, 9, size=4)).all()

    def test_subcube_and_meter(self):
        from repro.common.space import SpaceMeter
        from repro.core.subcube import Subcube

        cube = Subcube(4, 2, 3)
        meter = SpaceMeter()
        meter.set_gauge("x", 100)
        meter.set_gauge("x", 10)
        meter.charge_random_bits(7)
        out = roundtrip({"cube": cube, "meter": meter})
        assert out["cube"] == cube
        assert out["meter"].peak_bits == 100
        assert out["meter"].current_bits == 10
        assert out["meter"].random_bits == 7

    def test_unregistered_class_rejected(self):
        class Mystery:
            pass

        with pytest.raises(CheckpointError, match="cannot snapshot"):
            roundtrip(Mystery())

    def test_snapshot_object_rejects_unknown_class_key(self):
        sink_snapshot = snapshot_object(
            REGISTRY.get("naive").create(8, 2, 0)
        )
        sink_snapshot["class"] = "os:system"
        algo = REGISTRY.get("naive").create(8, 2, 0)
        with pytest.raises(CheckpointError):
            algo.load_state(sink_snapshot)

    def test_load_into_wrong_class_rejected(self):
        snap = snapshot_object(REGISTRY.get("naive").create(8, 2, 0))
        other = REGISTRY.get("robust").create(8, 2, 0)
        with pytest.raises(CheckpointError, match="cannot load into"):
            other.load_state(snap)


class TestCheckpointFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "c.ck"
        arrays = {"a0": np.arange(5), "a1": np.zeros((2, 2), dtype=np.float64)}
        write_checkpoint(path, {"kind": "test", "x": [1, 2]}, arrays)
        header, loaded = read_checkpoint(path)
        assert header["kind"] == "test" and header["x"] == [1, 2]
        assert set(loaded) == {"a0", "a1"}
        assert (loaded["a0"] == arrays["a0"]).all()

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.ck"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="not a repro checkpoint"):
            read_checkpoint(path)

    def test_edge_file_magic_is_not_a_checkpoint(self, tmp_path):
        # REPROED1 (the PR 2 edge-file format) must fail clean here too.
        path = tmp_path / "edges.ck"
        path.write_bytes(b"REPROED1" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="not a repro checkpoint"):
            read_checkpoint(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "t.ck"
        write_checkpoint(path, {"kind": "test"}, {"a0": np.arange(3)})
        blob = path.read_bytes()
        path.write_bytes(blob[:12])
        with pytest.raises(CheckpointError, match="truncated"):
            read_checkpoint(path)

    def test_header_longer_than_file(self, tmp_path):
        path = tmp_path / "t.ck"
        write_checkpoint(path, {"kind": "test"}, {})
        blob = bytearray(path.read_bytes())
        blob[8:16] = (1 << 40).to_bytes(8, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="claims"):
            read_checkpoint(path)

    def test_corrupt_header_json(self, tmp_path):
        path = tmp_path / "t.ck"
        write_checkpoint(path, {"kind": "test"}, {})
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.ck"
        write_checkpoint(path, {"kind": "test"}, {"a0": np.arange(1000)})
        blob = path.read_bytes()
        path.write_bytes(blob[:-512])
        with pytest.raises(CheckpointError, match="a0"):
            read_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot open"):
            read_checkpoint(tmp_path / "nope.ck")

    def test_write_is_atomic_under_bad_header(self, tmp_path):
        path = tmp_path / "t.ck"
        write_checkpoint(path, {"kind": "ok"}, {})
        with pytest.raises(CheckpointError):
            write_checkpoint(path, {"bad": object()}, {})
        header, _ = read_checkpoint(path)  # original file intact
        assert header["kind"] == "ok"
        assert not [f for f in os.listdir(tmp_path) if ".tmp." in f]


# ----------------------------------------------------------------------
# suspend/restore differentials
# ----------------------------------------------------------------------

def zoo_spec(algorithm, family, chunk_size, seed=3, n=48, order="random",
             **overrides) -> RunSpec:
    """A spec over a synthesized workload comparable across restarts."""
    from repro.streaming.workloads import workload_stats

    n_actual, delta, _ = workload_stats(family, n, seed)
    base = dict(
        algorithm=algorithm, n=n_actual, delta=max(1, delta), seed=seed,
        graph_seed=seed, stream_backend="materialized", chunk_size=chunk_size,
        keep_coloring=True, validate=algorithm != "naive",
        verify=algorithm != "naive",
    )
    base.update(overrides)
    return RunSpec(**base)


def checkpoint_copies(spec, path, checkpoint_every=1, monkeypatch=None):
    """Run to completion, returning the bytes of every checkpoint written."""
    import repro.persist.driver as driver_mod

    copies = []
    original = driver_mod.write_checkpoint

    def capture(p, header, arrays):
        original(p, header, arrays)
        with open(p, "rb") as fh:
            copies.append(fh.read())

    monkeypatch.setattr(driver_mod, "write_checkpoint", capture)
    d = ResumableRun(spec)
    result = d.run_to_completion(
        checkpoint_every=checkpoint_every, checkpoint_path=path
    )
    d.close()
    monkeypatch.setattr(driver_mod, "write_checkpoint", original)
    return result, copies


class TestSuspendRestoreDifferential:
    """Registry x zoo x chunk-size: restored == uninterrupted, bit for bit."""

    @pytest.mark.parametrize("algorithm", REGISTRY.names())
    @pytest.mark.parametrize("family", ["power_law", "cliques_paths"])
    @pytest.mark.parametrize("chunk_size", [5, 64])
    def test_mid_pass_restore_is_bit_identical(
        self, algorithm, family, chunk_size, tmp_path, monkeypatch
    ):
        spec = zoo_spec(algorithm, family, chunk_size)
        reference = run(spec)
        path = str(tmp_path / "run.ck")
        _, copies = checkpoint_copies(
            spec, path, checkpoint_every=2, monkeypatch=monkeypatch
        )
        assert copies, "run wrote no checkpoints"
        # Resume from an early, a middle, and the last snapshot.
        picks = sorted({0, len(copies) // 2, len(copies) - 1})
        for index in picks:
            with open(path, "wb") as fh:
                fh.write(copies[index])
            restored = resume(path)
            assert strip_volatile(restored) == strip_volatile(reference), (
                algorithm, family, chunk_size, index,
            )
            assert restored.extras["resumed"] is True

    def test_list_coloring_with_lists_stream_restores(self, tmp_path):
        # needs_lists uses the materialized (token-backed) plane; the
        # checkpoint must rebuild the identical list assignment from the
        # spec seeds.
        spec = RunSpec(
            algorithm="list_coloring", n=40, delta=5, seed=3, graph_seed=3,
            list_seed=11, stream_seed=7, stream_backend="materialized",
            chunk_size=16, keep_coloring=True, verify=True,
        )
        reference = run(spec)
        path = str(tmp_path / "lists.ck")
        d = ResumableRun(spec)
        d.step()
        d.step()
        d.save(path)
        d.close()
        restored = resume(path)
        assert strip_volatile(restored) == strip_volatile(reference)

    def test_file_backend_restores(self, tmp_path):
        from dataclasses import replace

        spec = replace(
            zoo_spec("deterministic", "power_law", 16),
            stream_backend="file",
        )
        reference = run(spec)
        path = str(tmp_path / "file.ck")
        d = ResumableRun(spec)
        d.step()
        d.save(path)
        d.close()
        restored = resume(path)
        assert strip_volatile(restored) == strip_volatile(reference)

    def test_generator_backend_restores(self, tmp_path):
        from dataclasses import replace

        spec = replace(zoo_spec("cgs22", "power_law", 8),
                       stream_backend="generator")
        reference = run(spec)
        path = str(tmp_path / "gen.ck")
        d = ResumableRun(spec)
        # one-pass: suspend mid-stream (resumable), no replay needed
        consumer = d.algo.blocks_consumer()
        assert consumer.resumable

        d.step(checkpoint_every=3, checkpoint_path=path)
        d.close()
        restored = resume(path)
        assert strip_volatile(restored) == strip_volatile(reference)


class TestCrashAtEveryBoundary:
    """Core-4 sweep: no block boundary exists where restore diverges."""

    CORE = ("deterministic", "list_coloring", "robust", "robust_lowrandom")

    @pytest.mark.parametrize("algorithm", CORE)
    def test_every_boundary(self, algorithm, tmp_path, monkeypatch):
        if algorithm == "list_coloring":
            spec = RunSpec(
                algorithm="list_coloring", n=24, delta=4, seed=5,
                graph_seed=5, stream_backend="materialized", chunk_size=7,
                keep_coloring=True, verify=True,
            )
        else:
            spec = zoo_spec(algorithm, "power_law", 7, seed=5, n=24)
        reference = run(spec)
        path = str(tmp_path / "b.ck")
        _, copies = checkpoint_copies(
            spec, path, checkpoint_every=1, monkeypatch=monkeypatch
        )
        assert len(copies) >= 3
        for index, blob in enumerate(copies):
            with open(path, "wb") as fh:
                fh.write(blob)
            restored = resume(path)
            assert strip_volatile(restored) == strip_volatile(reference), (
                algorithm, index, len(copies),
            )


class TestDriverValidation:
    @pytest.mark.parametrize(
        "algorithm", ["deterministic", "robust", "list_coloring", "cgs22"]
    )
    def test_tokens_backend_round_trip(self, algorithm, tmp_path,
                                       monkeypatch):
        # The tokens plane is one-edge blocks, so it checkpoints at edge
        # boundaries like any other plane.
        spec = RunSpec(algorithm=algorithm, n=40, delta=4, seed=2,
                       graph_seed=2, stream_backend="tokens",
                       keep_coloring=True, verify=True)
        reference = run(spec)
        path = str(tmp_path / "tokens.ck")
        checkpointed, copies = checkpoint_copies(
            spec, path, checkpoint_every=25, monkeypatch=monkeypatch
        )
        assert strip_volatile(checkpointed) == strip_volatile(reference)
        assert copies, "run wrote no checkpoints"
        for index in sorted({0, len(copies) // 2, len(copies) - 1}):
            with open(path, "wb") as fh:
                fh.write(copies[index])
            restored = resume(path)
            assert strip_volatile(restored) == strip_volatile(reference), (
                algorithm, index,
            )

    def test_run_entry_point_validates_checkpoint_args(self, tmp_path):
        from repro.common.exceptions import ReproError

        spec = RunSpec(algorithm="naive", n=16, delta=3,
                       stream_backend="materialized")
        with pytest.raises(ReproError, match="checkpoint_path"):
            run(spec, checkpoint_every=4)
        with pytest.raises(ReproError, match="checkpoint_every"):
            run(spec, checkpoint_every=0,
                checkpoint_path=str(tmp_path / "x.ck"))

    def test_caller_supplied_stream_needs_stream_on_resume(self, tmp_path):
        from repro.streaming.workloads import workload_source, workload_stats

        n, delta, _ = workload_stats("power_law", 32, 1)
        spec = RunSpec(algorithm="robust", n=n, delta=max(1, delta), seed=1,
                       keep_coloring=True)
        source = workload_source("power_law", 32, "random", 1, chunk_size=8)
        d = ResumableRun(spec, stream=source)
        path = str(tmp_path / "ext.ck")
        d.save(path)
        with pytest.raises(CheckpointError, match="caller-supplied"):
            resume(path)
        # With an equivalent stream it resumes fine.
        source2 = workload_source("power_law", 32, "random", 1, chunk_size=8)
        restored = resume(path, stream=source2)
        d2 = ResumableRun(spec, stream=workload_source(
            "power_law", 32, "random", 1, chunk_size=8
        ))
        assert strip_volatile(restored) == strip_volatile(d2.result())

    def test_checkpoint_of_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "k.ck"
        write_checkpoint(path, {"kind": "session"}, {})
        with pytest.raises(CheckpointError, match="kind"):
            resume(path)

    def test_pass_boundaries_checkpoint_even_with_large_interval(
        self, tmp_path
    ):
        # One block per pass and checkpoint_every larger than that: the
        # per-pass boundary snapshot must still land on disk and resume
        # to the identical result.
        import os

        spec = RunSpec(
            algorithm="deterministic", n=32, delta=4, seed=2, graph_seed=2,
            stream_backend="materialized", chunk_size=4096,
            keep_coloring=True,
        )
        path = str(tmp_path / "boundary.ck")
        reference = run(spec, checkpoint_every=100, checkpoint_path=path)
        assert os.path.exists(path)
        assert strip_volatile(resume(path)) == strip_volatile(reference)

    def test_run_with_checkpointing_matches_plain_run(self, tmp_path):
        spec = zoo_spec("robust", "power_law", 9)
        plain = run(spec)
        checked = run(spec, checkpoint_every=3,
                      checkpoint_path=str(tmp_path / "c.ck"))
        assert strip_volatile(plain) == strip_volatile(checked)
        assert checked.extras["checkpoints"] >= 1


    @pytest.mark.parametrize("algorithm", ["deterministic", "robust"])
    def test_other_drivers_dispatch_the_plain_runs_kernel_hits(self, algorithm,
                                                               tmp_path):
        # strip_volatile drops kernel_hits (a resumed run counts only its
        # own passes), so pin them on the two other ways through
        # drive_pass: an uninterrupted run that snapshots after every
        # block (the driver's mid-pass generator), and color_stream
        # outside the engine, read through the kernel totals.
        from repro.engine.runner import _build_stream, _kernel_hits_since
        from repro.kernels import kernel_total_hits

        spec = zoo_spec(algorithm, "power_law", 9)
        plain = run(spec).extras["kernel_hits"]
        assert plain
        checked = ResumableRun(spec).run_to_completion(
            checkpoint_every=1, checkpoint_path=str(tmp_path / "c.ck"))
        assert checked.extras["checkpoints"] >= 1
        assert checked.extras["kernel_hits"] == plain
        entry = REGISTRY.get(algorithm)
        config = entry.make_config(spec.config)
        source = _build_stream(spec, entry, config)
        before = kernel_total_hits()
        algo = entry.create(spec.n, spec.delta, spec.seed, config)
        coloring = algo.color_stream(source)
        assert _kernel_hits_since(before) == plain
        assert coloring == checked.coloring
        assert len(source.pass_seconds) == source.passes_used == checked.passes


class TestStoredSpecs:
    """Checkpoints whose stored spec predates the current RunSpec."""

    def mid_run_checkpoint(self, algorithm, tmp_path, monkeypatch):
        spec = zoo_spec(algorithm, "power_law", 5)
        path = str(tmp_path / "old.ck")
        reference, copies = checkpoint_copies(spec, path, 2, monkeypatch)
        with open(path, "wb") as fh:
            fh.write(copies[len(copies) // 2])
        return path, reference

    @pytest.mark.parametrize("algorithm", ["deterministic", "robust"])
    def test_kernel_tier_key_is_dropped(self, algorithm, tmp_path,
                                        monkeypatch):
        # Specs stored while RunSpec still had a kernel tier carry the key.
        path, reference = self.mid_run_checkpoint(algorithm, tmp_path,
                                                  monkeypatch)
        header, arrays = read_checkpoint(path)
        header["spec"]["kernel_tier"] = "auto"
        write_checkpoint(path, header, arrays)
        assert strip_volatile(resume(path)) == strip_volatile(reference)

    def test_only_stored_specs_forgive_kernel_tier(self):
        spec = zoo_spec("robust", "power_law", 5)
        stored = dict(asdict(spec), kernel_tier="compiled")
        assert run_spec_from_dict(stored) == spec
        # The live constructor no longer takes the removed option.
        with pytest.raises(TypeError, match="kernel_tier"):
            RunSpec(**stored)

    def test_other_unknown_spec_keys_still_fail(self, tmp_path, monkeypatch):
        path, _ = self.mid_run_checkpoint("robust", tmp_path, monkeypatch)
        header, arrays = read_checkpoint(path)
        header["spec"]["colour_scheme"] = "auto"
        write_checkpoint(path, header, arrays)
        with pytest.raises(CheckpointError, match="does not match RunSpec"):
            resume(path)


class TestSourceCursors:
    def test_tell_seek_resume_pass(self):
        from repro.streaming.workloads import workload_source

        src = workload_source("power_law", 40, "random", 2, chunk_size=6)
        full = [b.copy() for b in src.new_pass()]
        assert src.tell() == {"passes": 1}
        src.seek({"passes": 0})
        tail = [b.copy() for b in src.resume_pass(2)]
        assert src.passes_used == 1
        assert len(tail) == len(full) - 2
        for a, b in zip(tail, full[2:]):
            assert (a == b).all()

    def test_file_source_resume_offsets(self, tmp_path):
        from repro.streaming.source import FileSource, write_edge_file
        from repro.streaming.workloads import workload_source

        src = workload_source("power_law", 40, "random", 2)
        edges = np.concatenate([
            b for b in src.iter_items() if isinstance(b, np.ndarray)
        ])
        path = str(tmp_path / "edges.bin")
        write_edge_file(path, 40, edges)
        fsrc = FileSource(path, chunk_size=6)
        full = [b.copy() for b in fsrc.new_pass()]
        for offset in range(len(full) + 1):
            fsrc.seek({"passes": 0})
            tail = list(fsrc.resume_pass(offset))
            assert len(tail) == len(full) - offset
            for a, b in zip(tail, full[offset:]):
                assert (a == b).all()

    def test_negative_cursor_rejected(self):
        from repro.common.exceptions import StreamProtocolError
        from repro.streaming.workloads import workload_source

        src = workload_source("empty", 4, "insertion", 0)
        with pytest.raises(StreamProtocolError):
            src.seek({"passes": -1})
        with pytest.raises(StreamProtocolError):
            list(src.resume_pass(-1))
