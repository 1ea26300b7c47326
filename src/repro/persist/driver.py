"""`ResumableRun`: the driver of every engine run, with optional checkpoints.

:func:`~repro.engine.runner.run` is a ``ResumableRun`` driven to
completion, and so are :func:`~repro.engine.runner.resume` and every
multipass service session.  The driver steps the algorithm's pass
machine one pass at a time through the shared pass loop
(:func:`~repro.streaming.machine.drive_pass`), and it alone measures a
run's wall time and kernel hits.  ``checkpoint_every`` only adds
snapshots: at every pass boundary, and at every ``k``-th block boundary
from a generator around the pass's items.  Like ``run`` it reads a block
source on every data plane (a token stream as one-edge blocks, so the
``tokens`` plane checkpoints at every edge boundary):

- **One-pass algorithms** (resumable consumers): the snapshot is the
  live algorithm state plus the block offset; restore seeks the stream
  cursor and feeds only the remaining blocks.
- **Multipass algorithms** (pass-accumulator consumers): the snapshot is
  the state at the in-flight pass's boundary plus the offset; restore
  replays that pass from its beginning.  Pass replay is deterministic
  (sources regenerate identical streams, ``blocks_consumer`` is pure),
  so the finished run is bit-identical either way — the differential
  suite in ``tests/test_persist.py`` locks this for every registry x
  zoo x chunk-size cell, comparing a run with itself interrupted.

Checkpoints embed the originating :class:`~repro.engine.runner.RunSpec`,
so a runner-built stream is rebuilt on resume; caller-supplied streams
must be re-supplied (the header records which case applies).
"""

from dataclasses import asdict

from repro.common.exceptions import CheckpointError, ReproError
from repro.kernels import kernel_total_hits
from repro.persist.checkpoint import read_checkpoint, write_checkpoint
from repro.streaming.machine import drive_pass
from repro.streaming.model import block_source
import repro.obs as obs
from repro.obs.clock import perf_now

__all__ = ["ResumableRun", "strip_volatile"]

#: extras keys that legitimately differ between an uninterrupted run and
#: a suspended/restored one (timings, resume provenance, and kernel-hit
#: observability counts — restore replays the in-flight pass, so a
#: resumed run dispatches more kernel calls than an uninterrupted one).
VOLATILE_EXTRAS = (
    "pass_wall_times", "edges_per_sec", "resumed", "checkpoints",
    "kernel_hits",
)


def strip_volatile(result) -> dict:
    """A result's comparable fields: everything except wall-clock noise.

    The suspend/restore differential is ``strip_volatile(a) ==
    strip_volatile(b)``: colorings, passes, peak space, random bits,
    palettes, properness, config, and all stable extras must agree bit
    for bit; only measured timings (and the resume provenance marker) may
    differ.
    """
    data = result.to_dict(include_coloring=True)
    data.pop("wall_time_s")
    data["extras"] = {
        k: v for k, v in data.get("extras", {}).items()
        if k not in VOLATILE_EXTRAS
    }
    return data


class ResumableRun:
    """One engine run, executed pass by pass with checkpoint support."""

    def __init__(self, spec, stream=None, registry=None):
        from repro.engine.registry import REGISTRY
        from repro.engine.runner import _build_stream, _kernel_hits_since

        self.registry = registry if registry is not None else REGISTRY
        self.spec = spec
        self.entry = self.registry.get(spec.algorithm)
        if spec.verify not in (False, True, "strict"):
            raise ReproError(
                f"RunSpec.verify must be False, True, or 'strict', "
                f"got {spec.verify!r}"
            )
        self.config = self.entry.make_config(spec.config)
        self._owns_stream = stream is None
        if stream is None:
            stream = _build_stream(spec, self.entry, self.config)
        elif stream.n != spec.n:
            raise ReproError(
                f"stream is over {stream.n} vertices but the spec says "
                f"n={spec.n}"
            )
        self.stream = block_source(stream)
        hits_before = kernel_total_hits()
        try:
            self.algo = self.entry.create(
                spec.n, spec.delta, spec.seed, self.config
            )
            start = perf_now()
            self.algo.blocks_start()
            self._wall = perf_now() - start
        except BaseException:
            self.close()
            raise
        # The run's kernel-dispatch hit counts: those of create and
        # blocks_start here, then each step's, so service sessions (which
        # call step() directly) report them too.
        self._kernel_hits = _kernel_hits_since(hits_before)
        self._passes_before = self.stream.passes_used
        self._timings_before = len(self.stream.pass_seconds)
        self._pending_offset = None
        self._resumed = False
        self._checkpoints_written = 0
        self.done = False
        self._coloring = None

    # ------------------------------------------------------------------
    def step(self, checkpoint_every=None, checkpoint_path=None) -> bool:
        """Run the next pass to completion; ``False`` once the run is done.

        With ``checkpoint_every=k`` a snapshot is written to
        ``checkpoint_path`` after every ``k``-th block of the pass.
        """
        from repro.engine.runner import _kernel_hits_since

        if self.done:
            return False
        hits_before = kernel_total_hits()
        start = perf_now()
        consumer = self.algo.blocks_consumer()
        if consumer is None:
            self._coloring = self.algo.blocks_result()
            self.done = True
            step_hits = _kernel_hits_since(hits_before)
        else:
            with obs.span("persist.pass") as sp:
                drive_pass(self.algo, self.stream, consumer, self._items(
                    consumer, start, checkpoint_every, checkpoint_path
                ))
                step_hits = _kernel_hits_since(hits_before)
                if sp is not None:
                    sp.set("algorithm", self.spec.algorithm)
                    sp.set("pass_index", self.stream.passes_used)
                    if step_hits:
                        sp.set("kernel_hits", step_hits)
        self._wall += perf_now() - start
        for name, count in step_hits.items():
            self._kernel_hits[name] = self._kernel_hits.get(name, 0) + count
        return not self.done

    def _items(self, consumer, start, checkpoint_every, checkpoint_path):
        """The pass's items: a fresh pass, or the tail of a restored one."""
        offset, self._pending_offset = self._pending_offset, None
        if offset is not None and consumer.resumable:
            items = self.stream.resume_pass(offset)
        else:
            items, offset = self.stream.new_pass(), 0
        if checkpoint_every and checkpoint_path is not None:
            items = self._checkpointed(
                items, offset, consumer.resumable, start,
                checkpoint_every, checkpoint_path,
            )
        return items

    def _checkpointed(self, items, offset, resumable, start, every, path):
        """Yield ``items``, snapshotting after every ``every``-th is fed."""
        # Multipass consumers mutate only their own accumulators, so the
        # pass-boundary state stays valid for the whole pass.
        pre_state = None if resumable else self.algo.state_dict()
        for item in items:
            yield item
            offset += 1
            if offset % every == 0:
                self._write(
                    path, in_pass=True, offset=offset, resumable=resumable,
                    pre_state=pre_state,
                    wall=self._wall + (perf_now() - start),
                )

    def run_to_completion(self, checkpoint_every=None, checkpoint_path=None):
        """Drive every remaining pass, then package the result."""
        checkpointing = checkpoint_every and checkpoint_path is not None
        while self.step(checkpoint_every, checkpoint_path):
            # Also snapshot at every pass boundary: a pass shorter than
            # checkpoint_every blocks would otherwise never be persisted.
            if checkpointing and not self.done:
                self.save(checkpoint_path)
        return self.result()

    # ------------------------------------------------------------------
    def result(self):
        """The uniform :class:`ColoringResult` (completes the run first)."""
        from repro.engine.runner import _package_result

        if not self.done:
            self.run_to_completion()
        result = _package_result(
            self.spec, self.entry, self.config, self.stream, self.algo,
            self._coloring, self._wall, self._passes_before,
            self._timings_before, dict(self._kernel_hits),
        )
        if self._resumed:
            result.extras["resumed"] = True
        if self._checkpoints_written:
            result.extras["checkpoints"] = self._checkpoints_written
        return result

    def close(self) -> None:
        """Release a driver-built stream's resources (file mappings)."""
        from repro.engine.runner import _dispose_stream

        if self._owns_stream:
            _dispose_stream(self.stream)

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Write a pass-boundary checkpoint (between :meth:`step` calls)."""
        if self.done:
            raise CheckpointError("run already completed; nothing to checkpoint")
        if self._pending_offset is not None:
            raise CheckpointError(
                "run has an un-stepped mid-pass resume point; call step() "
                "before checkpointing again"
            )
        self._write(path, in_pass=False, offset=0, resumable=False,
                    pre_state=None, wall=self._wall)

    def snapshot(self) -> tuple[dict, dict]:
        """The pass-boundary snapshot as ``(header, arrays)``, unwritten.

        Used by the session service to embed run state inside its own
        checkpoint files; :meth:`from_snapshot` is the inverse.
        """
        state = self.algo.state_dict()
        header = self._header(
            in_pass=False, offset=0, resumable=False,
            state=state, wall=self._wall,
        )
        return header, state["arrays"]

    def _header(self, in_pass, offset, resumable, state, wall) -> dict:
        return {
            "kind": "run",
            "spec": asdict(self.spec),
            "algorithm": self.entry.name,
            "state_class": state["class"],
            "state_tree": state["state"],
            "passes_started": self.stream.passes_used,
            "passes_before": self._passes_before,
            "in_pass": bool(in_pass),
            "offset": int(offset),
            "resumable": bool(resumable),
            "wall_time_s": float(wall),
            "stream_from_spec": self._owns_stream,
        }

    def _write(self, path, in_pass, offset, resumable, pre_state, wall) -> None:
        state = (
            self.algo.state_dict()
            if (resumable or not in_pass)
            else pre_state
        )
        if state is None:
            raise CheckpointError("mid-pass checkpoint without a pass-boundary state")
        header = self._header(in_pass, offset, resumable, state, wall)
        write_start = perf_now()
        write_checkpoint(path, header, state["arrays"])
        write_seconds = perf_now() - write_start
        obs.histogram(
            "repro_checkpoint_write_seconds",
            "wall seconds per REPROCK1 checkpoint write",
        ).observe(write_seconds)
        obs.emit_span("persist.checkpoint_write", write_seconds,
                      in_pass=bool(in_pass), offset=int(offset))
        self._checkpoints_written += 1

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path, stream=None, registry=None) -> "ResumableRun":
        """Restore a run from a checkpoint file (see :meth:`from_snapshot`)."""
        restore_start = perf_now()
        header, arrays = read_checkpoint(path)
        run = cls.from_snapshot(header, arrays, stream=stream,
                                registry=registry)
        restore_seconds = perf_now() - restore_start
        obs.histogram(
            "repro_checkpoint_restore_seconds",
            "wall seconds per REPROCK1 checkpoint restore",
        ).observe(restore_seconds)
        obs.emit_span("persist.checkpoint_restore", restore_seconds,
                      algorithm=run.spec.algorithm)
        return run

    @classmethod
    def from_snapshot(cls, header, arrays, stream=None,
                      registry=None) -> "ResumableRun":
        """Rebuild a driver from a snapshot header + payloads."""
        from repro.engine.runner import run_spec_from_dict

        if header.get("kind") != "run":
            raise CheckpointError(
                f"checkpoint is of kind {header.get('kind')!r}, expected 'run'"
            )
        try:
            spec = run_spec_from_dict(header["spec"])
        except (KeyError, TypeError) as error:
            raise CheckpointError(
                f"checkpoint spec does not match RunSpec: {error}"
            ) from None
        if stream is None and not header.get("stream_from_spec", False):
            raise CheckpointError(
                "checkpoint was taken over a caller-supplied stream; "
                "pass an equivalent stream to resume"
            )
        run = cls(spec, stream=stream, registry=registry)
        try:
            run.algo.load_state(
                {"class": header["state_class"], "state": header["state_tree"]},
                arrays,
            )
            passes_started = int(header["passes_started"])
            run._passes_before = int(header["passes_before"])
            run._wall = float(header["wall_time_s"])
            if header["in_pass"]:
                # The in-flight pass was counted when it started; rewind one
                # so re-entering it (resume or replay) counts it once.
                run.stream.seek({"passes": passes_started - 1})
                run._pending_offset = (
                    int(header["offset"]) if header["resumable"] else None
                )
            else:
                run.stream.seek({"passes": passes_started})
        except KeyError as error:
            raise CheckpointError(
                f"checkpoint header is missing field {error}"
            ) from None
        run._resumed = True
        return run
