"""The single run entry point: ``run(spec, stream) -> ColoringResult``.

A :class:`RunSpec` names an algorithm from the registry, the instance size,
the seeds, and the algorithm's config options — nothing else.  The runner
builds (or accepts) the stream and reads it as a block source, drives
the algorithm's pass machine through the
:class:`~repro.engine.protocol.StreamingColorer` protocol with the one
run driver, :class:`~repro.persist.driver.ResumableRun` (checkpoints
optional), validates the output coloring in one sweep of the stream's
own items, and packs everything into the uniform
:class:`ColoringResult` schema.

:class:`GameSpec` / :func:`run_game` is the adaptive-adversary twin: the
same schema, but the algorithm plays the Section 2 insert/query game
instead of reading a static stream.
"""

import tempfile
from dataclasses import dataclass, field

import numpy as np

from repro.common.exceptions import (
    CheckpointError,
    ImproperColoringError,
    ListViolationError,
    PaletteExceededError,
    ReproError,
)
from repro.engine.registry import REGISTRY, AlgorithmRegistry
from repro.engine.result import ColoringResult
from repro.graph.coloring import num_colors_used
from repro.graph.graph import Graph
from repro.kernels import kernel_total_hits
from repro.streaming.source import (
    DEFAULT_CHUNK_SIZE,
    FileSource,
    GeneratorSource,
    write_edge_file,
)
from repro.streaming.stream import TokenStream
from repro.streaming.tokens import ListToken
import repro.obs as obs
from repro.obs.clock import perf_now

__all__ = [
    "DEFAULT_STREAM_BACKEND",
    "GRAPH_FAMILIES",
    "GameSpec",
    "RunSpec",
    "STREAM_BACKENDS",
    "make_adversary",
    "resume",
    "run",
    "run_game",
    "run_spec_from_dict",
    "set_default_stream",
]

#: Valid ``RunSpec.stream_backend`` values.  Every run reads a block
#: source: ``tokens`` builds a :class:`TokenStream` that :func:`run` reads
#: as one-edge ``materialized`` blocks, and the others construct sources
#: (``materialized`` in-memory, ``generator`` lazily regenerated each pass,
#: ``file`` memory-mapped from a binary edge file written on the fly,
#: ``sharded_file`` streamed from a multi-shard ``REPROED2`` container —
#: the out-of-core plane, exercised here on temp-dir shards).
STREAM_BACKENDS = ("tokens", "materialized", "generator", "file", "sharded_file")

#: The data plane a spec gets when neither it nor the process default
#: picks one: the in-memory block source.
DEFAULT_STREAM_BACKEND = "materialized"

#: Valid ``RunSpec.graph_family`` values.  ``random_max_degree`` is the
#: classic proposal-loop workload; ``near_regular`` is the vectorized
#: Hamiltonian-cycle construction (max degree <= delta, numpy-built, the
#: one to use at n >= 10^4 where the proposal loop dominates runtime).
GRAPH_FAMILIES = ("random_max_degree", "near_regular")

# Process-level data-plane defaults, used when a spec leaves
# ``stream_backend`` / ``chunk_size`` as None; the CLI's --stream-backend /
# --chunk-size flags set them once instead of threading parameters through
# every experiment signature (mirroring grid.set_default_workers).
_default_stream_backend = DEFAULT_STREAM_BACKEND
_default_chunk_size = DEFAULT_CHUNK_SIZE


def set_default_stream(backend=None, chunk_size=None) -> None:
    """Set the data plane used by specs that do not pick one explicitly.

    Either argument may be None to leave it unchanged.  Raises
    :class:`ReproError` on an unknown backend or a non-positive chunk
    size, so CLI callers get the standard exit-2 path.
    """
    global _default_stream_backend, _default_chunk_size
    if backend is not None:
        if backend not in STREAM_BACKENDS:
            raise ReproError(
                f"unknown stream backend {backend!r}; "
                f"valid: {list(STREAM_BACKENDS)}"
            )
        _default_stream_backend = backend
    if chunk_size is not None:
        if chunk_size < 1:
            raise ReproError(f"chunk size must be >= 1, got {chunk_size}")
        _default_chunk_size = chunk_size


def get_default_stream() -> tuple[str, int]:
    """The current process-level ``(backend, chunk_size)`` defaults.

    Grid runners snapshot this when fanning jobs out to a process pool so
    that workers under any multiprocessing start method (spawn/forkserver
    re-import this module, resetting the globals) still honor the CLI's
    data-plane choice.
    """
    return _default_stream_backend, _default_chunk_size


def _resolve_data_plane(spec: "RunSpec") -> tuple[str, int]:
    """The spec's ``(stream_backend, chunk_size)``, defaults applied."""
    backend = (
        spec.stream_backend
        if spec.stream_backend is not None
        else _default_stream_backend
    )
    chunk_size = (
        spec.chunk_size if spec.chunk_size is not None else _default_chunk_size
    )
    return backend, chunk_size


@dataclass(frozen=True)
class RunSpec:
    """One static-stream run: algorithm + instance + config, all plain data.

    When :func:`run` is not handed an explicit stream it synthesizes one
    from ``graph_seed`` (falling back to ``seed``) with
    :func:`repro.graph.generators.random_max_degree_graph` at its default
    fill; algorithms
    whose registry entry sets ``needs_lists`` additionally get a random
    list assignment (``list_seed``) interleaved via ``stream_seed``.

    ``stream_backend`` selects the data plane (see
    :data:`STREAM_BACKENDS`): ``tokens`` is the token-at-a-time stream,
    read as one-edge blocks;
    ``materialized`` / ``generator`` / ``file`` construct chunked block
    sources (``chunk_size`` edges per block) carrying the identical edge
    sequence, so results are bit-for-bit equal across backends.  Leaving
    either field as ``None`` uses the process defaults (:func:`set_default_stream`
    — :data:`DEFAULT_STREAM_BACKEND` / ``DEFAULT_CHUNK_SIZE`` unless the
    CLI overrode them).  ``graph_family`` picks the workload generator
    (see :data:`GRAPH_FAMILIES`); ``near_regular`` is the numpy-built
    family for n >= 10^4 instances.
    """

    algorithm: str
    n: int
    delta: int
    seed: int = 0
    config: dict = field(default_factory=dict)
    graph_seed: int | None = None
    graph_family: str = "random_max_degree"
    stream_order: str = "insertion"
    stream_seed: int | None = None
    list_seed: int | None = None
    stream_backend: str | None = None
    chunk_size: int | None = None
    validate: bool = True
    keep_coloring: bool = False
    #: Guarantee-oracle mode: False (off), True (evaluate the entry's
    #: :class:`~repro.engine.guarantees.GuaranteeSpec` and record the
    #: verdict under ``extras["guarantees"]``), or ``"strict"`` (record
    #: and raise :class:`GuaranteeViolationError` on any violation).
    verify: bool | str = False
    tags: dict = field(default_factory=dict)


#: The ``graph_fill`` that specs stored while ``RunSpec`` had the field
#: carry: ``random_max_degree_graph``'s default, the only fill any caller
#: ever set.
_STORED_GRAPH_FILL = 0.9


def run_spec_from_dict(fields: dict) -> RunSpec:
    """Rebuild a :class:`RunSpec` from its stored ``asdict`` form.

    Run and session checkpoints store their spec this way.  Specs stored
    before the kernel tier was removed carry a ``kernel_tier`` key; it is
    dropped whatever its value, because no coloring ever depended on it.
    Specs stored before the graph fill became the generator's default
    carry ``graph_fill``; it is dropped when it is that default and raises
    :class:`CheckpointError` otherwise, because a stream rebuilt at
    another fill is not the stream that was checkpointed.  Any other
    unknown key raises ``TypeError``, as ``RunSpec(**fields)`` does.
    """
    fields = dict(fields)
    fields.pop("kernel_tier", None)
    fill = fields.pop("graph_fill", _STORED_GRAPH_FILL)
    if fill != _STORED_GRAPH_FILL:
        raise CheckpointError(
            f"stored spec has graph_fill {fill!r}; streams are rebuilt at "
            f"fill {_STORED_GRAPH_FILL} only"
        )
    return RunSpec(**fields)


@dataclass(frozen=True)
class GameSpec:
    """One adaptive-game run (Section 2 insert/query model).

    The adversary's insertions between two queries (every
    ``query_every`` rounds) reach the algorithm's ``process_block`` as
    one array.
    """

    algorithm: str
    n: int
    delta: int
    rounds: int
    seed: int = 0
    adversary: str = "conflict"
    adversary_seed: int | None = None
    query_every: int = 1
    config: dict = field(default_factory=dict)
    tags: dict = field(default_factory=dict)


def make_adversary(kind: str, seed: int):
    """Instantiate a game adversary by kind: conflict | level | random."""
    from repro.adversaries import (
        ConflictSeekingAdversary,
        LevelAwareAdversary,
        RandomAdversary,
    )

    kinds = {
        "conflict": ConflictSeekingAdversary,
        "level": LevelAwareAdversary,
        "random": RandomAdversary,
    }
    if kind not in kinds:
        raise ReproError(
            f"unknown adversary kind {kind!r}; valid: {sorted(kinds)}"
        )
    return kinds[kind](seed)


def _build_stream(spec: RunSpec, entry, config):
    from repro.graph.generators import (
        near_regular_edge_array,
        random_list_assignment,
        random_max_degree_graph,
    )
    from repro.streaming.stream import order_edges, stream_with_lists
    from repro.streaming.tokens import edge_tokens

    backend, chunk_size = _resolve_data_plane(spec)
    if backend not in STREAM_BACKENDS:
        raise ReproError(
            f"unknown stream_backend {backend!r}; "
            f"valid: {list(STREAM_BACKENDS)}"
        )
    if spec.graph_family not in GRAPH_FAMILIES:
        raise ReproError(
            f"unknown graph_family {spec.graph_family!r}; "
            f"valid: {list(GRAPH_FAMILIES)}"
        )
    graph_seed = spec.graph_seed if spec.graph_seed is not None else spec.seed

    def make_graph():
        if spec.graph_family == "near_regular":
            return Graph(
                spec.n,
                near_regular_edge_array(spec.n, spec.delta, graph_seed).tolist(),
            )
        return random_max_degree_graph(spec.n, spec.delta, seed=graph_seed)

    if entry.needs_lists:
        if backend not in ("tokens", "materialized"):
            raise ReproError(
                f"algorithm {entry.name!r} needs list tokens; the "
                f"{backend!r} backend carries edges only "
                "(use tokens or materialized)"
            )
        graph = make_graph()
        universe = getattr(config, "universe", None) or 2 * (spec.delta + 1)
        lists = random_list_assignment(
            graph, palette_size=universe, seed=spec.list_seed or 0
        )
        stream = stream_with_lists(graph, lists, seed=spec.stream_seed)
        if backend == "materialized":
            return stream.as_source(chunk_size)
        return stream

    def make_edges():
        """The family's sorted edge list, arranged into the stream order."""
        if spec.graph_family == "near_regular":
            base = [
                tuple(e)
                for e in near_regular_edge_array(
                    spec.n, spec.delta, graph_seed
                ).tolist()
            ]
        else:
            base = make_graph().edge_list()
        return order_edges(base, seed=spec.stream_seed, order=spec.stream_order)

    if backend == "generator":
        # Lazy: the same edges + ordering are re-derived on every pass and
        # nothing survives between passes (the regeneration itself
        # materializes the edges transiently, so this trades repeated
        # generator work for not *retaining* the stream).
        def regenerate():
            edges = make_edges()
            if not edges:
                return np.empty((0, 2), dtype=np.int64)
            return np.asarray(edges, dtype=np.int64)

        return GeneratorSource(regenerate, spec.n, chunk_size=chunk_size)

    if backend == "file":
        tmpdir = tempfile.TemporaryDirectory(prefix="repro-edges-")
        path = f"{tmpdir.name}/edges.bin"
        write_edge_file(path, spec.n, iter(make_edges()))
        source = FileSource(path, chunk_size=chunk_size)
        source._tmpdir = tmpdir  # tie the temp file's lifetime to the source
        return source

    if backend == "sharded_file":
        from repro.streaming.sharded import (
            ShardedFileSource,
            write_sharded_edge_file,
        )

        edges = make_edges()
        tmpdir = tempfile.TemporaryDirectory(prefix="repro-edges-")
        path = f"{tmpdir.name}/edges.shards"
        # Force several shards even at test sizes (the point of the
        # backend is crossing boundaries); the split depends only on m,
        # so a checkpoint restore rebuilding the stream from the spec
        # reproduces the identical shard layout and cursors.
        shard_rows = max(1, -(-len(edges) // 4))
        write_sharded_edge_file(
            path, spec.n, iter(edges), shard_rows=shard_rows
        )
        source = ShardedFileSource(path, chunk_size=chunk_size)
        source._tmpdir = tmpdir  # tie the shards' lifetime to the source
        return source

    stream = TokenStream(edge_tokens(make_edges()), spec.n)
    if backend == "materialized":
        return stream.as_source(chunk_size)
    return stream


def _backend_label(stream) -> str:
    """The data plane actually driven, from the source's type.

    ``run`` accepts prebuilt streams, so the spec's ``stream_backend``
    field may not describe what really ran; result rows record this
    instead (a token stream runs as ``materialized`` one-edge blocks).
    """
    from repro.streaming.sharded import ShardedFileSource
    from repro.streaming.source import MaterializedSource

    if isinstance(stream, ShardedFileSource):
        return "sharded_file"
    if isinstance(stream, FileSource):
        return "file"
    if isinstance(stream, GeneratorSource):
        return "generator"
    if isinstance(stream, MaterializedSource):
        return "materialized"
    return type(stream).__name__


def _reject_bad_edge(n: int, edges) -> None:
    """Raise, as ``Graph.add_edge`` does, on the block's first bad edge."""
    for u, v in edges.tolist():
        for x in (u, v):
            if not 0 <= x < n:
                raise ReproError(f"vertex {x} out of range [0, {n})")
        if u == v:
            raise ReproError(f"self-loop at vertex {u} is not allowed")


def _check_output(spec: RunSpec, stream, coloring, palette_bound, entry) -> bool:
    """Validate (or measure) the output coloring against the stream's items.

    One sweep of ``stream.iter_items()`` (O(chunk_size) memory: the edges
    are never concatenated) raises on an endpoint outside ``[0, n)`` or a
    self-loop as ``Graph.add_edge`` does, finds the first monochromatic
    edge in stream order and collects the list tokens; it also hands the
    edge count to the source, sparing lazy sources a re-scan.  Validation
    then checks totality and the palette, raises the monochromatic
    witness, and checks list membership for ``needs_lists`` entries.
    Returns measured properness when ``spec.validate`` is false.
    """
    from repro.graph.coloring import coloring_and_unset, first_monochromatic

    colors, unset = coloring_and_unset(stream.n, coloring)
    witness = None
    edge_total = 0
    lists: dict[int, frozenset] = {}
    for item in stream.iter_items():
        if isinstance(item, ListToken):
            lists[item.x] = item.colors
            continue
        edge_total += len(item)
        if len(item) and (
            item.min() < 0 or item.max() >= stream.n
            or (item[:, 0] == item[:, 1]).any()
        ):
            _reject_bad_edge(stream.n, item)
        if witness is None:
            witness = first_monochromatic(colors, unset, item)
    stream.note_edge_count(edge_total)
    if not spec.validate:
        return witness is None and not unset.any()
    missing = np.flatnonzero(unset)
    if len(missing):
        raise ReproError(f"vertex {int(missing[0])} left uncolored")
    if entry.enforce_palette and palette_bound is not None:
        out = np.flatnonzero(~unset & ((colors < 1) | (colors > palette_bound)))
        if len(out):
            v = int(out[0])
            raise PaletteExceededError(v, int(colors[v]), palette_bound)
    if witness is not None:
        raise ImproperColoringError(*witness)
    if entry.needs_lists and lists:
        for v, c in coloring.items():
            if c is not None and c not in lists[v]:
                raise ListViolationError(v, c)
    return True


def run(
    spec: RunSpec,
    stream: TokenStream | None = None,
    registry: AlgorithmRegistry | None = None,
    *,
    checkpoint_every: int | None = None,
    checkpoint_path=None,
) -> ColoringResult:
    """Run one algorithm over one stream and return the uniform result.

    Validation failures raise (:class:`ReproError` subclasses) rather than
    being recorded, matching the repository's fail-loud experiment style;
    pass ``validate=False`` in the spec to inspect improper output, in
    which case the result's ``proper`` field reports measured properness
    instead of raising.

    Every run is a :class:`repro.persist.driver.ResumableRun` driven to
    completion.  A :class:`TokenStream` (built for
    ``stream_backend="tokens"`` or handed in) is turned into a block
    source once, at its entry (``as_source(1)``, one edge per block);
    everything after reads that source.

    ``checkpoint_every=k`` only adds snapshots: a ``REPROCK1`` snapshot
    is written to ``checkpoint_path`` every ``k`` blocks (and at every
    pass boundary); :func:`resume` continues such a run to an identical
    result, on every data plane.
    """
    from repro.persist.driver import ResumableRun

    with obs.span("engine.run", algorithm=spec.algorithm, n=spec.n,
                  delta=spec.delta, seed=spec.seed) as run_span:
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ReproError(
                    f"checkpoint_every must be >= 1, got {checkpoint_every}"
                )
            if checkpoint_path is None:
                raise ReproError("checkpoint_every requires a checkpoint_path")
        driver = ResumableRun(spec, stream=stream, registry=registry)
        try:
            result = driver.run_to_completion(
                checkpoint_every=checkpoint_every,
                checkpoint_path=checkpoint_path,
            )
        finally:
            driver.close()
        return _note_run_result(run_span, result)


def _note_run_result(run_span, result):
    """Stamp run outcome onto the span and the run-latency histogram."""
    obs.histogram(
        "repro_run_seconds", "wall seconds per engine run",
    ).observe(result.wall_time_s)
    if run_span is not None:
        run_span.set("colors_used", result.colors_used)
        run_span.set("passes", result.passes)
        kernel_hits = result.extras.get("kernel_hits")
        if kernel_hits:
            run_span.set("kernel_hits", kernel_hits)
    return result


def resume(
    path,
    stream: TokenStream | None = None,
    registry: AlgorithmRegistry | None = None,
    *,
    checkpoint_every: int | None = None,
    checkpoint_path=None,
) -> ColoringResult:
    """Resume a checkpointed run from disk and drive it to completion.

    The stream is rebuilt from the checkpointed spec (for runs whose
    stream the runner built); a run checkpointed over a caller-supplied
    stream must be handed an equivalent ``stream`` again.  The returned
    :class:`ColoringResult` is field-for-field identical to the
    uninterrupted run's (wall-clock timings aside); with
    ``checkpoint_every`` the resumed run keeps checkpointing (to
    ``checkpoint_path``, default: overwrite ``path``).
    """
    from repro.persist.driver import ResumableRun

    driver = ResumableRun.load(path, stream=stream, registry=registry)
    try:
        return driver.run_to_completion(
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path or path,
        )
    finally:
        driver.close()


def _dispose_stream(stream) -> None:
    """Explicitly release a runner-built stream's resources.

    File-backend streams carry a temp directory; cleaning it up here (with
    the mapping closed first) keeps cleanup deterministic instead of
    leaving it to GC finalizers and their ResourceWarnings.
    """
    tmpdir = getattr(stream, "_tmpdir", None)
    if tmpdir is not None:
        stream.close()
        tmpdir.cleanup()


def _kernel_hits_since(before: dict) -> dict:
    """Per-kernel dispatch counts added since ``before`` was read.

    ``before`` is a :func:`kernel_total_hits` read taken as a run starts,
    so the result is that run's own hits, even inside another run.
    """
    return {
        name: count - before.get(name, 0)
        for name, count in kernel_total_hits().items()
        if count > before.get(name, 0)
    }


def _package_result(
    spec, entry, config, stream, algo, coloring, wall_time,
    passes_before, timings_before, kernel_hits=None,
) -> ColoringResult:
    """Validate the output and pack the uniform result record.

    Shared by :class:`repro.persist.driver.ResumableRun`, behind every
    run, and the session service's one-pass sessions, so a resumed run's
    validation, extras, and guarantee evaluation are the same code as an
    uninterrupted one's.  ``kernel_hits`` is the run's per-kernel
    dispatch counts, recorded when non-empty.
    """
    palette_bound = algo.palette_bound
    proper = _check_output(spec, stream, coloring, palette_bound, entry)
    extras = {
        "stream_edges": stream.edge_count(),
        "stream_backend": _backend_label(stream),
    }
    if kernel_hits:
        extras["kernel_hits"] = kernel_hits
    extras["chunk_size"] = stream.chunk_size
    pass_times = list(stream.pass_seconds[timings_before:])
    if pass_times:
        extras["pass_wall_times"] = [round(t, 6) for t in pass_times]
        scan_seconds = sum(pass_times)
        if scan_seconds > 0:
            extras["edges_per_sec"] = round(
                stream.edge_count() * len(pass_times) / scan_seconds, 1
            )
    extras.update(entry.collect_extras(algo))
    result = ColoringResult(
        algorithm=entry.name,
        mode="stream",
        n=spec.n,
        delta=spec.delta,
        colors_used=num_colors_used(coloring),
        palette_bound=palette_bound,
        proper=proper,
        passes=stream.passes_used - passes_before,
        peak_space_bits=algo.peak_space_bits,
        random_bits=algo.random_bits_used,
        wall_time_s=wall_time,
        seed=spec.seed,
        config=config.to_dict(),
        tags=dict(spec.tags),
        extras=extras,
        coloring=coloring if spec.keep_coloring else None,
    )
    if spec.verify and entry.guarantee is not None:
        from repro.engine.guarantees import evaluate_guarantees

        report = evaluate_guarantees(result, entry.guarantee)
        result.extras["guarantees"] = report.to_dict()
        if spec.verify == "strict":
            report.raise_on_violation()
    return result


def run_game(
    spec: GameSpec,
    registry: AlgorithmRegistry | None = None,
) -> ColoringResult:
    """Play the adaptive insert/query game; same result schema as :func:`run`.

    Unlike :func:`run`, improper intermediate outputs do not raise — the
    game loop records them, ``proper`` reports whether every answered
    query was clean, and ``extras`` carries the error/failure counts.
    """
    from repro.adversaries import run_adversarial_game

    registry = registry if registry is not None else REGISTRY
    entry = registry.get(spec.algorithm)
    if entry.kind != "onepass":
        raise ReproError(
            f"algorithm {entry.name!r} is {entry.kind}; the adaptive game "
            "needs a onepass algorithm (process_block/query interface)"
        )
    config = entry.make_config(spec.config)
    adversary_seed = (
        spec.adversary_seed if spec.adversary_seed is not None else spec.seed
    )
    adversary = make_adversary(spec.adversary, adversary_seed)

    hits_before = kernel_total_hits()
    algo = entry.create(spec.n, spec.delta, spec.seed, config)
    start = perf_now()
    outcome = run_adversarial_game(
        algo, adversary, n=spec.n, delta=spec.delta, rounds=spec.rounds,
        query_every=spec.query_every,
    )
    wall_time = perf_now() - start
    hits = _kernel_hits_since(hits_before)

    extras = {
        "rounds": outcome.rounds,
        "errors": outcome.errors,
        "failures": outcome.failures,
        "error_rounds": list(outcome.error_rounds),
        "final_colors_used": outcome.final_colors_used,
        "max_colors_used": outcome.max_colors_used,
        "final_max_degree": outcome.final_max_degree,
        "adversary": spec.adversary,
    }
    if hits:
        extras["kernel_hits"] = hits
    extras.update(entry.collect_extras(algo))
    return ColoringResult(
        algorithm=entry.name,
        mode="game",
        n=spec.n,
        delta=spec.delta,
        colors_used=outcome.max_colors_used,
        palette_bound=algo.palette_bound,
        proper=outcome.clean,
        passes=1,
        peak_space_bits=outcome.peak_space_bits,
        random_bits=outcome.random_bits,
        wall_time_s=wall_time,
        seed=spec.seed,
        config=config.to_dict(),
        tags=dict(spec.tags),
        extras=extras,
    )
