"""Declarative experiment grids over the engine.

A :class:`GridSpec` is the PyExperimenter-style description of a batch:
named parameter axes (expanded as a cartesian product, in insertion order,
last axis fastest), constants shared by every job, and the run mode
("stream" or "game").  Keys route automatically: :class:`RunSpec` /
:class:`GameSpec` field names become spec fields, keys starting with
``_`` become result tags (labels for grouping/derived columns), and
everything else is an algorithm config option.

:class:`GridRunner` expands a grid into jobs, executes them — inline, or
across a process pool, where only the specs cross the process boundary
and each job builds its own stream — and hands back one
:class:`ColoringResult` per job, in job order.  :func:`results_table`
turns results plus a derived column list into the ``(headers, rows)``
pair the rest of the repository formats and archives.
"""

import functools
import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

from repro.common.exceptions import ReproError
from repro.engine.result import ColoringResult
from repro.engine.runner import (
    GameSpec,
    RunSpec,
    get_default_stream,
    run,
    run_game,
    set_default_stream,
)

__all__ = [
    "GridRunner",
    "GridSpec",
    "get_default_workers",
    "results_table",
    "set_default_workers",
]

_RUN_FIELDS = {f.name for f in fields(RunSpec)}
_GAME_FIELDS = {f.name for f in fields(GameSpec)}

# Process-level default for GridRunner(workers=None); the CLI's --workers
# flag sets it once instead of threading a parameter through every
# experiment signature.
_default_workers = 1


def set_default_workers(workers: int) -> None:
    """Set the worker count used by ``GridRunner(workers=None)``."""
    global _default_workers
    if workers < 1:
        raise ReproError(f"workers must be >= 1, got {workers}")
    _default_workers = workers


def get_default_workers() -> int:
    """The worker count used by ``GridRunner(workers=None)``."""
    return _default_workers


@dataclass(frozen=True)
class GridSpec:
    """A declarative parameter grid.

    ``axes`` maps parameter names to value sequences; ``constants`` are
    merged into every job.  A ``derive`` callable may compute per-job
    fields from the expanded axis values (seeds derived from parameters,
    algorithm picked per label, ...); whatever it returns is merged over
    the job dict.
    """

    axes: dict = field(default_factory=dict)
    constants: dict = field(default_factory=dict)
    mode: str = "stream"  # "stream" | "game"
    derive: object = None  # Callable[[dict], dict] | None

    def __post_init__(self):
        if self.mode not in ("stream", "game"):
            raise ReproError(f"grid mode must be stream|game, got {self.mode!r}")
        for name, values in self.axes.items():
            if isinstance(values, (str, bytes)) or not hasattr(values, "__iter__"):
                raise ReproError(
                    f"axis {name!r} must be a sequence of values, got {values!r}"
                )

    def jobs(self) -> list[dict]:
        """Expand the cartesian product into per-job parameter dicts."""
        names = list(self.axes)
        value_lists = [list(self.axes[name]) for name in names]
        out = []
        for combo in itertools.product(*value_lists):
            job = dict(self.constants)
            job.update(zip(names, combo))
            if self.derive is not None:
                job.update(self.derive(dict(job)))
            out.append(job)
        return out

    def specs(self) -> list:
        """Expand into concrete :class:`RunSpec` / :class:`GameSpec` jobs."""
        return [_job_to_spec(job, self.mode) for job in self.jobs()]


def _job_to_spec(job: dict, mode: str):
    """Route job keys into spec fields, tags (``_``-prefixed), and config."""
    spec_fields = _GAME_FIELDS if mode == "game" else _RUN_FIELDS
    spec_kwargs: dict = {}
    config = dict(job.get("config", {}))
    tags = dict(job.get("tags", {}))
    for key, value in job.items():
        if key in ("config", "tags"):
            continue
        if key.startswith("_"):
            tags[key[1:]] = value
        elif key in spec_fields:
            spec_kwargs[key] = value
        else:
            config[key] = value
    spec_kwargs["config"] = config
    spec_kwargs["tags"] = tags
    try:
        return GameSpec(**spec_kwargs) if mode == "game" else RunSpec(**spec_kwargs)
    except TypeError as exc:
        raise ReproError(f"bad grid job {sorted(job)}: {exc}") from None


def _execute_spec(spec, stream_defaults=None) -> ColoringResult:
    """Module-level job executor (picklable for the process pool).

    ``stream_defaults`` carries the parent's ``(backend, chunk_size)``
    data-plane defaults into pool workers, which under spawn/forkserver
    start methods re-import the runner module and would otherwise fall
    back to the module defaults silently.
    """
    if stream_defaults is not None:
        set_default_stream(*stream_defaults)
    if isinstance(spec, GameSpec):
        return run_game(spec)
    return run(spec)


class GridRunner:
    """Expand a :class:`GridSpec` and execute its jobs.

    ``workers > 1`` fans jobs out over a :class:`ProcessPoolExecutor`;
    results always come back in job order.  Pool workers resolve
    algorithms against the default :data:`~repro.engine.registry.REGISTRY`
    (a freshly imported module), so grids over a custom registry must run
    with ``workers=1``.
    """

    def __init__(self, workers: int | None = None):
        self.workers = workers

    def _effective_workers(self, num_jobs: int) -> int:
        workers = self.workers if self.workers is not None else _default_workers
        return max(1, min(workers, num_jobs))

    def run(self, grid: GridSpec) -> list[ColoringResult]:
        """Execute every job of the grid; one result per job, in order."""
        return self.run_specs(grid.specs())

    def run_specs(self, specs: list) -> list[ColoringResult]:
        """Execute pre-built specs (mixing stream and game specs is fine)."""
        workers = self._effective_workers(len(specs))
        if workers <= 1:
            return [_execute_spec(spec) for spec in specs]
        job = functools.partial(
            _execute_spec, stream_defaults=get_default_stream(),
        )
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(job, specs))

    def table(self, grid: GridSpec, columns) -> tuple[list[str], list[list]]:
        """Run the grid and derive one table row per result."""
        return results_table(self.run(grid), columns)


def _column_getter(column):
    if callable(column):
        return column

    def get(result: ColoringResult):
        if hasattr(result, column):
            return getattr(result, column)
        if column in result.extras:
            return result.extras[column]
        if column in result.tags:
            return result.tags[column]
        raise ReproError(f"result has no column {column!r}")

    return get


def results_table(results, columns) -> tuple[list[str], list[list]]:
    """Derive ``(headers, rows)`` from results.

    ``columns`` is a list of ``(header, source)`` pairs where ``source``
    is either a callable ``result -> value`` or a string naming a result
    field / extras key / tag.
    """
    headers = [header for header, _ in columns]
    getters = [_column_getter(source) for _, source in columns]
    rows = [[get(result) for get in getters] for result in results]
    return headers, rows
