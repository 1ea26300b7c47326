"""repro.engine — the unified front door to every coloring algorithm.

The engine replaces per-algorithm constructor/solve signatures with one
stable surface:

- :class:`StreamingColorer` — the structural protocol every algorithm
  (core and baseline) implements;
- :data:`REGISTRY` / :class:`AlgorithmRegistry` — string-keyed algorithm
  lookup with per-algorithm, dict-round-trippable config dataclasses;
- :func:`run` — ``run(spec, stream) -> ColoringResult``, the single entry
  point for static streams (:func:`run_game` for the adaptive game);
- :class:`ColoringResult` — the uniform, schema-validated result record;
- :class:`GridSpec` / :class:`GridRunner` — declarative parameter grids
  expanded into jobs, executed inline or across a process pool, and
  reduced to one-row-per-run tables via :func:`results_table`.

Quickstart::

    from repro.engine import RunSpec, run

    result = run(RunSpec(algorithm="deterministic", n=128, delta=8,
                         graph_seed=7))
    print(result.colors_used, result.passes, result.peak_space_bits)

See README.md for the full tour and DESIGN.md for the architecture.
"""

from repro.engine.config import (
    ACS22Config,
    AlgorithmConfig,
    CGS22Config,
    DeterministicConfig,
    ListColoringConfig,
    LowRandomConfig,
    RobustConfig,
)
from repro.engine.grid import (
    GridRunner,
    GridSpec,
    results_table,
    set_default_workers,
)
from repro.engine.guarantees import (
    GuaranteeCheck,
    GuaranteeReport,
    GuaranteeSpec,
    evaluate_guarantees,
)
from repro.engine.protocol import StreamingColorer
from repro.engine.registry import REGISTRY, AlgorithmEntry, AlgorithmRegistry
from repro.engine.result import (
    RESULT_SCHEMA,
    ColoringResult,
    validate_result_dict,
)
from repro.engine.runner import (
    GRAPH_FAMILIES,
    STREAM_BACKENDS,
    GameSpec,
    RunSpec,
    make_adversary,
    resume,
    run,
    run_game,
    set_default_stream,
)

__all__ = [
    "ACS22Config",
    "AlgorithmConfig",
    "AlgorithmEntry",
    "AlgorithmRegistry",
    "CGS22Config",
    "ColoringResult",
    "DeterministicConfig",
    "GRAPH_FAMILIES",
    "GameSpec",
    "GridRunner",
    "GridSpec",
    "GuaranteeCheck",
    "GuaranteeReport",
    "GuaranteeSpec",
    "evaluate_guarantees",
    "ListColoringConfig",
    "LowRandomConfig",
    "REGISTRY",
    "RESULT_SCHEMA",
    "RobustConfig",
    "RunSpec",
    "STREAM_BACKENDS",
    "StreamingColorer",
    "make_adversary",
    "results_table",
    "resume",
    "run",
    "run_game",
    "set_default_stream",
    "set_default_workers",
    "validate_result_dict",
]
