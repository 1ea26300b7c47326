"""``repro profile`` — measure where the registry sweep actually spends time.

Runs one block-path case per registered algorithm under
:func:`repro.kernels.measure_kernels` (per-kernel ``perf_counter``
totals) with a cProfile capture around the whole sweep, and emits the
per-kernel time table as text and JSON.  This is how the kernel list in
:mod:`repro.kernels` was selected ("hot" is measured, not asserted) and
the permanent observability hook for future perf work: rerun it after
any data-plane change and compare kernel shares.
"""

import cProfile
import io
import os
import pstats

from repro.common.exceptions import ReproError
from repro.kernels import NUMPY_KERNELS, kernel_total_hits, measure_kernels

__all__ = ["PROFILE_CASES", "format_profile", "profile_sweep"]

#: One block-path case per registered algorithm, sized so the full sweep
#: stays in CI-smoke territory (seconds, not minutes) while every kernel
#: gets enough hits for a stable share estimate.
PROFILE_CASES = (
    ("deterministic", 4096, 16, {"selection": "greedy_slack"},
     "materialized", "random_max_degree"),
    ("list_coloring", 96, 6, {"prime_policy": "scaled"},
     "materialized", "random_max_degree"),
    ("robust", 1024, 12, {}, "materialized", "random_max_degree"),
    ("robust_lowrandom", 512, 12, {}, "materialized", "random_max_degree"),
    ("cgs22", 512, 12, {}, "materialized", "random_max_degree"),
    ("acs22", 512, 8, {}, "materialized", "random_max_degree"),
    ("naive", 4096, 16, {}, "file", "near_regular"),
    ("palette_sparsification", 2048, 12, {}, "file", "near_regular"),
)


def profile_sweep(algorithms=None, *, chunk_size=None, seed=401, top=12,
                  registry=None):
    """Profile the registry sweep; returns the machine-readable payload.

    ``algorithms`` restricts the sweep (default: every registered
    algorithm with a profile case).  ``top`` bounds the cProfile function
    rows carried in the payload.
    """
    from repro.engine import RunSpec, run
    from repro.engine.runner import _kernel_hits_since

    cases_by_algo = {case[0]: case for case in PROFILE_CASES}
    if algorithms is None:
        picked = list(PROFILE_CASES)
    else:
        picked = []
        for name in algorithms:
            if name not in cases_by_algo:
                raise ReproError(
                    f"no profile case for algorithm {name!r}; "
                    f"available: {sorted(cases_by_algo)}"
                )
            picked.append(cases_by_algo[name])
    cases = []
    profiler = cProfile.Profile()
    with measure_kernels() as timings:
        for algo, n, delta, config, backend, family in picked:
            spec = RunSpec(
                algorithm=algo, n=n, delta=delta, graph_seed=seed,
                config=config, graph_family=family, stream_backend=backend,
                chunk_size=chunk_size, validate=algo != "naive",
            )
            hits_before = kernel_total_hits()
            profiler.enable()
            result = run(spec, registry=registry)
            profiler.disable()
            hits = _kernel_hits_since(hits_before)
            cases.append({
                "algorithm": algo,
                "n": n,
                "delta": delta,
                "backend": backend,
                "edges": result.extras["stream_edges"],
                "passes": result.passes,
                "wall_time_s": round(result.wall_time_s, 6),
                "edges_per_sec": result.extras.get("edges_per_sec"),
                "kernel_hits": hits,
            })
    total_kernel_s = sum(cell[1] for cell in timings.values()) or 1.0
    kernels = {}
    for name in sorted(NUMPY_KERNELS):
        calls, seconds = timings.get(name, (0, 0.0))
        kernels[name] = {
            "calls": calls,
            "total_s": round(seconds, 6),
            "mean_us": round(seconds / calls * 1e6, 3) if calls else 0.0,
            "share": round(seconds / total_kernel_s, 4) if calls else 0.0,
        }
    stats = pstats.Stats(profiler, stream=io.StringIO())
    rows = sorted(
        stats.stats.items(), key=lambda kv: kv[1][2], reverse=True
    )[:max(0, top)]
    top_functions = [
        {
            "function": f"{path.rsplit('/', 1)[-1]}:{line}({func})",
            "ncalls": calls,
            "tottime_s": round(tottime, 6),
            "cumtime_s": round(cumtime, 6),
        }
        for (path, line, func), (_, calls, tottime, cumtime, _) in rows
    ]
    from repro.obs import host_metadata

    return {
        "host_cpus": os.cpu_count(),
        # Full host block (platform, machine, python_version, ...) so
        # --json payloads are comparable across machines.
        "host": host_metadata(),
        "cases": cases,
        "kernel_total_s": round(sum(c[1] for c in timings.values()), 6),
        "kernels": kernels,
        "top_functions": top_functions,
    }


def format_profile(payload: dict) -> str:
    """Render a profile payload as the human-readable report."""
    from repro.analysis.tables import format_table

    out = [
        f"{len(payload['cases'])} cases, host_cpus={payload['host_cpus']}",
        "",
        format_table(
            ["kernel", "calls", "total_s", "mean_us", "share"],
            [
                [
                    name,
                    rec["calls"],
                    f"{rec['total_s']:.4f}",
                    f"{rec['mean_us']:.1f}",
                    f"{100 * rec['share']:.1f}%",
                ]
                for name, rec in sorted(
                    payload["kernels"].items(),
                    key=lambda kv: kv[1]["total_s"], reverse=True,
                )
            ],
            title=f"per-kernel time "
            f"(total {payload['kernel_total_s']:.4f}s in kernels)",
        ),
        "",
        format_table(
            ["algorithm", "n", "delta", "backend", "passes", "wall_s",
             "edges/s", "kernel hits"],
            [
                [
                    case["algorithm"], case["n"], case["delta"],
                    case["backend"], case["passes"],
                    f"{case['wall_time_s']:.3f}",
                    (f"{case['edges_per_sec']:.3e}"
                     if case["edges_per_sec"] else "-"),
                    sum(case["kernel_hits"].values()),
                ]
                for case in payload["cases"]
            ],
            title="per-case sweep",
        ),
        "",
        format_table(
            ["function", "ncalls", "tottime_s", "cumtime_s"],
            [
                [row["function"], row["ncalls"],
                 f"{row['tottime_s']:.4f}", f"{row['cumtime_s']:.4f}"]
                for row in payload["top_functions"]
            ],
            title="top functions by tottime (cProfile)",
        ),
    ]
    return "\n".join(out)
