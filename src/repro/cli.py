"""Command-line interface: run experiments and assemble reports.

Usage (also via ``python -m repro``):

    python -m repro list
    python -m repro algorithms
    python -m repro run t1 --n 128 --deltas 2,4,8,16
    python -m repro run t6 --n 96 --delta 10 --rounds 320
    python -m repro run t2 --workers 4
    python -m repro verify --all [--n 32] [--family power_law,empty]
    python -m repro report [--results benchmarks/results] [-o report.md]

Experiments are one declarative table: each id maps to a description and a
dispatcher onto the grid-based runners of
:mod:`repro.analysis.experiments`; ``algorithms`` lists the
:mod:`repro.engine` registry the experiments run through.  Bad inputs
(unknown ids, malformed parameter lists, out-of-domain config values)
exit with status 2 and a one-line message instead of a traceback.
"""

import argparse
import sys

from repro.analysis import experiments as exp
from repro.analysis.report import build_report
from repro.analysis.tables import format_table
from repro.common.exceptions import ReproError
from repro.engine import REGISTRY, set_default_stream, set_default_workers
from repro.engine.grid import get_default_workers
from repro.engine.runner import DEFAULT_STREAM_BACKEND, get_default_stream


def _ints(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise ReproError(
            f"expected a comma-separated list of integers, got {text!r}"
        ) from None


def _floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x]
    except ValueError:
        raise ReproError(
            f"expected a comma-separated list of numbers, got {text!r}"
        ) from None


def _t4_scale(args):
    scale = args.n_scale
    return lambda d: max(48, min(4096, round(scale * d**2.5)))


# One row per experiment: description + dispatcher building the runner
# call from parsed CLI arguments.  Adding an experiment is adding a row.
EXPERIMENT_TABLE: dict[str, tuple] = {
    "t1": ("deterministic passes vs Delta (Theorem 1)",
           lambda a: exp.run_t1_passes_vs_delta(
               _ints(a.deltas), n=a.n, seed=a.seed)),
    "t2": ("deterministic space vs n (Theorem 1)",
           lambda a: exp.run_t2_space_vs_n(_ints(a.ns), delta=a.delta,
                                           seed=a.seed)),
    "f1": ("potential trace (Lemma 3.5)",
           lambda a: exp.run_f1_potential_trace(n=a.n, delta=a.delta,
                                                seed=a.seed)),
    "f2": ("epoch shrinkage (Lemmas 3.7/3.8)",
           lambda a: exp.run_f2_shrinkage_trace(n=a.n, delta=a.delta,
                                                seed=a.seed)),
    "f3": ("list-mass decay (Lemma 3.10)",
           lambda a: exp.run_f3_list_mass_decay(
               n=a.n, delta=a.delta, universe=a.universe, seed=a.seed)),
    "t3": ("(deg+1)-list-coloring (Theorem 2)",
           lambda a: exp.run_t3_list_coloring(
               [(a.n, a.delta, a.universe)], seed=a.seed)),
    "t4": ("robust colors vs Delta (Theorem 3)",
           lambda a: exp.run_t4_robust_colors(
               _ints(a.deltas), n_of_delta=_t4_scale(a), seed=a.seed)),
    "t5": ("colors/space tradeoff (Corollary 4.7)",
           lambda a: exp.run_t5_tradeoff(
               _floats(a.betas), delta=a.delta, n=a.n, seed=a.seed,
               include_cgs22=True)),
    "t6": ("robustness game (adaptive vs oblivious)",
           lambda a: exp.run_t6_robustness_game(
               n=a.n, delta=a.delta, rounds=a.rounds, seed=a.seed,
               trials=a.trials)),
    "t7": ("randomness-efficient robust (Theorem 4)",
           lambda a: exp.run_t7_lowrandom(
               _ints(a.deltas), n_of_delta=lambda d: 40 * d, seed=a.seed)),
    "t8": ("communication protocol (Corollary 3.11)",
           lambda a: exp.run_t8_communication(_ints(a.ns), delta=a.delta,
                                              seed=a.seed)),
    "t9": ("deterministic landscape",
           lambda a: exp.run_t9_deterministic_landscape(
               n=a.n, delta=a.delta, seed=a.seed)),
    "t10": ("constructive Turan bound (Lemma 2.1)",
            lambda a: exp.run_t10_turan([(a.n, 0.1), (a.n, 0.3)],
                                        seed=a.seed)),
    "a1": ("ablation: selection strategy",
           lambda a: exp.run_a1_selection_ablation(n=a.n, delta=a.delta,
                                                   seed=a.seed)),
    "a2": ("ablation: sketch concentration",
           lambda a: exp.run_a2_sketch_concentration(
               n=a.n, delta=a.delta, seed=a.seed, trials=a.trials)),
    "a3": ("ablation: overflow survival",
           lambda a: exp.run_a3_overflow_survival(
               n=a.n, delta=a.delta, seed=a.seed, trials=a.trials)),
    "a4": ("ablation: family-search prime policy",
           lambda a: exp.run_a4_prime_ablation(n=a.n, delta=a.delta,
                                               seed=a.seed)),
}

# Backwards-compatible id -> description mapping.
EXPERIMENTS = {eid: desc for eid, (desc, _) in EXPERIMENT_TABLE.items()}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Coloring in Graph Streams via "
        "Deterministic and Adversarially Robust Algorithms' (PODS 2023)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiment ids")
    sub.add_parser("algorithms",
                   help="list the engine's registered algorithms")

    run = sub.add_parser("run", help="run one experiment and print its table")
    run.add_argument("experiment", choices=sorted(EXPERIMENT_TABLE),
                     metavar="experiment", nargs="?", default=None,
                     help="experiment id (see 'repro list'); omit with "
                     "--resume")
    run.add_argument("--resume", default=None, metavar="CKPT",
                     help="resume a checkpointed engine run (REPROCK1 file "
                     "written via run(..., checkpoint_every=...)) and print "
                     "its result row")
    run.add_argument("--n", type=int, default=96)
    run.add_argument("--delta", type=int, default=8)
    run.add_argument("--deltas", default="2,4,8,16")
    run.add_argument("--ns", default="32,64,128")
    run.add_argument("--betas", default="0,0.3333,0.5")
    run.add_argument("--universe", type=int, default=48)
    run.add_argument("--rounds", type=int, default=256)
    run.add_argument("--trials", type=int, default=3)
    run.add_argument("--n-scale", type=float, default=2.0)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--workers", type=int, default=1,
                     help="process-pool size for grid execution (default 1)")
    run.add_argument("--stream-backend", default=None, metavar="BACKEND",
                     help="data plane for every run of the experiment: "
                     "tokens | materialized | generator | file | "
                     f"sharded_file (default: {DEFAULT_STREAM_BACKEND})")
    run.add_argument("--chunk-size", type=int, default=None, metavar="K",
                     help="edges per block for the block backends "
                     "(default 8192)")

    profile = sub.add_parser(
        "profile",
        help="profile the registry sweep: per-kernel dispatch-layer time "
        "table plus cProfile hot functions (see repro.kernels.profile)",
    )
    profile.add_argument("--algorithms", default=None, metavar="LIST",
                         help="comma-separated algorithm names "
                         "(default: every algorithm with a profile case)")
    profile.add_argument("--chunk-size", type=int, default=None, metavar="K",
                         help="edges per block (default 8192)")
    profile.add_argument("--seed", type=int, default=401)
    profile.add_argument("--top", type=int, default=12,
                         help="cProfile rows to keep (default 12)")
    profile.add_argument("--json", default=None, metavar="FILE",
                         help="also write the machine-readable payload "
                         "to FILE ('-' for stdout instead of the tables)")

    verify = sub.add_parser(
        "verify",
        help="sweep the guarantee oracles over the workload zoo (exit 2 "
        "on any violation)",
    )
    verify.add_argument("--all", action="store_true", dest="all_algorithms",
                        help="verify every registered algorithm (the "
                        "default when --algorithms is omitted)")
    verify.add_argument("--algorithms", default=None, metavar="LIST",
                        help="comma-separated algorithm names "
                        "(default: all registered)")
    verify.add_argument("--family", default=None, metavar="LIST",
                        help="comma-separated zoo families "
                        "(default: all; see repro.graph.zoo)")
    verify.add_argument("--order", default=None, metavar="LIST",
                        help="comma-separated edge orders "
                        "(default: random,degree_sorted,bfs,adversarial)")
    verify.add_argument("--chunk-sizes", default=None, metavar="LIST",
                        help="comma-separated block sizes to difference "
                        "against the token plane (default: 64,4096)")
    verify.add_argument("--n", type=int, default=64,
                        help="instance size per workload (default 64)")
    verify.add_argument("--seed", type=int, default=0)

    lint = sub.add_parser(
        "lint",
        help="run the AST contract checker (repro.staticcheck; exit 2 "
        "on new findings or stale baseline entries)",
    )
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files or directories to lint (default: this "
                      "installed repro package's source tree)")
    lint.add_argument("--rules", default=None, metavar="LIST",
                      help="comma-separated rule ids, e.g. R1,R7 "
                      "(default: all eleven)")
    lint.add_argument("--baseline", default=None, metavar="FILE",
                      help="grandfathered-findings file (default: "
                      "lint-baseline.json at the source root, if present)")
    lint.add_argument("--json", action="store_true",
                      help="emit the machine-readable report instead of "
                      "the human one")
    lint.add_argument("--update-baseline", action="store_true",
                      help="rewrite the baseline to the current findings "
                      "and exit 0")

    serve = sub.add_parser(
        "serve",
        help="run the concurrent coloring session service "
        "(newline-JSON protocol; see repro.service)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=None,
                       help="TCP port to listen on (0 = ephemeral)")
    serve.add_argument("--stdio", action="store_true",
                       help="serve one client over stdin/stdout instead "
                       "of TCP")
    serve.add_argument("--max-sessions", type=int, default=256,
                       help="total session limit (default 256)")
    serve.add_argument("--max-resident", type=int, default=64,
                       help="in-memory sessions before LRU eviction to "
                       "checkpoints (default 64)")
    serve.add_argument("--checkpoint-dir", default=None,
                       help="where evicted sessions are checkpointed "
                       "(default: a managed temp dir)")
    serve.add_argument("--workers", type=int, default=1,
                       help="worker processes for the sharded execution "
                       "plane (1 = in-process manager, the default)")
    serve.add_argument("--queue-depth", type=int, default=32,
                       help="in-flight requests per worker before the "
                       "dispatcher sheds load as busy (default 32)")
    serve.add_argument("--ring-bytes", type=int, default=4 * 1024 * 1024,
                       help="per-worker shared-memory edge ring capacity "
                       "in bytes (default 4 MiB)")
    serve.add_argument("--worker-max-resident", type=int, default=64,
                       help="in-memory sessions per worker before LRU "
                       "eviction (default 64)")
    serve.add_argument("--checkpoint-every-ops", type=int, default=32,
                       help="acked ops between journal-truncating sync "
                       "checkpoints (pool mode; default 32)")
    serve.add_argument("--obs", action="store_true",
                       help="enable the metrics registry; snapshots are "
                       "served by the 'metrics' op / repro metrics")
    serve.add_argument("--trace-log", default=None, metavar="PATH",
                       help="append structured trace spans (newline-JSON) "
                       "to PATH; implies --obs")
    serve.add_argument("--log-json", action="store_true",
                       help="emit startup/shutdown lines as one JSON "
                       "event per line")

    submit = sub.add_parser(
        "submit",
        help="stream one workload-zoo instance through a running service",
    )
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, required=True)
    submit.add_argument("--algorithm", default="robust",
                        help="registered algorithm name (see 'repro "
                        "algorithms')")
    submit.add_argument("--family", default="power_law",
                        help="workload-zoo family (see repro.graph.zoo)")
    submit.add_argument("--order", default="insertion",
                        help="zoo edge order (insertion | random | "
                        "degree_sorted | bfs | adversarial)")
    submit.add_argument("--n", type=int, default=64)
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--chunk-size", type=int, default=None)
    submit.add_argument("--feed-edges", type=int, default=2048,
                        help="edges per feed request (default 2048)")
    submit.add_argument("--no-verify", action="store_true",
                        help="skip the strict guarantee oracle on the "
                        "session's result")
    submit.add_argument("--timeout", type=float, default=None,
                        help="per-request deadline in seconds "
                        "(default 120; 0 disables)")
    submit.add_argument("--connect-retries", type=int, default=0,
                        help="exponential-backoff reconnect attempts "
                        "when the server is not up yet (default 0)")

    loadgen = sub.add_parser(
        "loadgen",
        help="open-loop load generator: drive a running service at a "
        "fixed arrival rate and print the latency row",
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, required=True)
    loadgen.add_argument("--algorithm", default="cgs22")
    loadgen.add_argument("--family", default="power_law")
    loadgen.add_argument("--order", default="random")
    loadgen.add_argument("--n", type=int, default=64)
    loadgen.add_argument("--sessions", type=int, default=8,
                         help="total sessions to submit (default 8)")
    loadgen.add_argument("--rate", type=float, default=None,
                         help="scheduled arrivals per second "
                         "(default: burst — all sessions at t0)")
    loadgen.add_argument("--feed-edges", type=int, default=2048)
    loadgen.add_argument("--chunk-size", type=int, default=None)
    loadgen.add_argument("--timeout", type=float, default=120.0,
                         help="per-request client deadline (default 120)")
    loadgen.add_argument("--seed0", type=int, default=0,
                         help="first workload seed; session i uses "
                         "seed0 + i (default 0)")
    loadgen.add_argument("--no-verify", action="store_true")
    loadgen.add_argument("--json", action="store_true",
                         help="emit the raw measurement row as JSON")

    shard = sub.add_parser(
        "shard",
        help="sharded edge containers (repro.streaming.sharded): convert "
        "a single edge file, inspect a manifest, or verify payload "
        "checksums",
    )
    shard.add_argument("action", choices=("convert", "inspect", "verify"),
                       help="convert: single REPROED1 file -> container; "
                       "inspect: print the manifest / shard table; "
                       "verify: recompute every shard's payload sha256")
    shard.add_argument("source", metavar="PATH",
                       help="edge file (convert) or container directory "
                       "(inspect / verify)")
    shard.add_argument("--out", default=None, metavar="DIR",
                       help="target container directory (convert only)")
    shard.add_argument("--shard-rows", type=int, default=None, metavar="R",
                       help="edges per shard (default 4194304 = 64 MiB "
                       "payload per shard)")
    shard.add_argument("--json", action="store_true",
                       help="emit the manifest as JSON (inspect only)")

    metrics = sub.add_parser(
        "metrics",
        help="snapshot a live server's metrics (Prometheus text, or "
        "--json for the raw registry snapshot)",
    )
    metrics.add_argument("--host", default="127.0.0.1")
    metrics.add_argument("--port", type=int, required=True)
    metrics.add_argument("--json", action="store_true", dest="as_json",
                         help="print the JSON snapshot (histograms carry "
                         "p50/p95/p99) instead of Prometheus text")

    trace = sub.add_parser(
        "trace",
        help="record an offline traced run, or render a trace log",
    )
    trace_sub = trace.add_subparsers(dest="trace_cmd", required=True)
    record = trace_sub.add_parser(
        "record",
        help="run one workload with tracing enabled, appending spans "
        "to --out",
    )
    record.add_argument("--out", required=True, metavar="PATH",
                        help="trace log to append spans to")
    record.add_argument("--algorithm", default="robust")
    record.add_argument("--n", type=int, default=256)
    record.add_argument("--delta", type=int, default=None,
                        help="max degree (default: max(4, n // 8))")
    record.add_argument("--seed", type=int, default=0)
    record.add_argument("--graph-family", default="random_max_degree")
    record.add_argument("--checkpoint-every", type=int, default=None,
                        metavar="K",
                        help="also checkpoint every K blocks (exercises "
                        "the persist spans; uses a temp file)")
    show = trace_sub.add_parser(
        "show", help="render a trace log as a span tree",
    )
    show.add_argument("path", metavar="TRACE_LOG")
    show.add_argument("--json", action="store_true", dest="as_json",
                      help="print the parsed span records as JSON")

    report = sub.add_parser("report", help="assemble markdown from archived tables")
    report.add_argument("--results", default="benchmarks/results")
    report.add_argument("-o", "--output", default=None,
                        help="write to file instead of stdout")
    return parser


def _csv(text: str | None) -> list[str] | None:
    if text is None:
        return None
    return [item for item in text.split(",") if item]


def _run_verify(args) -> int:
    from repro.verify import verify_sweep

    try:
        if args.all_algorithms and args.algorithms:
            raise ReproError("--all and --algorithms are mutually exclusive")
        chunk_sizes = _ints(args.chunk_sizes) if args.chunk_sizes else None
        if chunk_sizes is not None and any(c < 1 for c in chunk_sizes):
            raise ReproError(
                f"chunk sizes must be >= 1, got {chunk_sizes}"
            )
        if args.n < 1:
            raise ReproError(f"--n must be >= 1, got {args.n}")
        report = verify_sweep(
            algorithms=_csv(args.algorithms),
            families=_csv(args.family),
            orders=_csv(args.order),
            chunk_sizes=chunk_sizes,
            n=args.n,
            seed=args.seed,
            registry=REGISTRY,
        )
    except ReproError as error:
        print(f"repro verify: error: {error}", file=sys.stderr)
        return 2
    headers, rows = report.table()
    print(format_table(
        headers, rows,
        title=f"guarantee verification ({report.runs} runs, "
        f"{report.cells} cells)",
    ))
    if not report.ok:
        print(f"repro verify: {len(report.violations)} violation(s):",
              file=sys.stderr)
        for violation in report.violations:
            print(f"  {violation}", file=sys.stderr)
        return 2
    print("all guarantees hold")
    return 0


def _result_row(result: dict, title: str) -> str:
    """One result record as a printed single-row table."""
    headers = [
        "algorithm", "n", "delta", "colors", "palette", "passes",
        "space_bits", "random_bits", "proper", "verified",
    ]
    guarantees = result.get("extras", {}).get("guarantees")
    rows = [[
        result["algorithm"], result["n"], result["delta"],
        result["colors_used"], result["palette_bound"], result["passes"],
        result["peak_space_bits"], result["random_bits"], result["proper"],
        guarantees["ok"] if guarantees else "-",
    ]]
    return format_table(headers, rows, title=title)


def _run_resume(args) -> int:
    from repro.engine import resume

    try:
        if args.experiment is not None:
            raise ReproError(
                "--resume resumes a checkpoint; do not also name an "
                "experiment"
            )
        result = resume(args.resume)
    except ReproError as error:
        print(f"repro run --resume: error: {error}", file=sys.stderr)
        return 2
    print(_result_row(result.to_dict(), f"resumed from {args.resume}"))
    return 0


def _run_serve(args) -> int:
    import asyncio

    from repro.service import ColoringService

    try:
        if args.stdio and args.port is not None:
            raise ReproError("--stdio and --port are mutually exclusive")
        if not args.stdio and args.port is None:
            raise ReproError("serve needs --port (or --stdio)")
        if args.port is not None and not 0 <= args.port <= 65535:
            raise ReproError(f"--port must be in [0, 65535], got {args.port}")
        if args.workers < 1:
            raise ReproError(f"--workers must be >= 1, got {args.workers}")
        if args.workers > 1 and args.stdio:
            raise ReproError("--workers applies to the TCP server, not --stdio")
    except ReproError as error:
        print(f"repro serve: error: {error}", file=sys.stderr)
        return 2

    # Obs handles bind at object construction, so enablement must come
    # before the service/pool is built.
    import repro.obs as obs

    obs.configure(
        metrics=args.obs or args.trace_log is not None,
        trace_log=args.trace_log,
        log_json=args.log_json,
    )

    if args.workers == 1:
        try:
            service = ColoringService(
                max_sessions=args.max_sessions,
                max_resident=args.max_resident,
                checkpoint_dir=args.checkpoint_dir,
            )
        except ReproError as error:
            print(f"repro serve: error: {error}", file=sys.stderr)
            return 2
        try:
            if args.stdio:
                asyncio.run(service.serve_stdio())
            else:
                asyncio.run(
                    service.serve_tcp_until_shutdown(args.host, args.port)
                )
        except KeyboardInterrupt:
            pass
        finally:
            service.manager.close()
        return 0

    # Sharded execution plane: WorkerPool.start needs a running loop, so
    # the pool lives entirely inside one asyncio.run.
    from repro.service import PoolConfig, WorkerPool

    async def _serve_pool() -> None:
        pool = await WorkerPool.start(PoolConfig(
            workers=args.workers,
            queue_depth=args.queue_depth,
            ring_bytes=args.ring_bytes,
            worker_max_resident=args.worker_max_resident,
            checkpoint_every_ops=args.checkpoint_every_ops,
            max_sessions=args.max_sessions,
            checkpoint_dir=args.checkpoint_dir,
        ))
        try:
            service = ColoringService(manager=pool)
            await service.serve_tcp_until_shutdown(args.host, args.port)
        finally:
            pool.close()

    try:
        asyncio.run(_serve_pool())
    except KeyboardInterrupt:
        pass
    except ReproError as error:
        print(f"repro serve: error: {error}", file=sys.stderr)
        return 2
    return 0


def _run_submit(args) -> int:
    from repro.graph.zoo import ZOO_FAMILIES, ZOO_ORDERS
    from repro.service import submit_workload

    try:
        if args.algorithm not in REGISTRY:
            raise ReproError(
                f"unknown algorithm {args.algorithm!r}; registered: "
                f"{REGISTRY.names()}"
            )
        if args.family not in ZOO_FAMILIES:
            raise ReproError(
                f"unknown family {args.family!r}; valid: {list(ZOO_FAMILIES)}"
            )
        if args.order != "insertion" and args.order not in ZOO_ORDERS:
            raise ReproError(
                f"unknown order {args.order!r}; valid: "
                f"{['insertion', *ZOO_ORDERS]}"
            )
        if args.n < 1:
            raise ReproError(f"--n must be >= 1, got {args.n}")
        if args.chunk_size is not None and args.chunk_size < 1:
            raise ReproError(
                f"chunk size must be >= 1, got {args.chunk_size}"
            )
        if args.feed_edges < 1:
            raise ReproError(
                f"--feed-edges must be >= 1, got {args.feed_edges}"
            )
        if args.timeout is not None and args.timeout < 0:
            raise ReproError(f"--timeout must be >= 0, got {args.timeout}")
        if args.connect_retries < 0:
            raise ReproError(
                f"--connect-retries must be >= 0, got {args.connect_retries}"
            )
        from repro.service.client import DEFAULT_TIMEOUT

        timeout = DEFAULT_TIMEOUT if args.timeout is None \
            else (args.timeout or None)  # 0 disables the deadline
        result = submit_workload(
            args.host, args.port, args.algorithm, args.family, args.n,
            order=args.order, seed=args.seed,
            verify=False if args.no_verify else "strict",
            chunk_size=args.chunk_size, feed_edges=args.feed_edges,
            timeout=timeout, connect_retries=args.connect_retries,
        )
    except ReproError as error:
        print(f"repro submit: error: {error}", file=sys.stderr)
        return 2
    print(_result_row(
        result,
        f"{args.algorithm} on {args.family}/{args.order} via "
        f"{args.host}:{args.port}",
    ))
    return 0


def _run_loadgen(args) -> int:
    import json

    from repro.graph.zoo import ZOO_FAMILIES, ZOO_ORDERS
    from repro.service import LoadSpec, run_load_sync

    try:
        if args.algorithm not in REGISTRY:
            raise ReproError(
                f"unknown algorithm {args.algorithm!r}; registered: "
                f"{REGISTRY.names()}"
            )
        if args.family not in ZOO_FAMILIES:
            raise ReproError(
                f"unknown family {args.family!r}; valid: {list(ZOO_FAMILIES)}"
            )
        if args.order != "insertion" and args.order not in ZOO_ORDERS:
            raise ReproError(
                f"unknown order {args.order!r}; valid: "
                f"{['insertion', *ZOO_ORDERS]}"
            )
        row = run_load_sync(LoadSpec(
            host=args.host, port=args.port,
            algorithm=args.algorithm, family=args.family, n=args.n,
            order=args.order,
            verify=False if args.no_verify else "strict",
            sessions=args.sessions, rate=args.rate,
            feed_edges=args.feed_edges, chunk_size=args.chunk_size,
            timeout=args.timeout or None, seed0=args.seed0,
        ))
    except ReproError as error:
        print(f"repro loadgen: error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(row, indent=2, default=str))
    else:
        headers = ["sessions", "rate", "throughput_rps", "p50_ms",
                   "p95_ms", "p99_ms", "busy_retries", "failures"]
        rows = [[
            row["sessions"],
            row["offered_rate"] if row["offered_rate"] else "burst",
            f"{row['throughput_rps']:.2f}",
            f"{row['latency_p50_ms']:.1f}",
            f"{row['latency_p95_ms']:.1f}",
            f"{row['latency_p99_ms']:.1f}",
            row["busy_retries"], row["failures"],
        ]]
        print(format_table(
            headers, rows,
            title=f"{args.algorithm} on {args.family}/{args.order} "
            f"n={args.n} via {args.host}:{args.port}",
        ))
    if row["failures"]:
        for example in row["failure_examples"]:
            print(f"repro loadgen: failure: {example}", file=sys.stderr)
        return 2
    return 0


def _run_lint(args) -> int:
    from pathlib import Path

    from repro.staticcheck import run_lint, save_baseline

    try:
        if args.paths:
            paths = list(args.paths)
            root = Path.cwd()
        else:
            package_dir = Path(__file__).resolve().parent
            paths = [package_dir]
            root = (package_dir.parents[1]
                    if package_dir.parent.name == "src"
                    else package_dir.parent)
        baseline = Path(args.baseline) if args.baseline else None
        if baseline is None:
            candidate = root / "lint-baseline.json"
            baseline = candidate if candidate.exists() else None
        report = run_lint(paths, rules=_csv(args.rules),
                          baseline_path=baseline, root=root)
        if args.update_baseline:
            target = baseline if baseline is not None \
                else root / "lint-baseline.json"
            save_baseline(target, report.findings)
            print(f"wrote {target} ({len(report.findings)} finding(s))")
            return 0
    except ReproError as error:
        print(f"repro lint: error: {error}", file=sys.stderr)
        return 2
    print(report.to_json() if args.json else report.render())
    return report.exit_code


def _run_metrics(args) -> int:
    import asyncio
    import json

    from repro.service import ServiceClient

    async def _fetch() -> dict:
        client = await ServiceClient.connect(args.host, args.port)
        async with client:
            return await client.request("metrics")

    try:
        response = asyncio.run(_fetch())
    except (ReproError, OSError) as error:
        print(f"repro metrics: error: {error}", file=sys.stderr)
        return 2
    if not response.get("metrics_enabled"):
        print("repro metrics: error: server has metrics disabled "
              "(start it with repro serve --obs)", file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(response["metrics"], indent=2, sort_keys=True))
    else:
        print(response["prometheus"], end="")
    return 0


def _run_trace(args) -> int:
    if args.trace_cmd == "record":
        return _run_trace_record(args)
    return _run_trace_show(args)


def _run_trace_record(args) -> int:
    import tempfile

    import repro.obs as obs
    from repro.engine import RunSpec, run

    obs.configure(metrics=True, trace_log=args.out)
    delta = args.delta if args.delta is not None else max(4, args.n // 8)
    try:
        spec = RunSpec(
            algorithm=args.algorithm, n=args.n, delta=delta,
            seed=args.seed, graph_family=args.graph_family,
        )
        if args.checkpoint_every is not None:
            with tempfile.NamedTemporaryFile(suffix=".ck") as ck:
                result = run(spec, checkpoint_every=args.checkpoint_every,
                             checkpoint_path=ck.name)
        else:
            result = run(spec)
    except ReproError as error:
        print(f"repro trace record: error: {error}", file=sys.stderr)
        return 2
    spans = obs.read_trace_log(args.out)
    print(f"repro trace: recorded {len(spans)} span(s) to {args.out} "
          f"(algorithm={spec.algorithm}, colors_used={result.colors_used}, "
          f"passes={result.passes})")
    return 0


def _run_trace_show(args) -> int:
    import json

    import repro.obs as obs

    try:
        records = obs.read_trace_log(args.path)
    except (ReproError, OSError) as error:
        print(f"repro trace show: error: {error}", file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(records, indent=2, sort_keys=True))
        return 0
    by_span = {r["span"]: r for r in records}
    children: dict = {}
    roots = []
    for record in records:
        parent = record.get("parent")
        if parent is not None and parent in by_span:
            children.setdefault(parent, []).append(record)
        else:
            roots.append(record)

    def _render(record, depth):
        fields = record.get("fields", {})
        extra = "".join(f" {k}={v}" for k, v in sorted(fields.items()))
        print(f"{'  ' * depth}{record['name']} "
              f"[{1e3 * record['dur_s']:.2f} ms] "
              f"pid={record['pid']} trace={record['trace']}{extra}")
        for child in children.get(record["span"], []):
            _render(child, depth + 1)

    for root in roots:
        _render(root, 0)
    print(f"repro trace: {len(records)} span(s), "
          f"{len({r['trace'] for r in records})} trace(s), "
          f"{len({r['pid'] for r in records})} process(es)")
    return 0


def _run_profile(args) -> int:
    import json

    from repro.kernels.profile import format_profile, profile_sweep

    try:
        payload = profile_sweep(
            _csv(args.algorithms), chunk_size=args.chunk_size,
            seed=args.seed, top=args.top,
        )
    except ReproError as error:
        print(f"repro profile: error: {error}", file=sys.stderr)
        return 2
    if args.json == "-":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if args.json:
        with open(args.json, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
    print(format_profile(payload))
    return 0


def _run_shard(args) -> int:
    import json

    from repro.streaming.sharded import (
        DEFAULT_SHARD_ROWS,
        read_shard_manifest,
        verify_shard_checksums,
        write_sharded_edge_file,
    )
    from repro.streaming.source import FileSource

    try:
        if args.shard_rows is not None and args.shard_rows < 1:
            raise ReproError(
                f"--shard-rows must be >= 1, got {args.shard_rows}"
            )
        if args.action == "convert":
            if args.out is None:
                raise ReproError("convert needs --out DIR for the container")
            source = FileSource(args.source)
            try:
                manifest = write_sharded_edge_file(
                    args.out, source.n, source.iter_items(),
                    shard_rows=args.shard_rows or DEFAULT_SHARD_ROWS,
                )
            finally:
                source.close()
            print(f"wrote {args.out}: n={manifest['n']} m={manifest['m']} "
                  f"in {len(manifest['shards'])} shard(s) "
                  f"(max_degree {manifest['max_degree']})")
            return 0
        if args.action == "verify":
            manifest = verify_shard_checksums(args.source)
            print(f"{args.source}: ok — {len(manifest['shards'])} shard(s), "
                  f"m={manifest['m']}, all payload checksums match")
            return 0
        manifest = read_shard_manifest(args.source)
    except ReproError as error:
        print(f"repro shard: error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(manifest, indent=2, sort_keys=True))
        return 0
    headers = ["shard", "rows", "row_start", "sha256"]
    rows = [[s["name"], s["rows"], s["row_start"], s["sha256"][:12] + "…"]
            for s in manifest["shards"]]
    print(format_table(
        headers, rows,
        title=f"{args.source}: n={manifest['n']} m={manifest['m']} "
        f"shard_rows={manifest['shard_rows']} "
        f"max_degree={manifest.get('max_degree', '?')}",
    ))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for eid in sorted(EXPERIMENTS):
            print(f"  {eid:4} {EXPERIMENTS[eid]}")
        return 0
    if args.command == "algorithms":
        headers, rows = REGISTRY.describe()
        print(format_table(headers, rows,
                           title="registered algorithms (repro.engine)"))
        return 0
    if args.command == "lint":
        return _run_lint(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "submit":
        return _run_submit(args)
    if args.command == "loadgen":
        return _run_loadgen(args)
    if args.command == "profile":
        return _run_profile(args)
    if args.command == "metrics":
        return _run_metrics(args)
    if args.command == "trace":
        return _run_trace(args)
    if args.command == "run":
        if args.resume is not None:
            return _run_resume(args)
        if args.experiment is None:
            print("repro run: error: name an experiment (see 'repro list') "
                  "or pass --resume CKPT", file=sys.stderr)
            return 2
        description, dispatch = EXPERIMENT_TABLE[args.experiment]
        saved_workers = get_default_workers()
        saved_stream = get_default_stream()
        try:
            if args.workers < 1:
                raise ReproError(f"--workers must be >= 1, got {args.workers}")
            set_default_workers(args.workers)
            set_default_stream(backend=args.stream_backend,
                               chunk_size=args.chunk_size)
            headers, rows = dispatch(args)
        except ReproError as error:
            print(f"repro run {args.experiment}: error: {error}",
                  file=sys.stderr)
            return 2
        finally:
            set_default_workers(saved_workers)
            set_default_stream(*saved_stream)
        print(format_table(headers, rows,
                           title=f"{args.experiment}: {description}"))
        return 0
    if args.command == "verify":
        return _run_verify(args)
    if args.command == "shard":
        return _run_shard(args)
    if args.command == "report":
        text = build_report(args.results)
        if args.output:
            with open(args.output, "w") as f:
                f.write(text)
            print(f"wrote {args.output}")
        else:
            print(text)
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
