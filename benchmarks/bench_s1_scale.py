"""S1 — scalability: larger-n regimes plus block-data-plane throughput.

Two historical legs pin down what the engine sustains end to end (the
deterministic algorithm at n=1024, the robust algorithm under adaptive
pressure at n=2048).  The throughput sweep then runs EVERY registered
algorithm on the ``tokens`` plane and on its block backend over the
*same* stream, recording edges/sec over the streaming passes; the
colorings must be identical pairwise.  Every algorithm has one path, so
a token leg runs the same code at one edge per block.  The one-pass
cases carry a speedup floor — ≥3x for ``robust``, ≥4x for ``naive``,
and looser floors for the event-bound sketch algorithms — which guards
how well their ``process_block`` amortises its per-block overhead over
a large block.  A multipass algorithm's ratio measures the same
chunking overhead of its pass machine and is recorded without a floor.

Each sweep case additionally records the per-kernel dispatch totals
(calls + seconds, via ``measure_kernels``).  ``BENCH_S1_SMOKE=1`` shrinks
the sweep for CI's ``scale-smoke`` job.  The sharded scale leg streams
an out-of-core circulant workload (default n=10^6 / m=10^7,
``BENCH_S1_FULL`` for 10^7 / 10^8) from a multi-shard container, gates
peak RSS against a declared per-algorithm budget, and requires
bit-identity against a single-file run of the same edges.  The numbers land both in the usual text table
and in the machine-readable ``BENCH_s1_scale.json`` artifact that CI
uploads (and checks for completeness against the registry).
"""

import os
import tempfile
import time

from conftest import run_once

from repro.engine import REGISTRY, GameSpec, RunSpec, run, run_game
from repro.graph.zoo import circulant_edge_blocks, write_zoo_shards
from repro.kernels import measure_kernels
# The sampler lives in repro.obs.sysinfo so serve metrics, the obs
# overhead gate, and this bench all read VmRSS the same way.
from repro.obs.sysinfo import RssSampler as _RssSampler
from repro.obs.sysinfo import rss_bytes as _rss_bytes
from repro.streaming import FileSource, ShardedFileSource, write_edge_file

#: CI's ``scale-smoke`` job sets this to keep the sweep quick; sizes shrink
#: and the block-vs-token speedup floors turn into record-only fields
#: (timing ratios at toy sizes are noise, and the full-size bench-smoke
#: job still enforces them on every push).
SMOKE = bool(os.environ.get("BENCH_S1_SMOKE"))

THROUGHPUT_N = 512 if SMOKE else 16384
THROUGHPUT_DELTA = 24

#: One throughput case per registered algorithm:
#: (algorithm, n, delta, config, block backend, graph family, speedup floor).
#: A floor bounds the block backend's edges/sec over the one-edge blocks
#: of the token leg, i.e. how far ``process_block`` amortises its
#: per-call overhead; None = record only (every multipass case).
THROUGHPUT_CASES = [
    ("deterministic", THROUGHPUT_N, THROUGHPUT_DELTA,
     {"selection": "greedy_slack"}, "materialized", "random_max_degree",
     None),
    ("list_coloring", 160, 6, {"prime_policy": "scaled"}, "materialized",
     "random_max_degree", None),
    ("robust", 512 if SMOKE else 2048, 16, {}, "materialized",
     "random_max_degree", 3.0),
    ("robust_lowrandom", 512 if SMOKE else 1024, 16, {}, "materialized",
     "random_max_degree", 2.0),
    ("cgs22", 512 if SMOKE else 1024, 16, {}, "materialized",
     "random_max_degree", 2.0),
    ("acs22", 512 if SMOKE else 1024, 8, {}, "materialized",
     "random_max_degree", None),
    ("naive", THROUGHPUT_N, THROUGHPUT_DELTA, {}, "file", "near_regular",
     4.0),
    ("palette_sparsification", 512 if SMOKE else 4096, 16, {}, "file",
     "near_regular", None),
]


#: The out-of-core scale leg: a circulant workload (m = n * k exactly,
#: max degree 2k, generated block-by-block — never materialized) written
#: as a sharded REPROED2-format container, streamed through the one-pass
#: algorithms while a sampler thread watches peak RSS against a declared
#: per-algorithm budget, then differenced bit-for-bit against a
#: single-file FileSource run over the same edges.  Default n=10^6 /
#: m=10^7; ``BENCH_S1_FULL=1`` lifts it to the ROADMAP's 10^7 / 10^8
#: target (needs ~12 GB RAM for the robust algorithm's O(n) state and a
#: few GB of disk — a workstation leg, not a CI one); BENCH_S1_SMOKE
#: shrinks it for CI's scale-smoke job.
SCALE_FULL = bool(os.environ.get("BENCH_S1_FULL"))
if SMOKE:
    SCALE_N, SCALE_K = 20_000, 5  # m = 10^5
elif SCALE_FULL:
    SCALE_N, SCALE_K = 10**7, 10  # m = 10^8
else:
    SCALE_N, SCALE_K = 10**6, 10  # m = 10^7
SCALE_SEED = 11
SCALE_CHUNK = 65536
SCALE_SHARD_COUNT = 8

#: Declared RSS budgets, per algorithm: (fixed_bytes, bytes_per_vertex).
#: The per-vertex term covers the algorithm's own semi-streaming state
#: (store/levels plus the Python coloring dict); the fixed term covers
#: interpreter + numpy + chunk buffers.  Locally measured deltas at
#: n=10^6 / m=10^7: naive ~120 MB (vs 224 MB budget), robust ~800 MB (vs
#: 1228 MB budget) — while the input payload is 16 * m bytes (160 MB at
#: default, 1.6 GB at full), which is what NOT appearing in the deltas
#: proves the plane is out-of-core.
SCALE_RSS_BUDGETS = {
    "naive": (64 * 2**20, 160),
    "robust": (128 * 2**20, 1100),
}


def run_sharded_leg(rows):
    """The out-of-core scale leg; returns the ``sharded`` JSON record."""
    m = SCALE_N * SCALE_K
    shard_rows = -(-m // SCALE_SHARD_COUNT)
    rss_supported = _rss_bytes() is not None
    record = {
        "n": SCALE_N,
        "k": SCALE_K,
        "m": m,
        "seed": SCALE_SEED,
        "chunk_size": SCALE_CHUNK,
        "shard_rows": shard_rows,
        "input_payload_bytes": 16 * m,
        "rss_supported": rss_supported,
        "full": SCALE_FULL,
        "algorithms": {},
    }
    with tempfile.TemporaryDirectory(prefix="repro-s1-sharded-") as tmp:
        container = os.path.join(tmp, "circulant.shards")
        single = os.path.join(tmp, "circulant.bin")
        manifest = write_zoo_shards(
            container, "circulant", SCALE_N, SCALE_SEED,
            shard_rows=shard_rows, k=SCALE_K,
        )
        write_edge_file(
            single, SCALE_N,
            circulant_edge_blocks(SCALE_N, SCALE_K, SCALE_SEED),
        )
        delta = manifest["max_degree"]
        record["delta"] = delta
        record["shards"] = len(manifest["shards"])
        for algo, (fixed, per_vertex) in SCALE_RSS_BUDGETS.items():
            spec = RunSpec(
                algorithm=algo, n=SCALE_N, delta=delta, seed=SCALE_SEED,
                chunk_size=SCALE_CHUNK, keep_coloring=True,
                validate=algo != "naive",
            )
            rss_before = _rss_bytes() or 0
            budget = rss_before + fixed + per_vertex * SCALE_N
            sampler = _RssSampler()
            sampler.start()
            start = time.perf_counter()
            source = ShardedFileSource(container, chunk_size=SCALE_CHUNK)
            sharded = run(spec, stream=source)
            source.close()
            seconds = time.perf_counter() - start
            rss_peak = sampler.finish()
            rss_ok = (not rss_supported) or rss_peak <= budget
            # Bit-identity differential AFTER the sampled window: the
            # single-file source is mmap'd, and resident page-cache pages
            # would pollute the sharded plane's RSS reading.
            fs = FileSource(single, chunk_size=SCALE_CHUNK)
            single_run = run(spec, stream=fs)
            fs.close()
            identical = _fingerprint(sharded) == _fingerprint(single_run)
            ok = bool(rss_ok and identical)
            rows.append([
                f"sharded {algo} (n={SCALE_N:.0e})", SCALE_N, delta, m,
                sharded.passes,
                f"{sharded.extras['edges_per_sec']:.3e}", ok,
            ])
            record["algorithms"][algo] = {
                "edges_per_sec": sharded.extras["edges_per_sec"],
                "seconds": seconds,
                "passes": sharded.passes,
                "colors_used": sharded.colors_used,
                "rss_before_bytes": rss_before if rss_supported else None,
                "rss_peak_bytes": rss_peak if rss_supported else None,
                "rss_delta_bytes": (
                    rss_peak - rss_before if rss_supported else None
                ),
                "rss_budget_bytes": budget if rss_supported else None,
                "rss_ok": rss_ok,
                "identical_to_single_file": identical,
            }
    return record


def _fingerprint(result):
    """Everything observable about a run except wall times and kernel hits."""
    return (
        result.coloring,
        result.passes,
        result.peak_space_bits,
        result.random_bits,
        result.colors_used,
        result.palette_bound,
        result.proper,
    )


def run_scale():
    rows = []
    json_payload = {
        "legs": [],
        "smoke": SMOKE,
        "host_cpus": os.cpu_count() or 1,
    }
    # Deterministic, heuristic selection (1 pass/stage), n=1024.
    n, delta = (256, 12) if SMOKE else (1024, 24)
    det = run(RunSpec(
        algorithm="deterministic", n=n, delta=delta, graph_seed=401,
        config={"selection": "greedy_slack"},
    ))
    rows.append(["deterministic greedy_slack", n, delta,
                 det.extras["stream_edges"], det.passes, "-", det.proper])
    # Robust, adaptive adversary, n=2048.
    n, delta = (512, 8) if SMOKE else (2048, 16)
    rounds = (n * delta) // 4
    game = run_game(GameSpec(
        algorithm="robust", n=n, delta=delta, rounds=rounds, seed=402,
        adversary="conflict", adversary_seed=403,
        query_every=max(1, rounds // 8),
    ))
    rows.append(["robust Alg 2 (adaptive)", n, delta, game.extras["rounds"],
                 game.passes, "-", game.proper])
    # Throughput sweep: the tokens plane vs the block backend for every
    # registered algorithm, identical stream per pair.  Each case also records where
    # the dispatched kernel time went.
    algorithms = {}
    flagship_token_proper = flagship_block_proper = False
    for algo, n, delta, config, backend, family, floor in THROUGHPUT_CASES:
        per_backend = {}
        with measure_kernels() as kernel_timings:
            for bk in ("tokens", backend):
                per_backend[bk] = run(RunSpec(
                    algorithm=algo, n=n, delta=delta, graph_seed=401,
                    config=config, graph_family=family, stream_backend=bk,
                    keep_coloring=True, validate=algo != "naive",
                ))
        token, block = per_backend["tokens"], per_backend[backend]
        if algo == "deterministic":
            flagship_token_proper = token.proper
            flagship_block_proper = block.proper
        for bk in ("tokens", backend):
            result = per_backend[bk]
            # The naive strawman legitimately outputs improper colorings
            # (it repairs only against its bounded store); its rows check
            # that both paths *measure the same* properness instead.
            ok = (
                result.proper
                if algo != "naive"
                else token.proper == block.proper
            )
            rows.append([f"{algo} [{bk}]", n, delta,
                         result.extras["stream_edges"], result.passes,
                         f"{result.extras['edges_per_sec']:.3e}", ok])
        speedup = block.extras["edges_per_sec"] / token.extras["edges_per_sec"]
        identical = token.coloring == block.coloring
        rows.append([f"{algo} block speedup", n, delta, "-", "-",
                     f"{speedup:.1f}x", identical])
        algorithms[algo] = {
            "n": n,
            "delta": delta,
            "block_backend": backend,
            "graph_family": family,
            "edges": token.extras["stream_edges"],
            "passes": token.passes,
            "token_edges_per_sec": token.extras["edges_per_sec"],
            "block_edges_per_sec": block.extras["edges_per_sec"],
            "speedup": speedup,
            "speedup_floor": None if SMOKE else floor,
            "colorings_identical": identical,
            "kernels": {
                name: {"calls": calls, "seconds": seconds}
                for name, (calls, seconds) in sorted(kernel_timings.items())
            },
        }
    json_payload["algorithms"] = algorithms
    json_payload["sharded"] = run_sharded_leg(rows)
    # Back-compat artifact fields: the flagship deterministic record.
    flagship = algorithms["deterministic"]
    for bk_key, eps_key, proper in (
        ("tokens", "token_edges_per_sec", flagship_token_proper),
        ("materialized", "block_edges_per_sec", flagship_block_proper),
    ):
        json_payload["legs"].append({
            "leg": f"throughput_{bk_key}",
            "n": flagship["n"],
            "delta": flagship["delta"],
            "edges": flagship["edges"],
            "passes": flagship["passes"],
            "edges_per_sec": flagship[eps_key],
            "proper": proper,
        })
    json_payload["speedup"] = flagship["speedup"]
    json_payload["colorings_identical"] = flagship["colorings_identical"]
    # The flagship is multipass: its speedup is recorded, not gated.
    json_payload["speedup_floor"] = None
    headers = ["algorithm", "n", "delta", "edges", "passes", "edges/s", "ok"]
    return (headers, rows), json_payload


def test_s1_scale(benchmark, record_table, record_json):
    (headers, rows), payload = run_once(benchmark, run_scale)
    record_table("s1_scale", headers, rows, title="S1: scalability smoke")
    record_json("s1_scale", payload)
    assert all(row[-1] is True for row in rows)
    assert payload["host_cpus"] >= 1
    recorded = set(payload["algorithms"])
    assert recorded == set(REGISTRY.names()), (
        f"throughput sweep must cover the whole registry; "
        f"missing {sorted(set(REGISTRY.names()) - recorded)}"
    )
    for algo, record in payload["algorithms"].items():
        assert record["colorings_identical"], algo
        assert all(
            rec["calls"] > 0 and rec["seconds"] >= 0.0
            for rec in record["kernels"].values()
        ), algo
        floor = record["speedup_floor"]
        if floor is not None:
            assert record["speedup"] >= floor, (
                f"{algo}: block path sustained only {record['speedup']:.1f}x "
                f"the token baseline (floor {floor}x)"
            )
    sharded = payload["sharded"]
    assert set(sharded["algorithms"]) == set(SCALE_RSS_BUDGETS)
    assert sharded["m"] == sharded["n"] * sharded["k"]
    assert sharded["shards"] > 1, "scale leg must cross shard boundaries"
    for algo, rec in sharded["algorithms"].items():
        assert rec["identical_to_single_file"], (
            f"{algo}: sharded run diverged from the single-file source"
        )
        assert rec["rss_ok"], (
            f"{algo}: peak RSS {rec['rss_peak_bytes']} exceeded the "
            f"declared budget {rec['rss_budget_bytes']}"
        )
        assert rec["edges_per_sec"] > 0, algo
