"""The four workloads: inputs built from a seed, timed units, run loops.

Batch workloads hand the engine a stream the benchmark built itself (an
in-memory source, a ``REPROED1`` file, or a ``REPROED2`` container) and
time whole ``engine.run(spec, stream)`` calls, strict guarantees included.
The service workload boots a 2-worker pool behind TCP and drives it with a
closed loop of 2 clients, each running create -> feed 16 edges at a time
-> finalize -> drop, back to back.

Every unit is checked by :mod:`gate` outside the timed region; a unit that
raises or fails the gate counts as failed.
"""

import asyncio
import gc
import multiprocessing
import os
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from gate import GateFailure, batch_fingerprint, session_fingerprint
from layers import COUNT_METRICS, TIME_LAYERS, LayerTracer, layer_report

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 1
#: Seed kept out of tuning; claims of a gain must also hold on it.
HELD_OUT_SEED = 97

# Set-up runs a fixed number of times per run (``setup_reps``, chosen per
# workload to take 1 to 2 s on a 2-CPU host); ``setup_s`` is the median.
# The count is not set by a clock, because how often set-up ran changes
# the allocator's state and with it ``peak_rss_mb``: robust-file read
# 172 MB after six set-ups and 227 MB after five or seven.

#: A batch run times at least this many engine runs, even past
#: ``--seconds``: a first run over fresh inputs is up to 20% slower, and
#: the median of fewer units moves with it.
MIN_UNITS = 5

SERVICE_FEED_EDGES = 16
SERVICE_CLIENTS = 2
SERVICE_WORKERS = 2
#: Distinct session inputs per seed, cycled through by the clients.
SERVICE_INPUTS = 32
SERVICE_TIMEOUT_S = 30.0


@dataclass
class RunOutcome:
    """Everything one benchmark run measured."""

    setup_s: list = field(default_factory=list)
    unit_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    peak_rss_bytes: int = 0
    #: Reported values beyond the bounded metrics, name -> (value, unit).
    extra: dict = field(default_factory=dict)
    fingerprint: str = ""

    def fail(self, error: BaseException) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{type(error).__name__}: {error}")


def percentile(values, q: float) -> float:
    if not len(values):
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


class PeakRss(threading.Thread):
    """Peak of the summed VmRSS of this process and its live children."""

    def __init__(self, interval: float = 0.01):
        super().__init__(daemon=True)
        self.peak = 0
        self._interval = interval
        self._halt = threading.Event()

    @staticmethod
    def _rss(pid: int) -> int:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        return int(line.split()[1]) * 1024
        except OSError:
            pass
        return 0

    def sample(self) -> None:
        pids = [os.getpid()] + [p.pid for p in multiprocessing.active_children()]
        self.peak = max(self.peak, sum(self._rss(pid) for pid in pids))

    def run(self):
        while not self._halt.is_set():
            self.sample()
            self._halt.wait(self._interval)

    def finish(self) -> int:
        self._halt.set()
        self.join()
        self.sample()
        return self.peak


# ----------------------------------------------------------------------
# batch workloads
# ----------------------------------------------------------------------
#: Per-layer metrics a batch traced run reports (see summarize_layers).
BATCH_LAYER_METRICS = (
    *(name for name, _key in TIME_LAYERS), *COUNT_METRICS,
    "engine.unattributed_s", "engine.unattributed_pct",
    "hash_cache.hit_ratio", "tracing.overhead_pct",
)


class BatchWorkload:
    """One algorithm over one benchmark-built stream, timed per engine run."""

    layer_metrics = BATCH_LAYER_METRICS

    def __init__(self, name, algorithm, n, delta, build, setup_reps):
        self.name = name
        self.algorithm = algorithm
        self.n = n
        self.delta = delta
        self._build = build
        self.setup_reps = setup_reps

    def spec(self, seed: int):
        from repro.engine import RunSpec

        return RunSpec(
            algorithm=self.algorithm, n=self.n, delta=self.delta, seed=seed,
            verify="strict", keep_coloring=True,
        )

    def setup(self, seed: int, workdir: str, outcome: RunOutcome):
        """Build the inputs ``setup_reps`` times; keep the last."""
        built = None
        for rep in range(1, self.setup_reps + 1):
            if built is not None:
                _close(built[0])
            target = os.path.join(workdir, f"input-{rep}")
            shutil.rmtree(os.path.join(workdir, f"input-{rep - 1}"),
                          ignore_errors=True)
            os.makedirs(target)
            start = time.perf_counter()
            # (source, edges): the stream the program gets, and a copy.
            built = self._build(self, seed, target)
            outcome.setup_s.append(time.perf_counter() - start)
        return built

    def unit(self, spec, source, edges, gate):
        """One timed engine run; returns its wall seconds."""
        from repro.engine import run

        # Start each unit from the same heap, so a collection of the last
        # unit's garbage does not land in this one.
        gc.collect()
        start = time.perf_counter()
        result = run(spec, source)
        wall = time.perf_counter() - start
        gate.check(batch_fingerprint(edges, result))
        return wall

    def measure(self, seed, seconds, trace, workdir, gate) -> RunOutcome:
        outcome = RunOutcome()
        source, edges = self.setup(seed, workdir, outcome)
        spec = self.spec(seed)
        tracer = LayerTracer() if trace else None
        traced_walls, layer_rows = [], []
        rss = PeakRss()
        rss.start()
        deadline = time.perf_counter() + seconds
        try:
            while (outcome.attempted < MIN_UNITS
                   or time.perf_counter() < deadline):
                # Trace runs alternate untraced and traced units; the
                # untraced ones give the wall that tracing is judged by.
                traced = trace and outcome.attempted % 2 == 1
                outcome.attempted += 1
                if traced:
                    tracer.reset()
                    tracer.install()
                try:
                    wall = self.unit(spec, source, edges, gate)
                except Exception as error:
                    outcome.fail(error)
                    continue
                finally:
                    if traced:
                        tracer.uninstall()
                if traced:
                    traced_walls.append(wall)
                    layer_rows.append(
                        layer_report(tracer.self_s, tracer.counts, wall))
                elif not trace or outcome.attempted > 1:
                    # A trace run leaves out the slow first unit, so that
                    # tracing is judged against warm units only.
                    outcome.unit_s.append(wall)
        finally:
            outcome.peak_rss_bytes = rss.finish()
            _close(source)
        if trace:
            outcome.extra.update(summarize_layers(
                layer_rows, outcome.unit_s, traced_walls))
        return outcome


def summarize_layers(rows, untraced_walls, traced_walls) -> dict:
    """Median per-unit layer values, shares of wall, tracing overhead."""
    if not rows:
        return {}
    out = {}
    wall = median(traced_walls)
    for name, _key in TIME_LAYERS:
        value = median([r[name] for r in rows])
        out[name] = (value, "s")
        out[name[:-2] + ".share_pct"] = (100.0 * value / wall, "%")
    for name in COUNT_METRICS:
        out[name] = (median([r[name] for r in rows]), "count")
    unattributed = median([r["engine.unattributed_s"] for r in rows])
    out["engine.unattributed_s"] = (unattributed, "s")
    out["engine.unattributed_pct"] = (100.0 * unattributed / wall, "%")
    out["hash_cache.hit_ratio"] = (
        median([r["hash_cache.hit_ratio"] for r in rows]), "ratio")
    out["traced.run_wall_s"] = (wall, "s")
    if untraced_walls:
        base = median(untraced_walls)
        out["tracing.overhead_pct"] = (100.0 * (wall / base - 1.0), "%")
    return out


def _det_paper_build(workload, seed, _workdir):
    from repro.graph.generators import random_max_degree_graph
    from repro.streaming.stream import TokenStream
    from repro.streaming.tokens import edge_tokens

    graph = random_max_degree_graph(workload.n, workload.delta, seed=seed)
    pairs = graph.edge_list()
    source = TokenStream(edge_tokens(pairs), workload.n).as_source()
    source.edge_count()  # builds the cached blocks, as a first pass would
    return source, np.asarray(pairs, dtype=np.int64)


def _robust_file_build(workload, seed, workdir):
    from repro.graph.generators import near_regular_edge_array
    from repro.streaming.source import FileSource, write_edge_file

    edges = near_regular_edge_array(workload.n, workload.delta, seed)
    path = os.path.join(workdir, "edges.ed1")
    write_edge_file(path, workload.n, edges)
    return FileSource(path, chunk_size=4096), edges


def _lowrandom_sharded_build(workload, seed, workdir):
    from repro.graph.generators import near_regular_edge_array
    from repro.streaming.sharded import ShardedFileSource, write_sharded_edge_file

    edges = near_regular_edge_array(workload.n, workload.delta, seed)
    path = os.path.join(workdir, "edges.shards")
    write_sharded_edge_file(path, workload.n, edges,
                            shard_rows=-(-len(edges) // 4))
    return ShardedFileSource(path), edges


def _close(source) -> None:
    """Release a file-backed source (in-memory sources have nothing to free)."""
    close = getattr(source, "close", None)
    if close is not None:
        close()


# ----------------------------------------------------------------------
# service workload
# ----------------------------------------------------------------------
class ServiceWorkload:
    """Robust sessions against a 2-worker pool behind TCP, closed loop."""

    name = "service-pool"
    setup_reps = 4
    #: Per-layer metrics a traced run reports (see _measure_traced).
    layer_metrics = (
        "client.encode_ms", "client.decode_ms", "dispatcher.request_ms",
        "worker.create_ms", "worker.feed_ms", "worker.finalize_ms",
        "wire.overhead_ms", "inproc.feed_ms", "pool.busy_sheds",
        "pool.evictions", "pool.restores", "tracing.overhead_pct",
    )

    def inputs(self, seed: int) -> list:
        """``(spec, feed blocks as lists)`` for each session input."""
        from repro.service.client import build_session_workload

        out = []
        for i in range(SERVICE_INPUTS):
            spec, edges, _lists = build_session_workload(
                "robust", "power_law", 96, order="random",
                seed=seed * SERVICE_INPUTS + i, verify="strict",
            )
            blocks = [edges[k:k + SERVICE_FEED_EDGES].tolist()
                      for k in range(0, len(edges), SERVICE_FEED_EDGES)]
            out.append((spec, blocks))
        return out

    async def _boot(self, seed, workdir):
        from repro.service import ColoringService, PoolConfig, WorkerPool

        inputs = self.inputs(seed)
        pool = await WorkerPool.start(PoolConfig(
            workers=SERVICE_WORKERS, checkpoint_dir=workdir,
            max_sessions=4 * SERVICE_CLIENTS,
            worker_max_resident=4 * SERVICE_CLIENTS,
        ))
        try:
            server = await ColoringService(manager=pool).serve_tcp("127.0.0.1", 0)
        except BaseException:
            pool.close()
            raise
        return inputs, pool, server

    async def _shutdown(self, pool, server) -> None:
        server.close()
        await server.wait_closed()
        pool.close()

    async def _setup(self, seed, workdir, outcome):
        """Boot (inputs + pool + listener) ``setup_reps`` times; keep the last."""
        booted = None
        for rep in range(1, self.setup_reps + 1):
            if booted is not None:
                await self._shutdown(*booted[1:])
            pool_dir = _mkdir(workdir, f"pool-{rep}")
            start = time.perf_counter()
            booted = await self._boot(seed, pool_dir)
            outcome.setup_s.append(time.perf_counter() - start)
        return booted

    async def _session(self, client, spec, blocks, samples) -> dict:
        start = time.perf_counter()
        sid = await client.create(spec)
        for block in blocks:
            t0 = time.perf_counter()
            await client.request("feed", session=sid, edges=block)
            samples["feed"].append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        result = await client.finalize(sid)
        samples["finalize"].append(time.perf_counter() - t0)
        await client.drop(sid)
        samples["session"].append(time.perf_counter() - start)
        return result

    async def _drive(self, port, inputs, seconds, gate, outcome, samples,
                     warm: bool) -> int:
        """Closed loop; returns busy retries.  ``warm`` runs each input once."""
        from repro.service.client import ServiceClient

        clients = [
            await ServiceClient.connect("127.0.0.1", port,
                                        timeout=SERVICE_TIMEOUT_S)
            for _ in range(SERVICE_CLIENTS)
        ]
        deadline = time.perf_counter() + seconds
        cursor = iter(range(len(inputs) if warm else 1 << 62))

        async def loop(client):
            for index in cursor:
                if not warm and time.perf_counter() >= deadline:
                    return
                key = index % len(inputs)
                spec, blocks = inputs[key]
                outcome.attempted += 1
                try:
                    result = await self._session(client, spec, blocks, samples)
                    gate.check(session_fingerprint(result), key)
                except Exception as error:
                    # The connection's state is unknown after a failure.
                    outcome.fail(error)
                    return

        try:
            await asyncio.gather(*(loop(c) for c in clients))
        finally:
            for client in clients:
                await client.close()
        return sum(c.busy_retries_used for c in clients)

    async def _phase(self, booted, seconds, gate, outcome, rss=None):
        """Warm a booted pool with every input once, then measure."""
        inputs, pool, server = booted
        port = server.sockets[0].getsockname()[1]
        samples = {"feed": [], "finalize": [], "session": []}
        try:
            await self._drive(port, inputs, 0, gate, outcome,
                              {"feed": [], "finalize": [], "session": []}, True)
            if rss is not None:
                rss.start()
            start = time.perf_counter()
            busy = await self._drive(port, inputs, seconds, gate, outcome,
                                     samples, False)
            elapsed = time.perf_counter() - start
            if rss is not None:
                outcome.peak_rss_bytes = rss.finish()
            stats = await pool.worker_stats()
        finally:
            await self._shutdown(pool, server)
        evictions = sum(s.get("evictions", 0) for s in stats)
        restores = sum(s.get("restores", 0) for s in stats)
        if evictions or restores:
            outcome.fail(GateFailure(
                f"residency bound: {evictions} evictions, {restores} restores"))
        return samples, elapsed, {"pool.busy_sheds": busy,
                                  "pool.evictions": evictions,
                                  "pool.restores": restores}

    def measure(self, seed, seconds, trace, workdir, gate) -> RunOutcome:
        return asyncio.run(
            (self._measure_traced if trace else self._measure)(
                seed, seconds, workdir, gate)
        )

    async def _measure(self, seed, seconds, workdir, gate) -> RunOutcome:
        outcome = RunOutcome()
        booted = await self._setup(seed, workdir, outcome)
        samples, elapsed, pool_counts = await self._phase(
            booted, seconds, gate, outcome, rss=PeakRss())
        outcome.unit_s = samples["session"]
        feed, fin = samples["feed"], samples["finalize"]
        extra = outcome.extra
        extra["sessions_per_s"] = (len(outcome.unit_s) / elapsed, "1/s")
        extra["sessions"] = (len(outcome.unit_s), "count")
        extra["feed_p50_ms"] = (1e3 * percentile(feed, 50), "ms")
        extra["feed_p99_ms"] = (1e3 * percentile(feed, 99), "ms")
        extra["feeds"] = (len(feed), "count")
        extra["finalize_p50_ms"] = (1e3 * percentile(fin, 50), "ms")
        extra["finalize_p95_ms"] = (1e3 * percentile(fin, 95), "ms")
        extra["finalizes"] = (len(fin), "count")
        for name, value in pool_counts.items():
            extra[name] = (value, "count")
        return outcome

    async def _measure_traced(self, seed, seconds, workdir, gate) -> RunOutcome:
        import repro.obs as obs
        import repro.service.client as client_mod

        outcome = RunOutcome()
        third = seconds / 3.0
        base, _, base_counts = await self._phase(
            await self._boot(seed, _mkdir(workdir, "pool-plain")),
            third, gate, outcome)

        trace_path = os.path.join(workdir, "trace.jsonl")
        obs.configure(trace_log=trace_path)
        codec = {"encode": [], "decode": []}
        originals = (client_mod.encode_message, client_mod.decode_message)
        client_mod.encode_message = _timed(originals[0], codec["encode"])
        client_mod.decode_message = _timed(originals[1], codec["decode"])
        try:
            traced, _, counts = await self._phase(
                await self._boot(seed, _mkdir(workdir, "pool-traced")),
                third, gate, outcome)
        finally:
            client_mod.encode_message, client_mod.decode_message = originals
            obs.reset()
        spans = obs.read_trace_log(trace_path)
        inproc = await self._inproc_feeds(seed, third, workdir)

        extra = outcome.extra
        extra.update(span_metrics(spans))
        extra["client.encode_ms"] = (1e3 * median(codec["encode"]), "ms")
        extra["client.decode_ms"] = (1e3 * median(codec["decode"]), "ms")
        extra["wire.overhead_ms"] = (
            1e3 * median(traced["feed"]) - extra["worker.feed_ms"][0], "ms")
        extra["inproc.feed_ms"] = (1e3 * median(inproc), "ms")
        for name in base_counts:
            extra[name] = (base_counts[name] + counts[name], "count")
        extra["tracing.overhead_pct"] = (
            100.0 * (median(traced["session"]) / median(base["session"]) - 1.0),
            "%")
        outcome.unit_s = base["session"]
        return outcome

    async def _inproc_feeds(self, seed, seconds, workdir) -> list:
        """The same sessions through an in-process ``SessionManager``."""
        from repro.service.manager import SessionManager

        inputs = self.inputs(seed)
        manager = SessionManager(checkpoint_dir=_mkdir(workdir, "inproc"))
        feeds = []
        deadline = time.perf_counter() + seconds
        try:
            index = 0
            while time.perf_counter() < deadline:
                spec, blocks = inputs[index % SERVICE_INPUTS]
                index += 1
                sid = await manager.create(spec)
                for block in blocks:
                    start = time.perf_counter()
                    await manager.feed(sid, block)
                    feeds.append(time.perf_counter() - start)
                await manager.finalize(sid)
                await manager.drop(sid)
        finally:
            manager.close()
        return feeds


def _mkdir(parent: str, name: str) -> str:
    path = os.path.join(parent, name)
    os.makedirs(path)
    return path


def _timed(fn, sink):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - start)

    return wrapper


def span_metrics(spans: list) -> dict:
    """Dispatcher self time and worker op times from ``repro.obs`` spans."""
    children: dict = {}
    for record in spans:
        children.setdefault(record.get("parent"), []).append(record)
    worker = {"create": [], "feed": [], "finalize": []}
    dispatcher = []
    for record in spans:
        op = record["name"].partition("worker.")[2]
        if op in worker:
            worker[op].append(record["dur_s"])
        elif record["name"] == "service.request" and \
                record.get("fields", {}).get("op") == "feed":
            nested = sum(c["dur_s"] for c in children.get(record["span"], ()))
            dispatcher.append(record["dur_s"] - nested)
    out = {"dispatcher.request_ms": (1e3 * median(dispatcher), "ms")}
    for op, durations in worker.items():
        out[f"worker.{op}_ms"] = (1e3 * median(durations), "ms")
    return out


WORKLOADS = {
    w.name: w
    for w in (
        # Why each workload was chosen: BENCHMARK.json and README.md.
        BatchWorkload("det-paper", "deterministic", 256, 24, _det_paper_build,
                      setup_reps=150),
        BatchWorkload("robust-file", "robust", 100_000, 24, _robust_file_build,
                      setup_reps=5),
        BatchWorkload("lowrandom-sharded", "robust_lowrandom", 5000, 24,
                      _lowrandom_sharded_build, setup_reps=150),
        ServiceWorkload(),
    )
}
