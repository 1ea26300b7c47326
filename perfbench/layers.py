"""Outside-in layer timing: wrap each layer's entry points, keep self times.

The program is not modified.  :class:`LayerTracer` swaps the public
functions and methods that enter each layer (``SlackWeightedSelector.
part_sums``, ``turan_independent_set``, ``RobustColoring.process_block``,
``repro.kernels.dispatch``, ...) for timing wrappers while a traced unit
runs, and puts the originals back afterwards.  Wrappers keep a stack of
open calls, so a layer's *self time* is its wall time minus the time of
the wrapped calls nested inside it, and the self times of one unit add up
to the part of its wall time that some layer claims.  What no layer claims
is reported as ``engine.unattributed_s``.

Spans live in memory (plain float accumulators); nothing is written while
a unit runs.
"""

import functools
import sys
import time
from collections import defaultdict

#: Self-time layers, in report order: (metric name, span key).
TIME_LAYERS = (
    ("selector.part_sums_s", "selector.part_sums"),
    ("selector.member_sums_s", "selector.member_sums"),
    ("selector.register_s", "selector.register"),
    ("turan.s", "turan"),
    ("det.control_s", "det.control"),
    ("det.finish_s", "det.finish"),
    ("robust.process_block_s", "robust.process_block"),
    ("robust.query_s", "robust.query"),
    ("lowrandom.query_s", "lowrandom.query"),
    ("sketch.process_block_s", "sketch.process_block"),
    ("hash_cache.s", "hash_cache"),
    ("hashing.eval_coeffs_s", "hashing.eval_coeffs"),
    ("streaming.pass_s", "streaming.pass"),
    ("machine.feed_s", "machine.feed"),
    ("machine.finish_s", "machine.finish"),
    ("kernels.s", "kernels"),
    ("algo.create_s", "algo.create"),
    ("engine.validate_s", "engine.validate"),
    ("engine.guarantees_s", "engine.guarantees"),
)

#: Work counts recorded at the same boundaries (per unit).
COUNT_METRICS = (
    "selector.conflict_edges",
    "turan.vertices",
    "turan.picked",
    "robust.sketch_edges",
    "hashing.rows_computed",
    "hash_cache.keys",
    "streaming.passes",
    "streaming.blocks",
    "kernels.calls",
)


class LayerTracer:
    """Self-time and work-count accumulators for one traced unit at a time."""

    def __init__(self):
        self._stack: list[float] = []  # child time of each open call
        self._patches: list[tuple[object, str, object]] = []
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)

    def reset(self) -> None:
        self.self_s.clear()
        self.counts.clear()

    # -- accounting ------------------------------------------------------
    def _enter(self) -> float:
        self._stack.append(0.0)
        return time.perf_counter()

    def _leave(self, key: str, start: float) -> None:
        elapsed = time.perf_counter() - start
        self.self_s[key] += elapsed - self._stack.pop()
        if self._stack:
            self._stack[-1] += elapsed

    def timed(self, key, fn, on_call=None):
        """Wrap ``fn``; ``key`` is a span name or ``f(args) -> name``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = key(args) if callable(key) else key
            start = tracer._enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._leave(name, start)
            if on_call is not None:
                on_call(args, out)
            return out

        return wrapper

    def timed_generator(self, key, genfn, count_key=None):
        """Wrap a generator function: time each ``next`` only.

        The consumer runs while the generator is suspended, so its time
        stays with the consumer's own layer.
        """
        tracer = self

        @functools.wraps(genfn)
        def wrapper(*args, **kwargs):
            if count_key is not None:
                tracer.counts[count_key] += 1
            items = genfn(*args, **kwargs)
            while True:
                start = tracer._enter()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    tracer._leave(key, start)
                tracer.counts["streaming.blocks"] += 1
                yield item

        return wrapper

    # -- patching --------------------------------------------------------
    def _set(self, owner, name, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def patch_method(self, cls, name, key, on_call=None) -> None:
        self._set(cls, name, self.timed(key, cls.__dict__[name], on_call))

    def patch_function(self, module, name, key, on_call=None) -> None:
        """Wrap ``module.name`` and every ``from module import name`` copy."""
        original = getattr(module, name)
        wrapper = self.timed(key, original, on_call)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer entry point; :meth:`uninstall` restores them."""
        import repro.core.deterministic as deterministic
        import repro.engine.guarantees as guarantees
        import repro.engine.runner as runner
        import repro.graph.independent_set as independent_set
        import repro.kernels as kernels
        import repro.streaming.blocks as blocks
        from repro.core.robust import RobustColoring
        from repro.core.robust_lowrandom import LowRandomnessRobustColoring
        from repro.core.selector import SlackWeightedSelector
        from repro.engine.registry import AlgorithmEntry
        from repro.hashing.kindependent import PolynomialHashFamily
        from repro.streaming.machine import PassConsumer
        from repro.streaming.source import MaterializedSource, StreamSource

        counts = self.counts

        def conflict_edges(args, _out):
            counts["selector.conflict_edges"] += len(args[1])

        def turan_counts(args, out):
            counts["turan.vertices"] += args[0].n
            counts["turan.picked"] += len(out)

        def sketch_edges(args, _out):
            counts["robust.sketch_edges"] = args[0].sketch_edge_count

        def rows_computed(args, _out):
            counts["hashing.rows_computed"] += len(args[2])

        def cache_keys(args, _out):
            counts["hash_cache.keys"] += len(args[1])

        def kernel_call(_args, _out):
            counts["kernels.calls"] += 1

        def deliver_key(args):
            mach = getattr(args[0], "_mach", None) or {}
            return "det.finish" if mach.get("phase") == "final" else "det.control"

        sel = SlackWeightedSelector
        self.patch_method(sel, "part_sums", "selector.part_sums", conflict_edges)
        self.patch_method(sel, "member_sums", "selector.member_sums")
        self.patch_method(sel, "register_vertex", "selector.register")
        self.patch_function(independent_set, "turan_independent_set", "turan",
                            turan_counts)
        self.patch_method(deterministic.DeterministicColoring, "blocks_deliver",
                          deliver_key)
        self.patch_method(RobustColoring, "process_block", "robust.process_block")
        self.patch_method(RobustColoring, "query", "robust.query", sketch_edges)
        self.patch_method(LowRandomnessRobustColoring, "query", "lowrandom.query")
        self.patch_function(blocks, "sketch_process_block", "sketch.process_block")
        self.patch_function(blocks, "cached_hash_rows", "hash_cache", cache_keys)
        self.patch_method(PolynomialHashFamily, "eval_coeffs",
                          "hashing.eval_coeffs", rows_computed)
        self.patch_function(kernels, "dispatch", "kernels", kernel_call)
        self.patch_method(AlgorithmEntry, "create", "algo.create")
        self.patch_function(runner, "_check_output", "engine.validate")
        self.patch_function(guarantees, "evaluate_guarantees", "engine.guarantees")
        for cls in (StreamSource, MaterializedSource):
            self._set(cls, "new_pass", self.timed_generator(
                "streaming.pass", cls.__dict__["new_pass"], "streaming.passes"))
        for cls in _subclasses(PassConsumer):
            for name in ("feed", "finish"):
                if name in cls.__dict__:
                    self.patch_method(cls, name, f"machine.{name}")

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


def _subclasses(cls) -> list:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def layer_report(self_s: dict, counts: dict, wall_s: float) -> dict:
    """Per-layer metric values for one traced unit (times in seconds)."""
    metrics = {name: self_s.get(key, 0.0) for name, key in TIME_LAYERS}
    metrics.update({name: counts.get(name, 0) for name in COUNT_METRICS})
    claimed = sum(self_s.values())
    metrics["engine.unattributed_s"] = wall_s - claimed
    keys = counts.get("hash_cache.keys", 0)
    metrics["hash_cache.hit_ratio"] = (
        1.0 - counts.get("hashing.rows_computed", 0) / keys if keys else 0.0
    )
    return metrics
