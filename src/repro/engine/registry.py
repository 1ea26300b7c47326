"""The string-keyed algorithm registry.

Every algorithm ships as an :class:`AlgorithmEntry`: a name, a one-line
summary, its config dataclass, a factory closing over the concrete class,
and a few capability flags the runner consults (does it need list tokens,
is its palette bound exact, is it randomized).  The default
:data:`REGISTRY` holds the paper's four algorithms plus the four baseline
families; extensions register their own entries (or build a private
:class:`AlgorithmRegistry`) without touching the runner or the CLI.
"""

from dataclasses import asdict, dataclass, field
from collections.abc import Callable

import numpy as np

from repro.common.exceptions import ReproError
from repro.common.integer_math import ceil_log2
from repro.engine.guarantees import GuaranteeSpec
from repro.engine.config import (
    ACS22Config,
    AlgorithmConfig,
    CGS22Config,
    DeterministicConfig,
    ListColoringConfig,
    LowRandomConfig,
    RobustConfig,
)
from repro.engine.protocol import StreamingColorer

__all__ = ["AlgorithmEntry", "AlgorithmRegistry", "REGISTRY"]


@dataclass(frozen=True)
class AlgorithmEntry:
    """Registry record for one algorithm family."""

    name: str
    summary: str
    kind: str  # "multipass" | "onepass"
    reference: str  # theorem / citation the implementation reproduces
    config_cls: type[AlgorithmConfig]
    factory: Callable[[int, int, int, AlgorithmConfig], StreamingColorer]
    randomized: bool = False
    needs_lists: bool = False  # consumes ListTokens (Theorem 2 input)
    enforce_palette: bool = True  # validate colors against palette_bound
    collect_extras: Callable[[StreamingColorer], dict] = field(
        default=lambda algo: {}
    )
    #: The paper-stated guarantees this entry is verified against
    #: (``repro verify`` / ``RunSpec.verify``); None = no oracle.
    guarantee: GuaranteeSpec | None = None

    def make_config(self, options: dict | None) -> AlgorithmConfig:
        """Build and validate this entry's config from a plain dict."""
        return self.config_cls.from_dict(dict(options or {}))

    def create(self, n: int, delta: int, seed: int,
               config: AlgorithmConfig | dict | None = None) -> StreamingColorer:
        """Instantiate the algorithm for an ``(n, delta)`` instance."""
        if not isinstance(config, AlgorithmConfig):
            config = self.make_config(config)
        return self.factory(n, delta, seed, config)


class AlgorithmRegistry:
    """A mutable, string-keyed collection of :class:`AlgorithmEntry`."""

    def __init__(self, entries=()):
        self._entries: dict[str, AlgorithmEntry] = {}
        for entry in entries:
            self.register(entry)

    def register(self, entry: AlgorithmEntry) -> AlgorithmEntry:
        if entry.kind not in ("multipass", "onepass"):
            raise ReproError(f"unknown algorithm kind {entry.kind!r}")
        if entry.name in self._entries:
            raise ReproError(f"algorithm {entry.name!r} is already registered")
        self._entries[entry.name] = entry
        return entry

    def get(self, name: str) -> AlgorithmEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise ReproError(
                f"unknown algorithm {name!r}; registered: {self.names()}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self):
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def describe(self) -> tuple[list[str], list[list]]:
        """``(headers, rows)`` describing every entry, for tables/CLI."""
        headers = ["name", "kind", "randomized", "reference", "options", "summary"]
        rows = []
        for name in self.names():
            e = self._entries[name]
            options = ",".join(
                f.name for f in e.config_cls.__dataclass_fields__.values()
            )
            rows.append([
                e.name, e.kind, e.randomized, e.reference, options, e.summary,
            ])
        return headers, rows


# ----------------------------------------------------------------------
# Default entries: the four paper algorithms + the four baseline families.
# Factories are plain module-level functions so registry-built specs stay
# picklable for the GridRunner's process pool.
# ----------------------------------------------------------------------

def _make_deterministic(n, delta, seed, cfg):
    from repro.core import DeterministicColoring

    return DeterministicColoring(
        n, delta, selection=cfg.selection, prime_policy=cfg.prime_policy,
        instrument=cfg.instrument,
    )


def _make_list_coloring(n, delta, seed, cfg):
    from repro.core import DeterministicListColoring

    universe = cfg.universe if cfg.universe is not None else 2 * (delta + 1)
    return DeterministicListColoring(
        n, delta, universe, selection=cfg.selection,
        prime_policy=cfg.prime_policy, instrument=cfg.instrument,
    )


def _make_robust(n, delta, seed, cfg):
    from repro.core import RobustColoring

    return RobustColoring(n, delta, seed=seed, beta=cfg.beta)


def _make_lowrandom(n, delta, seed, cfg):
    from repro.core import LowRandomnessRobustColoring

    return LowRandomnessRobustColoring(
        n, delta, seed=seed, repetitions=cfg.repetitions
    )


def _make_naive(n, delta, seed, cfg):
    from repro.baselines import OneShotRandomColoring

    return OneShotRandomColoring(n, delta, seed=seed)


def _make_acs22(n, delta, seed, cfg):
    from repro.baselines import ColorReductionColoring, TwoPassQuadraticColoring

    if cfg.variant == "color_reduction":
        return ColorReductionColoring(n, delta)
    return TwoPassQuadraticColoring(n, delta)


def _make_cgs22(n, delta, seed, cfg):
    from repro.baselines import SketchSwitchingQuadraticColoring

    return SketchSwitchingQuadraticColoring(
        n, delta, seed=seed, repetitions=cfg.repetitions
    )


def _make_palette_sparsification(n, delta, seed, cfg):
    from repro.baselines import PaletteSparsificationColoring

    return PaletteSparsificationColoring(n, delta, seed=seed)


# ----------------------------------------------------------------------
# Guarantee bound functions (module-level for picklability).
#
# Exact statements (palette sizes, single-pass, zero randomness) are
# enforced exactly.  Asymptotic statements become concrete bounds by
# fixing constants with documented slack: each constant is calibrated at
# >= 2x the maximum observed over the full verification sweep
# (registry x zoo x orders x chunk sizes), so the oracle flags real
# regressions — a palette blowup, an extra pass loop, superlinear state —
# without tripping on the reproduction's own constants.
# ----------------------------------------------------------------------

def _log_term(x: int) -> int:
    """``ceil(log2(x + 4))``, floored at 1 — the polylog building block."""
    return max(1, ceil_log2(x + 4))


def _loglog_term(delta: int) -> int:
    """``ceil(log Delta) * ceil(log log Delta)`` (Theorem 1/2 pass shape)."""
    log = max(1, ceil_log2(delta + 2))
    return log * max(1, ceil_log2(log + 2))


def _zero_random_bits(n, delta, config):
    return 0


def _one_pass(n, delta, config):
    return 1


def _det_colors(n, delta, config):
    return delta + 1


def _det_passes(n, delta, config):
    return 3 * _loglog_term(delta) + 6


def _det_space(n, delta, config):
    return 64 * (n + 4) * _log_term(n) ** 2


def _list_colors(n, delta, config):
    universe = config.get("universe")
    return universe if universe is not None else 2 * (delta + 1)


def _list_passes(n, delta, config):
    return 3 * _loglog_term(delta) + 10


def _robust_colors(n, delta, config):
    beta = float(config.get("beta", 0.0))
    return int(4 * round(delta ** ((5.0 - 3.0 * beta) / 2.0)) + 8)


def _robust_space(n, delta, config):
    beta = float(config.get("beta", 0.0))
    buffer_scale = max(1, round(delta**beta))
    return 32 * (n + 8) * buffer_scale * _log_term(n)


def _robust_random(n, delta, config):
    return 8 * n * (delta + 2) * _log_term(n)


def _lowrandom_space(n, delta, config):
    return 64 * (n + 8) * _log_term(n) ** 2 * _log_term(delta)


def _lowrandom_random(n, delta, config):
    return 32 * (delta + 2) * _log_term(n) ** 3


def _naive_space(n, delta, config):
    return 16 * (n + 16) * _log_term(n)


def _naive_random(n, delta, config):
    return 4 * n * _log_term(n * (delta + 2) ** 2) + 64


def _acs22_passes(n, delta, config):
    if config.get("variant", "two_pass") == "color_reduction":
        return 2 * _log_term(max(2, n // (delta + 1))) + 8
    return 4


def _acs22_space(n, delta, config):
    return 16 * (n + 8) * (delta + 2) * _log_term(n)


def _cgs22_space(n, delta, config):
    return 32 * (n + 8) * (delta + 2) * _log_term(n)


def _cgs22_random(n, delta, config):
    # The additive term covers the Delta-independent floor: ~log n sketch
    # repetitions are seeded even when Delta = 1 (empty/degenerate inputs).
    return 16 * (delta + 4) * _log_term(n) ** 2 + 512


def _sparsification_space(n, delta, config):
    return 32 * (n + 8) * _log_term(delta) * _log_term(n)


def _sparsification_random(n, delta, config):
    return 8 * n * _log_term(delta) * _log_term(n) + 64


def _stats_extras(algo) -> dict:
    """Epoch/stage diagnostics from instrumented multipass runs."""
    stats = getattr(algo, "stats", None)
    if stats is None:
        return {}
    extras = {"epochs": stats.epochs}
    if getattr(stats, "stage_stats", None):
        extras["stage_stats"] = [asdict(s) for s in stats.stage_stats]
    if getattr(stats, "epoch_stats", None):
        extras["epoch_stats"] = [asdict(e) for e in stats.epoch_stats]
    if getattr(stats, "list_mass_per_stage", None):
        extras["list_mass_per_stage"] = [
            list(item) for item in stats.list_mass_per_stage
        ]
    return extras


def _robust_extras(algo) -> dict:
    endpoints = np.concatenate((algo._a_edges, algo._c_edges)).ravel()
    per_vertex = np.bincount(endpoints, minlength=algo.n)
    return {
        "beta": algo.params.beta,
        "color_claim": algo.params.color_bound,
        "sketch_edge_count": algo.sketch_edge_count,
        "sketch_max_vertex_degree": int(per_vertex.max(initial=0)),
    }


def _lowrandom_extras(algo) -> dict:
    return {
        "palette": algo.palette_size,
        "ell": algo.ell,
        "repetitions": algo.repetitions,
        "surviving_sketches": algo.surviving_sketches(),
        "peak_bits_with_randomness": algo.meter.peak_bits_with_randomness,
    }


def _naive_extras(algo) -> dict:
    return {"range_size": algo.range_size, "dropped_edges": algo.dropped_edges}


REGISTRY = AlgorithmRegistry([
    AlgorithmEntry(
        name="deterministic",
        summary="deterministic multipass (Delta+1)-coloring",
        kind="multipass",
        reference="Theorem 1 / Algorithm 1",
        config_cls=DeterministicConfig,
        factory=_make_deterministic,
        collect_extras=_stats_extras,
        guarantee=GuaranteeSpec(
            colors=_det_colors,
            passes=_det_passes,
            space_bits=_det_space,
            random_bits=_zero_random_bits,
            claims={
                "colors": "Delta + 1 colors exactly (Theorem 1)",
                "passes": "O(log Delta * log log Delta) passes "
                          "(3*ceil(lg)*ceil(lglg) + 6)",
                "space_bits": "O(n log^2 n) bits (64x slack constant)",
                "random_bits": "deterministic: exactly 0 random bits",
            },
        ),
    ),
    AlgorithmEntry(
        name="list_coloring",
        summary="deterministic multipass (deg+1)-list-coloring",
        kind="multipass",
        reference="Theorem 2",
        config_cls=ListColoringConfig,
        factory=_make_list_coloring,
        needs_lists=True,
        enforce_palette=False,  # validated against per-vertex lists instead
        collect_extras=_stats_extras,
        guarantee=GuaranteeSpec(
            colors=_list_colors,
            passes=_list_passes,
            space_bits=_det_space,
            random_bits=_zero_random_bits,
            order_invariant=True,
            claims={
                "colors": "colors stay inside the declared universe "
                          "(per-vertex lists checked by the runner)",
                "passes": "O(log Delta * log log Delta) passes (Theorem 2)",
                "space_bits": "O(n log^2 n) bits (64x slack constant)",
                "random_bits": "deterministic: exactly 0 random bits",
            },
        ),
    ),
    AlgorithmEntry(
        name="robust",
        summary="adversarially robust O(Delta^{5/2})-coloring",
        kind="onepass",
        reference="Theorem 3 / Algorithm 2 (beta: Corollary 4.7)",
        config_cls=RobustConfig,
        factory=_make_robust,
        randomized=True,
        enforce_palette=False,  # guarantee is asymptotic, not an exact bound
        collect_extras=_robust_extras,
        guarantee=GuaranteeSpec(
            colors=_robust_colors,
            passes=_one_pass,
            space_bits=_robust_space,
            random_bits=_robust_random,
            claims={
                "colors": "O(Delta^{(5-3beta)/2}) colors "
                          "(Theorem 3 / Corollary 4.7; 4x + 8 slack)",
                "passes": "single pass exactly",
                "space_bits": "O(n Delta^beta log n) bits excl. oracle "
                              "randomness",
                "random_bits": "O(n Delta log n) oracle bits",
            },
        ),
    ),
    AlgorithmEntry(
        name="robust_lowrandom",
        summary="robust O(Delta^3)-coloring incl. randomness in space",
        kind="onepass",
        reference="Theorem 4 / Algorithm 3",
        config_cls=LowRandomConfig,
        factory=_make_lowrandom,
        randomized=True,
        collect_extras=_lowrandom_extras,
        guarantee=GuaranteeSpec(
            passes=_one_pass,
            space_bits=_lowrandom_space,
            random_bits=_lowrandom_random,
            space_includes_randomness=True,
            claims={
                "colors": "(Delta+1) * l^2 <= O(Delta^3) palette, enforced "
                          "exactly via the declared palette",
                "passes": "single pass exactly",
                "space_bits": "~O(n) bits INCLUDING randomness (Theorem 4)",
                "random_bits": "O(Delta log^3 n) seed bits",
            },
        ),
    ),
    AlgorithmEntry(
        name="naive",
        summary="one-shot random Delta^2-palette coloring (non-robust)",
        kind="onepass",
        reference="Section 1.2 / experiment T6 strawman",
        config_cls=AlgorithmConfig,
        factory=_make_naive,
        randomized=True,
        enforce_palette=False,  # adaptive adversaries force improper output
        collect_extras=_naive_extras,
        guarantee=GuaranteeSpec(
            passes=_one_pass,
            space_bits=_naive_space,
            random_bits=_naive_random,
            proper=False,
            claims={
                "colors": "Delta^2-range palette, enforced via the "
                          "declared palette",
                "passes": "single pass exactly",
                "space_bits": "O(n log n) bits (capacity buffer)",
                "random_bits": "O(n log Delta) bits (one draw per vertex)",
                "proper": "NOT guaranteed (the non-robust strawman)",
            },
        ),
    ),
    AlgorithmEntry(
        name="acs22",
        summary="[ACS22]-style deterministic O(Delta^2) / O(Delta) coloring",
        kind="multipass",
        reference="Assadi-Chen-Sun 2022 (baseline)",
        config_cls=ACS22Config,
        factory=_make_acs22,
        guarantee=GuaranteeSpec(
            passes=_acs22_passes,
            space_bits=_acs22_space,
            random_bits=_zero_random_bits,
            order_invariant=True,
            claims={
                "colors": "O(Delta^2) (two_pass) / 4(Delta+1) "
                          "(color_reduction), enforced via the declared "
                          "palette",
                "passes": "4 passes (two_pass) / O(log(n/Delta)) "
                          "(color_reduction)",
                "space_bits": "O(n Delta log n) bits",
                "random_bits": "deterministic: exactly 0 random bits",
            },
        ),
    ),
    AlgorithmEntry(
        name="cgs22",
        summary="[CGS22]-style sketch-switching robust O(Delta^2)-coloring",
        kind="onepass",
        reference="Chakrabarti-Ghosh-Stoeckl 2022 (baseline)",
        config_cls=CGS22Config,
        factory=_make_cgs22,
        randomized=True,
        guarantee=GuaranteeSpec(
            passes=_one_pass,
            space_bits=_cgs22_space,
            random_bits=_cgs22_random,
            claims={
                "colors": "O(Delta^2) palette, enforced via the declared "
                          "palette",
                "passes": "single pass exactly",
                "space_bits": "O(n Delta log n) bits (sketch switching)",
                "random_bits": "O(Delta log^2 n) seed bits",
            },
        ),
    ),
    AlgorithmEntry(
        name="palette_sparsification",
        summary="[ACK19] randomized one-pass (Delta+1)-coloring (non-robust)",
        kind="multipass",
        reference="Assadi-Chen-Khanna 2019 (baseline)",
        config_cls=AlgorithmConfig,
        factory=_make_palette_sparsification,
        randomized=True,
        guarantee=GuaranteeSpec(
            passes=_one_pass,
            space_bits=_sparsification_space,
            random_bits=_sparsification_random,
            order_invariant=True,
            claims={
                "colors": "Delta + 1 colors, enforced via the declared "
                          "palette (ACK19)",
                "passes": "single pass exactly",
                "space_bits": "O(n log Delta log n) bits (sampled lists)",
                "random_bits": "O(n log Delta log n) sampling bits",
            },
        ),
    ),
])
