"""Experiment runners: one function per DESIGN.md experiment id.

Every runner returns ``(headers, rows)`` ready for
:func:`repro.analysis.tables.format_table`; the benchmark suite times them
and archives the tables under ``benchmarks/results/``, and
``tests/data/tables/`` pins each table as ``repro run`` prints it at
default arguments.
Sizes are parameterized so tests can use tiny instances and benchmarks
larger ones.

Since the :mod:`repro.engine` redesign, each runner is a declarative
:class:`~repro.engine.GridSpec` (axes + per-job derived seeds) executed by
the shared :class:`~repro.engine.GridRunner`, plus a derived-column list
mapping the uniform :class:`~repro.engine.ColoringResult` records onto the
experiment's table.  Seed derivations are identical to the pre-engine
runners, so the tables are reproduced bit-for-bit.  Only T8 (the two-party
communication protocol) and T10 (the offline Turán bound) sit outside the
streaming-run schema and keep bespoke loops.
"""

import math

from repro.common.integer_math import ceil_log2
from repro.common.rng import derive_seed
from repro.engine import GridRunner, GridSpec, results_table

__all__ = [
    "run_a1_selection_ablation",
    "run_a2_sketch_concentration",
    "run_a3_overflow_survival",
    "run_a4_prime_ablation",
    "run_f1_potential_trace",
    "run_f2_shrinkage_trace",
    "run_f3_list_mass_decay",
    "run_t1_passes_vs_delta",
    "run_t2_space_vs_n",
    "run_t3_list_coloring",
    "run_t4_robust_colors",
    "run_t5_tradeoff",
    "run_t6_robustness_game",
    "run_t7_lowrandom",
    "run_t8_communication",
    "run_t9_deterministic_landscape",
    "run_t10_turan",
]


def _log2(x: float) -> float:
    return math.log2(max(2.0, x))


def _pass_bound(delta: int) -> float:
    """The Theorem 1 pass budget shape ``log Delta * log log Delta``."""
    ld = _log2(delta + 1)
    return ld * _log2(ld)


def _worst_phi_ratio(result) -> float:
    """Max ``phi_after / |U|`` over an instrumented run's stages."""
    worst = 0.0
    for s in result.extras.get("stage_stats", ()):
        if s["uncolored"]:
            worst = max(worst, s["potential_after"] / s["uncolored"])
    return worst


# ----------------------------------------------------------------------
# T1: passes vs Delta for the deterministic algorithm (Theorem 1)
# ----------------------------------------------------------------------
def run_t1_passes_vs_delta(deltas, n: int, seed: int = 0, selection="hash_family",
                           prime_policy="paper"):
    grid = GridSpec(
        axes={"delta": list(deltas)},
        constants={
            "algorithm": "deterministic", "n": n,
            "selection": selection, "prime_policy": prime_policy,
        },
        derive=lambda job: {"graph_seed": derive_seed(seed, f"t1/{job['delta']}")},
    )
    return GridRunner().table(grid, [
        ("delta", "delta"),
        ("n", "n"),
        ("passes", "passes"),
        ("epochs", "epochs"),
        ("colors", "colors_used"),
        ("palette", "palette_bound"),
        ("passes/(lgD*lglgD)", lambda r: r.passes / _pass_bound(r.delta)),
        ("proper", "proper"),
    ])


# ----------------------------------------------------------------------
# T2: space vs n for the deterministic algorithm (Theorem 1)
# ----------------------------------------------------------------------
def run_t2_space_vs_n(ns, delta: int, seed: int = 0, selection="hash_family",
                      prime_policy="paper"):
    grid = GridSpec(
        axes={"n": list(ns)},
        constants={
            "algorithm": "deterministic", "delta": delta,
            "selection": selection, "prime_policy": prime_policy,
        },
        derive=lambda job: {"graph_seed": derive_seed(seed, f"t2/{job['n']}")},
    )

    def budget(r):
        return r.n * _log2(r.n) ** 2

    return GridRunner().table(grid, [
        ("n", "n"),
        ("delta", "delta"),
        ("peak_bits", "peak_space_bits"),
        ("n*log2(n)^2", lambda r: round(budget(r))),
        ("ratio", lambda r: r.peak_space_bits / budget(r)),
        ("passes", "passes"),
    ])


def _instrumented_run(algorithm: str, n: int, delta: int, graph_seed: int,
                      **options):
    """One instrumented engine run (the F1/F2/F3/A1/A4 trace harness)."""
    grid = GridSpec(
        axes={},
        constants={
            "algorithm": algorithm, "n": n, "delta": delta,
            "graph_seed": graph_seed, "instrument": True, **options,
        },
    )
    return GridRunner().run(grid)[0]


# ----------------------------------------------------------------------
# F1: potential trajectory within epochs (Lemma 3.5)
# ----------------------------------------------------------------------
def run_f1_potential_trace(n: int, delta: int, seed: int = 0,
                           prime_policy="paper"):
    headers = [
        "epoch", "stage", "k", "|U|", "phi_before", "phi_after",
        "phi_after<=2|U|",
    ]
    result = _instrumented_run(
        "deterministic", n, delta, derive_seed(seed, "f1"),
        prime_policy=prime_policy,
    )
    rows = []
    for s in result.extras["stage_stats"]:
        rows.append([
            s["epoch"], s["stage"], s["k"], s["uncolored"],
            round(s["potential_before"], 3), round(s["potential_after"], 3),
            s["potential_after"] <= 2 * s["uncolored"] + 1e-9,
        ])
    return headers, rows


# ----------------------------------------------------------------------
# F2: |U| decay and |F| <= |U| per epoch (Lemmas 3.7, 3.8)
# ----------------------------------------------------------------------
def run_f2_shrinkage_trace(n: int, delta: int, seed: int = 0,
                           prime_policy="paper"):
    headers = ["epoch", "|U| before", "|U| after", "|F|", "|F|<=|U|", "shrink"]
    result = _instrumented_run(
        "deterministic", n, delta, derive_seed(seed, "f2"),
        prime_policy=prime_policy,
    )
    rows = []
    for e in result.extras["epoch_stats"]:
        rows.append([
            e["epoch"], e["uncolored_before"], e["uncolored_after"],
            e["conflict_edges"],
            e["conflict_edges"] <= e["uncolored_before"],
            e["uncolored_after"] / max(1, e["uncolored_before"]),
        ])
    return headers, rows


# ----------------------------------------------------------------------
# T3: (deg+1)-list-coloring (Theorem 2)
# ----------------------------------------------------------------------
def run_t3_list_coloring(cases, seed: int = 0, selection="hash_family",
                         prime_policy="paper"):
    """``cases`` is a list of ``(n, delta, universe)`` triples."""

    def derive(job):
        n, delta, universe = job["_case"]
        return {
            "n": n, "delta": delta, "universe": universe,
            "graph_seed": derive_seed(seed, f"t3/{n}/{delta}"),
            "list_seed": derive_seed(seed, f"t3l/{n}"),
            "stream_seed": derive_seed(seed, f"t3s/{n}"),
        }

    grid = GridSpec(
        axes={"_case": list(cases)},
        constants={
            "algorithm": "list_coloring",
            "selection": selection, "prime_policy": prime_policy,
        },
        derive=derive,
    )
    return GridRunner().table(grid, [
        ("n", "n"),
        ("delta", "delta"),
        ("|C|", lambda r: r.config["universe"]),
        ("passes", "passes"),
        ("epochs", "epochs"),
        ("proper+on-list", "proper"),
        ("passes/(lgD*lglgD)", lambda r: r.passes / _pass_bound(r.delta)),
    ])


# ----------------------------------------------------------------------
# F3: the Lemma 3.10 list-mass decay inside an epoch (Theorem 2)
# ----------------------------------------------------------------------
def run_f3_list_mass_decay(n: int, delta: int, universe: int, seed: int = 0,
                           prime_policy="paper"):
    """Per-stage trace of ``sum_x (|P_x ∩ L_x| - 1)``; Lemma 3.10 drives it
    down by ``~2^{-k/2}`` per partition stage until it is ``<= |U|``."""
    headers = ["epoch", "stage", "mass", "decay vs prev", "target |U|"]
    grid = GridSpec(
        axes={},
        constants={
            "algorithm": "list_coloring", "n": n, "delta": delta,
            "universe": universe, "prime_policy": prime_policy,
            "instrument": True,
            "graph_seed": derive_seed(seed, "f3"),
            "list_seed": derive_seed(seed, "f3l"),
            "stream_seed": derive_seed(seed, "f3s"),
        },
    )
    result = GridRunner().run(grid)[0]
    rows = []
    prev = {}
    stage_in_epoch = {}
    for epoch, mass in result.extras["list_mass_per_stage"]:
        stage_in_epoch[epoch] = stage_in_epoch.get(epoch, 0) + 1
        decay = mass / prev[epoch] if prev.get(epoch) else float("nan")
        rows.append([epoch, stage_in_epoch[epoch], mass, decay, n])
        prev[epoch] = mass
    return headers, rows


# ----------------------------------------------------------------------
# T4: robust colors vs Delta (Theorem 3) against the Delta^3 baseline
# ----------------------------------------------------------------------
def run_t4_robust_colors(deltas, n_of_delta, seed: int = 0, query_every=None,
                         adversary="conflict"):
    """``n_of_delta(delta) -> n``; colors must be populated, so n should
    grow like ``Delta^{5/2}`` (see DESIGN.md T4)."""

    def derive(job):
        delta = job["delta"]
        n = n_of_delta(delta)
        rounds = (n * delta) // 3
        variant = job["_variant"]
        seed_tag, adv_tag = (
            ("t4a", "t4adv") if variant == "robust" else ("t4b", "t4adv2")
        )
        return {
            "algorithm": variant, "n": n, "rounds": rounds,
            "query_every": query_every or max(1, rounds // 24),
            "seed": derive_seed(seed, f"{seed_tag}/{delta}"),
            "adversary_seed": derive_seed(seed, f"{adv_tag}/{delta}"),
        }

    grid = GridSpec(
        mode="game",
        axes={"delta": list(deltas),
              "_variant": ["robust", "robust_lowrandom"]},
        constants={"adversary": adversary},
        derive=derive,
    )
    results = GridRunner().run(grid)
    headers = [
        "delta", "n", "colors_2.5", "colors_3", "D^2.5", "D^3",
        "ratio_2.5", "ratio_3", "errors",
    ]
    rows = []
    for a, b in zip(results[0::2], results[1::2]):
        delta = a.delta
        rows.append([
            delta, a.n, a.colors_used, b.colors_used,
            round(delta**2.5), round(delta**3),
            a.colors_used / delta**2.5,
            b.colors_used / delta**3,
            a.extras["errors"] + b.extras["errors"],
        ])
    return headers, rows


# ----------------------------------------------------------------------
# T5: the Corollary 4.7 colors/space tradeoff
# ----------------------------------------------------------------------
def run_t5_tradeoff(betas, delta: int, n: int, seed: int = 0, rounds=None,
                    query_every=None, include_cgs22: bool = False):
    """Sweep the Cor 4.7 beta parameter; optionally append the [CGS22]-style
    O(Delta^2) @ n*sqrt(Delta) comparison row (headline improvement (i))."""
    edge_bits = 2 * ceil_log2(max(2, n))
    rounds_ = rounds or (n * delta) // 3
    qe = query_every or max(1, rounds_ // 16)

    def derive(job):
        if job["_label"] == "cgs22":
            return {
                "algorithm": "cgs22",
                "seed": derive_seed(seed, "t5/cgs22"),
                "adversary_seed": derive_seed(seed, "t5adv/cgs22"),
            }
        beta = job["_label"]
        return {
            "algorithm": "robust", "beta": beta,
            "seed": derive_seed(seed, f"t5/{beta}"),
            "adversary_seed": derive_seed(seed, f"t5adv/{beta}"),
        }

    labels = list(betas) + (["cgs22"] if include_cgs22 else [])
    grid = GridSpec(
        mode="game",
        axes={"_label": labels},
        constants={"n": n, "delta": delta, "rounds": rounds_,
                   "query_every": qe, "adversary": "conflict"},
        derive=derive,
    )
    results = GridRunner().run(grid)
    headers = [
        "algorithm", "beta", "colors", "colors_claim", "colors_ratio",
        "space_bits", "space_claim [edges*bits]", "space_ratio", "errors",
    ]
    rows = []
    for r in results:
        if r.algorithm == "cgs22":
            beta = 0.5
            label = "CGS22-style O(D^2)"
            colors_claim = float(delta**2)
            bad = r.extras["errors"] + r.extras["failures"]
        else:
            beta = r.config["beta"]
            label = "Alg 2 (Cor 4.7)"
            colors_claim = delta ** ((5 - 3 * beta) / 2)
            bad = r.extras["errors"]
        space_claim = n * delta**beta * edge_bits
        rows.append([
            label, beta, r.colors_used, round(colors_claim),
            r.colors_used / colors_claim,
            r.peak_space_bits, round(space_claim),
            r.peak_space_bits / space_claim, bad,
        ])
    return headers, rows


# ----------------------------------------------------------------------
# T6: the robustness game — who survives an adaptive adversary?
# ----------------------------------------------------------------------
def run_t6_robustness_game(n: int, delta: int, rounds: int, seed: int = 0,
                           trials: int = 3):
    algorithms = {
        "one-shot random (non-robust)": "naive",
        "robust D^2.5 (Alg 2)": "robust",
        "robust D^3 (Alg 3)": "robust_lowrandom",
    }
    adversaries = {
        "adaptive (conflict)": "conflict",
        "oblivious (random)": "random",
    }

    def derive(job):
        algo_name, adv_name, t = job["_algo"], job["_adv"], job["_trial"]
        return {
            "algorithm": algorithms[algo_name],
            "adversary": adversaries[adv_name],
            "seed": derive_seed(seed, f"t6/{algo_name}/{adv_name}/a{t}"),
            "adversary_seed": derive_seed(seed, f"t6/{algo_name}/{adv_name}/b{t}"),
        }

    grid = GridSpec(
        mode="game",
        axes={"_algo": list(algorithms), "_adv": list(adversaries),
              "_trial": range(trials)},
        constants={"n": n, "delta": delta, "rounds": rounds},
        derive=derive,
    )
    results = GridRunner().run(grid)
    headers = [
        "algorithm", "adversary", "trials", "rounds", "error_trials",
        "total_errors",
    ]
    rows = []
    for i in range(0, len(results), trials):
        batch = results[i:i + trials]
        rows.append([
            batch[0].tag("algo"), batch[0].tag("adv"), trials, rounds,
            sum(1 for r in batch if not r.proper),
            sum(r.extras["errors"] + r.extras["failures"] for r in batch),
        ])
    return headers, rows


# ----------------------------------------------------------------------
# T7: the randomness-efficient algorithm (Theorem 4)
# ----------------------------------------------------------------------
def run_t7_lowrandom(deltas, n_of_delta, seed: int = 0):
    def derive(job):
        delta = job["delta"]
        n = n_of_delta(delta)
        rounds = (n * delta) // 3
        return {
            "n": n, "rounds": rounds,
            "query_every": max(1, rounds // 16),
            "seed": derive_seed(seed, f"t7/{delta}"),
            "adversary_seed": derive_seed(seed, f"t7adv/{delta}"),
        }

    grid = GridSpec(
        mode="game",
        axes={"delta": list(deltas)},
        constants={"algorithm": "robust_lowrandom", "adversary": "conflict"},
        derive=derive,
    )
    return results_table(GridRunner().run(grid), [
        ("delta", "delta"),
        ("n", "n"),
        ("palette", "palette"),
        ("(D+1)l^2", lambda r: (r.delta + 1) * r.extras["ell"] ** 2),
        ("colors", "colors_used"),
        ("work_bits", "peak_space_bits"),
        ("random_bits", "random_bits"),
        ("total/n*lg^2n", lambda r: (
            r.extras["peak_bits_with_randomness"] / (r.n * _log2(r.n) ** 2)
        )),
        ("surviving D_j", "surviving_sketches"),
        ("errors", lambda r: r.extras["errors"] + r.extras["failures"]),
    ])


# ----------------------------------------------------------------------
# T8: the two-party communication protocol (Corollary 3.11)
# ----------------------------------------------------------------------
def run_t8_communication(ns, delta: int, seed: int = 0, selection="hash_family",
                         prime_policy="paper"):
    """Not a streaming run — the Corollary 3.11 two-party reduction."""
    from repro.core import DeterministicColoring, two_party_coloring_protocol
    from repro.graph.coloring import validate_coloring
    from repro.graph.generators import random_max_degree_graph
    from repro.streaming.stream import stream_from_graph

    headers = [
        "n", "delta", "rounds", "total_bits", "n*log2(n)^4", "ratio", "proper",
    ]
    rows = []
    for n in ns:
        graph = random_max_degree_graph(n, delta, seed=derive_seed(seed, f"t8/{n}"))
        tokens = stream_from_graph(graph).tokens
        half = len(tokens) // 2
        algo = DeterministicColoring(
            n, delta, selection=selection, prime_policy=prime_policy
        )
        result = two_party_coloring_protocol(algo, tokens[:half], tokens[half:], n)
        validate_coloring(graph, result.coloring, palette_size=delta + 1)
        budget = n * _log2(n) ** 4
        rows.append([
            n, delta, result.rounds, result.total_bits, round(budget),
            result.total_bits / budget, True,
        ])
    return headers, rows


# ----------------------------------------------------------------------
# T9: deterministic landscape — colors vs passes across algorithms
# ----------------------------------------------------------------------
def run_t9_deterministic_landscape(n: int, delta: int, seed: int = 0,
                                   prime_policy="paper"):
    contenders = [
        ("ours: (D+1), O(lgD lglgD) passes",
         {"algorithm": "deterministic", "prime_policy": prime_policy}),
        ("ACS22-style O(D^2), O(1) passes",
         {"algorithm": "acs22", "variant": "two_pass"}),
        ("ACS22-style O(D), O(lgD) rounds",
         {"algorithm": "acs22", "variant": "color_reduction"}),
        ("ACK19 randomized (D+1), 1 pass",
         {"algorithm": "palette_sparsification",
          "seed": derive_seed(seed, "t9ps")}),
    ]
    by_label = dict(contenders)
    grid = GridSpec(
        axes={"_label": [label for label, _ in contenders]},
        constants={"n": n, "delta": delta,
                   "graph_seed": derive_seed(seed, "t9")},
        derive=lambda job: by_label[job["_label"]],
    )
    return GridRunner().table(grid, [
        ("algorithm", lambda r: r.tag("label")),
        ("colors", "colors_used"),
        ("palette_bound", "palette_bound"),
        ("passes", "passes"),
        ("peak_bits", "peak_space_bits"),
    ])


# ----------------------------------------------------------------------
# T10: the constructive Turán bound (Lemma 2.1)
# ----------------------------------------------------------------------
def run_t10_turan(cases, seed: int = 0):
    """``cases``: list of ``(n, p_edge)`` G(n, p) parameters.

    Offline (no stream): exercises the Lemma 2.1 primitive directly.
    """
    from repro.graph.generators import gnp_random_graph
    from repro.graph.independent_set import turan_bound, turan_independent_set

    headers = ["n", "m", "|I|", "bound n^2/(2m+n)", "|I|>=bound"]
    rows = []
    for i, (n, p_edge) in enumerate(cases):
        graph = gnp_random_graph(n, p_edge, seed=derive_seed(seed, f"t10/{i}"))
        ind = turan_independent_set(graph)
        bound = turan_bound(graph.n, graph.m)
        rows.append([n, graph.m, len(ind), float(bound), len(ind) >= bound])
    return headers, rows


# ----------------------------------------------------------------------
# A4: ablation — paper prime vs scaled prime in the family search
# ----------------------------------------------------------------------
def run_a4_prime_ablation(n: int, delta: int, seed: int = 0):
    """Lemma 3.2 sizes the Carter-Wegman prime at Theta(n log n); the
    ``scaled`` policy uses Theta(n) instead, trading the rounding epsilon
    for speed (DESIGN.md note 1).  Measure the potential drift and cost."""
    from repro.core.deterministic import choose_family_prime

    grid = GridSpec(
        axes={"prime_policy": ["paper", "scaled"]},
        constants={"algorithm": "deterministic", "n": n, "delta": delta,
                   "graph_seed": derive_seed(seed, "a4"), "instrument": True},
    )
    return GridRunner().table(grid, [
        ("prime_policy", lambda r: r.config["prime_policy"]),
        ("prime p", lambda r: choose_family_prime(n, r.config["prime_policy"])),
        ("passes", "passes"),
        ("epochs", "epochs"),
        ("max phi_after/|U|", lambda r: round(_worst_phi_ratio(r), 3)),
        ("runtime_s", lambda r: round(r.wall_time_s, 3)),
        ("proper", "proper"),
    ])


# ----------------------------------------------------------------------
# A1: ablation — family-search selection vs greedy-slack heuristic
# ----------------------------------------------------------------------
def run_a1_selection_ablation(n: int, delta: int, seed: int = 0,
                              prime_policy="paper"):
    grid = GridSpec(
        axes={"selection": ["hash_family", "greedy_slack"]},
        constants={"algorithm": "deterministic", "n": n, "delta": delta,
                   "graph_seed": derive_seed(seed, "a1"),
                   "prime_policy": prime_policy, "instrument": True},
    )
    return GridRunner().table(grid, [
        ("selection", lambda r: r.config["selection"]),
        ("passes", "passes"),
        ("epochs", "epochs"),
        ("stages", lambda r: len(r.extras["stage_stats"])),
        ("passes/stage", lambda r: (
            r.passes / max(1, len(r.extras["stage_stats"]))
        )),
        ("max phi_after/|U|", lambda r: round(_worst_phi_ratio(r), 3)),
        ("colors", "colors_used"),
        ("proper", "proper"),
    ])


# ----------------------------------------------------------------------
# A2: ablation — Algorithm 2 sketch concentration (Lemmas 4.2/4.3)
# ----------------------------------------------------------------------
def run_a2_sketch_concentration(n: int, delta: int, seed: int = 0,
                                trials: int = 3):
    rounds = (n * delta) // 3
    bound = 5 * _log2(n)
    grid = GridSpec(
        mode="game",
        axes={"_trial": range(trials)},
        constants={"algorithm": "robust", "n": n, "delta": delta,
                   "rounds": rounds, "query_every": max(1, rounds // 8),
                   "adversary": "level"},
        derive=lambda job: {
            "seed": derive_seed(seed, f"a2/{job['_trial']}"),
            "adversary_seed": derive_seed(seed, f"a2adv/{job['_trial']}"),
        },
    )
    return GridRunner().table(grid, [
        ("trial", lambda r: r.tag("trial")),
        ("edges", lambda r: rounds),
        ("sketch_edges", "sketch_edge_count"),
        ("per-vertex max A+C deg", "sketch_max_vertex_degree"),
        ("bound 5*lg n", lambda r: round(bound, 1)),
        # generous constant; shape is what matters
        ("within", lambda r: r.extras["sketch_max_vertex_degree"] <= 4 * bound),
    ])


# ----------------------------------------------------------------------
# A3: ablation — sketch overflow survival in Algorithm 3 (Lemma 4.8)
# ----------------------------------------------------------------------
def run_a3_overflow_survival(n: int, delta: int, seed: int = 0, trials: int = 3):
    rounds = (n * delta) // 3
    grid = GridSpec(
        mode="game",
        axes={"_trial": range(trials)},
        constants={"algorithm": "robust_lowrandom", "n": n, "delta": delta,
                   "rounds": rounds, "query_every": max(1, rounds // 8),
                   "adversary": "conflict"},
        derive=lambda job: {
            "seed": derive_seed(seed, f"a3/{job['_trial']}"),
            "adversary_seed": derive_seed(seed, f"a3adv/{job['_trial']}"),
        },
    )
    return GridRunner().table(grid, [
        ("trial", lambda r: r.tag("trial")),
        ("repetitions P", "repetitions"),
        ("surviving D_{curr,j}", "surviving_sketches"),
        ("survived>=1", lambda r: r.extras["surviving_sketches"] >= 1),
        ("failures", lambda r: r.extras["failures"]),
    ])
