"""Assemble a markdown report from archived benchmark tables.

``python -m repro report`` (or :func:`build_report`) collects the
``benchmarks/results/*.txt`` tables into one markdown document.  The
pinned ``repro run`` tables in ``tests/data/tables/`` are the tracked
record; this report is an untracked view of a benchmark run.
"""

import pathlib

EXPERIMENT_ORDER = [
    "t1_passes_vs_delta",
    "t2_space_vs_n",
    "f1_potential_trace",
    "f2_shrinkage_trace",
    "t3_list_coloring",
    "f3_list_mass_decay",
    "t4_robust_colors",
    "t5_tradeoff",
    "t6_robustness_game",
    "t7_lowrandom",
    "t8_communication",
    "t9_landscape",
    "t10_turan",
    "a1_selection_ablation",
    "a2_sketch_concentration",
    "a3_overflow_survival",
    "a4_prime_ablation",
    "s1_scale",
]


def build_report(results_dir) -> str:
    """Concatenate all archived tables (known order first) into markdown."""
    results_dir = pathlib.Path(results_dir)
    available = {p.stem: p for p in sorted(results_dir.glob("*.txt"))}
    lines = [
        "# Experiment tables",
        "",
        "Generated from `benchmarks/results/`; regenerate with "
        "`pytest benchmarks/ --benchmark-only`.",
        "",
    ]
    ordered = [name for name in EXPERIMENT_ORDER if name in available]
    ordered += [name for name in sorted(available) if name not in EXPERIMENT_ORDER]
    for name in ordered:
        text = available[name].read_text().rstrip("\n")
        lines.append(f"## {name}")
        lines.append("")
        lines.append("```")
        lines.append(text)
        lines.append("```")
        lines.append("")
    if not ordered:
        lines.append("*(no archived tables found — run the benchmarks first)*")
    return "\n".join(lines) + "\n"
