"""Plain-text table formatting for benchmark output.

``repro run`` and the benchmark harness print the same rows that
``tests/data/tables/`` pins and ``benchmarks/results/`` archives; a tiny
fixed-width formatter keeps that output dependency-free and diff-friendly.
"""


def _render(value) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 1000 or (0 < abs(value) < 0.01):
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(headers, rows, title=None) -> str:
    """Fixed-width table; ``rows`` is a list of sequences matching headers."""
    cells = [[_render(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
