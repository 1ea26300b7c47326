"""Experiment harness: runners, power-law fitting, and table formatting.

One runner per experiment in DESIGN.md's experiment inventory (T1-T10,
F1-F3, A1-A4).  ``repro run`` and the ``benchmarks/`` suite both consume
these, so the printed rows are reproducible from a single code path:
``tests/data/tables/`` pins each table as ``repro run`` prints it at
default arguments, and the benchmarks archive theirs under
``benchmarks/results/``.
"""

from repro.analysis.fitting import fit_power_law
from repro.analysis.tables import format_table

__all__ = ["fit_power_law", "format_table"]
