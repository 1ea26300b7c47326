"""Shared helpers for the benchmark suite.

Each benchmark regenerates one experiment table (DESIGN.md, "Experiment
inventory"), prints it, and archives it under ``benchmarks/results/``, so
one ``pytest benchmarks/ --benchmark-only`` run refreshes every table
there; ``tests/data/tables/`` pins the ``repro run`` tables at default
arguments.
"""

import json
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def record_json():
    """Fixture: ``record_json(name, payload)`` -> path.

    Writes ``benchmarks/results/BENCH_<name>.json`` — the machine-readable
    artifact CI uploads so the BENCH trajectory has comparable numbers
    across commits.
    """

    def _record(name, payload):
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"BENCH_{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path

    return _record


@pytest.fixture
def record_table():
    """Fixture: ``record_table(name, headers, rows, title)`` -> str."""

    def _record(name, headers, rows, title=None):
        from repro.analysis.tables import format_table

        text = format_table(headers, rows, title=title or name)
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print("\n" + text)
        return text

    return _record


def run_once(benchmark, fn, *args, **kwargs):
    """Time ``fn`` exactly once (experiment runners are too slow to repeat)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
