"""The verification subsystem: oracles, differential, metamorphic, sweep."""

from dataclasses import replace

import pytest

from repro.common.exceptions import GuaranteeViolationError, ReproError
from repro.engine import (
    REGISTRY,
    AlgorithmRegistry,
    RunSpec,
    evaluate_guarantees,
    run,
)
from repro.verify import (
    Cell,
    check_order_invariance,
    check_seed_determinism,
    check_subsample_stability,
    differential_check,
    run_cell,
    verify_sweep,
)


def _shrunk_colors_bound(n, delta, config):
    """An injected, deliberately impossible palette claim."""
    return 0


def registry_with_shrunk_palette(name: str) -> AlgorithmRegistry:
    """A registry copy whose ``name`` entry claims an unsatisfiable bound."""
    entries = []
    for entry in REGISTRY:
        if entry.name == name:
            guarantee = replace(
                entry.guarantee, colors=_shrunk_colors_bound
            )
            entry = replace(entry, guarantee=guarantee)
        entries.append(entry)
    return AlgorithmRegistry(entries)


class TestGuaranteeDeclarations:
    def test_every_entry_declares_a_guarantee(self):
        for entry in REGISTRY:
            assert entry.guarantee is not None, entry.name

    def test_exact_claims_are_exact(self):
        # Deterministic algorithms claim exactly zero random bits; the
        # one-pass algorithms claim exactly one pass.
        for name in ("deterministic", "list_coloring", "acs22"):
            g = REGISTRY.get(name).guarantee
            assert g.random_bits(64, 8, {}) == 0
        for name in ("robust", "robust_lowrandom", "naive", "cgs22",
                     "palette_sparsification"):
            g = REGISTRY.get(name).guarantee
            assert g.passes(64, 8, {}) == 1

    def test_only_the_strawman_waives_properness(self):
        for entry in REGISTRY:
            assert entry.guarantee.proper == (entry.name != "naive")


class TestOracleEvaluation:
    def test_clean_run_produces_clean_report(self):
        result = run(RunSpec(algorithm="deterministic", n=48, delta=6,
                             seed=1, verify=True))
        report = result.extras["guarantees"]
        assert report["ok"] is True
        names = {c["name"] for c in report["checks"]}
        assert {"proper", "palette", "colors", "passes", "space_bits",
                "random_bits"} <= names

    def test_shrunk_palette_is_caught(self):
        registry = registry_with_shrunk_palette("deterministic")
        result = run(RunSpec(algorithm="deterministic", n=32, delta=4,
                             seed=1, verify=True), registry=registry)
        report = result.extras["guarantees"]
        assert report["ok"] is False
        bad = [c for c in report["checks"] if not c["ok"]]
        assert bad and bad[0]["name"] == "colors" and bad[0]["bound"] == 0

    def test_strict_mode_raises(self):
        registry = registry_with_shrunk_palette("naive")
        with pytest.raises(GuaranteeViolationError, match="naive"):
            run(RunSpec(algorithm="naive", n=32, delta=4, seed=1,
                        verify="strict", validate=False), registry=registry)

    def test_bad_verify_value_is_rejected(self):
        # Anything other than False/True/"strict" must fail loudly — a
        # typo like "Strict" silently downgrading to record-only would
        # defeat the whole point of strict enforcement.
        for bad in ("Strict", "raise", 2):
            with pytest.raises(ReproError, match="RunSpec.verify"):
                run(RunSpec(algorithm="naive", n=16, delta=3, seed=1,
                            verify=bad, validate=False))

    def test_verify_off_records_nothing(self):
        result = run(RunSpec(algorithm="naive", n=24, delta=3, seed=1,
                             validate=False))
        assert "guarantees" not in result.extras

    def test_palette_overflow_is_a_violation(self):
        # Even without a colors bound, exceeding the declared palette
        # must fail the report (the injected-violation acceptance path).
        result = run(RunSpec(algorithm="cgs22", n=24, delta=3, seed=1,
                             keep_coloring=True))
        doctored = replace(result, colors_used=result.palette_bound + 1)
        report = evaluate_guarantees(
            doctored, REGISTRY.get("cgs22").guarantee
        )
        assert not report.ok
        assert [c.name for c in report.violations] == ["palette"]
        with pytest.raises(GuaranteeViolationError):
            report.raise_on_violation()


class TestRunCell:
    def test_delta_is_workload_max_degree(self):
        result = run_cell(Cell(algorithm="naive", family="near_star", n=24,
                               seed=0, chunk_size=8))
        assert result.delta == 23 and result.n == 24

    def test_token_and_block_planes(self):
        token = run_cell(Cell(algorithm="cgs22", family="bipartite", n=24,
                              seed=2), keep_coloring=True)
        block = run_cell(Cell(algorithm="cgs22", family="bipartite", n=24,
                              seed=2, chunk_size=16), keep_coloring=True)
        # A token stream runs as one-edge materialized blocks.
        assert token.extras["stream_backend"] == "materialized"
        assert token.extras["chunk_size"] == 1
        assert block.extras["stream_backend"] == "generator"
        assert token.coloring == block.coloring

    def test_list_coloring_rides_materialized_blocks(self):
        block = run_cell(Cell(algorithm="list_coloring", family="power_law",
                              n=20, seed=2, chunk_size=8))
        assert block.extras["stream_backend"] == "materialized"
        assert block.extras["guarantees"]["ok"]

    def test_list_coloring_config_universe_reaches_the_stream(self):
        # The stream's list tokens must be drawn from the configured
        # universe, not the default 2*(delta+1) (regression: the mismatch
        # used to crash with a raw IndexError inside the stage machinery).
        result = run_cell(
            Cell(algorithm="list_coloring", family="cliques_paths", n=20,
                 seed=2, chunk_size=8),
            config={"universe": 30},
        )
        assert result.extras["guarantees"]["ok"]
        assert result.config["universe"] == 30


class TestDifferential:
    def test_agreement_across_planes(self):
        report = differential_check(
            Cell(algorithm="robust", family="planted_clique", n=32, seed=5),
            chunk_sizes=(5, 64),
        )
        assert report.ok
        assert set(report.results) == {None, 5, 64}

    def test_divergence_is_reported(self):
        # Inject a data-plane divergence: an algorithm whose palette
        # claim depends on whether it saw blocks of more than one edge
        # (the token plane feeds one-edge blocks).
        from repro.baselines import OneShotRandomColoring

        class PlaneSensitive(OneShotRandomColoring):
            def process_block(self, edges):
                if len(edges) > 1:
                    self.palette_size = self.range_size + 1  # diverge
                super().process_block(edges)

        def make(n, delta, seed, cfg):
            return PlaneSensitive(n, delta, seed=seed)

        entries = [
            replace(e, factory=make) if e.name == "naive" else e
            for e in REGISTRY
        ]
        report = differential_check(
            Cell(algorithm="naive", family="power_law", n=24, seed=1),
            chunk_sizes=(8,),
            registry=AlgorithmRegistry(entries),
        )
        assert not report.ok
        assert any("palette_bound" in line for line in report.describe())


class TestMetamorphic:
    def test_seed_determinism_all_algorithms(self):
        for name in REGISTRY.names():
            cell = Cell(algorithm=name, family="planted_clique", n=20,
                        seed=4, chunk_size=16)
            assert check_seed_determinism(cell) == []

    def test_order_invariance_where_declared(self):
        cell = Cell(algorithm="acs22", family="power_law", n=28, seed=3,
                    chunk_size=16)
        assert check_order_invariance(
            cell, ("random", "degree_sorted", "bfs", "adversarial")
        ) == []

    def test_order_invariance_skips_order_sensitive_entries(self):
        cell = Cell(algorithm="robust", family="power_law", n=28, seed=3)
        assert check_order_invariance(cell, ("random",)) == []

    def test_subsample_stability(self):
        cell = Cell(algorithm="robust", family="power_law", n=32, seed=6,
                    chunk_size=16)
        assert check_subsample_stability(cell) == []


class TestSweep:
    def test_small_sweep_is_clean(self):
        report = verify_sweep(
            algorithms=("naive", "cgs22"),
            families=("power_law", "empty", "singleton"),
            orders=("random", "adversarial"),
            chunk_sizes=(16,),
            n=24,
        )
        assert report.ok
        assert report.cells == 2 * 3 * 2
        # token reference + one chunk size per cell
        assert report.runs == report.cells * 2
        headers, rows = report.table()
        assert headers[0] == "algorithm" and len(rows) == 6

    def test_sweep_catches_injected_violation(self):
        registry = registry_with_shrunk_palette("naive")
        report = verify_sweep(
            algorithms=("naive",), families=("power_law",),
            orders=("random",), chunk_sizes=(16,), n=24,
            registry=registry, metamorphic=False,
        )
        assert not report.ok
        assert any("colors" in v for v in report.violations)

    def test_sweep_validates_selections(self):
        with pytest.raises(ReproError, match="unknown family"):
            verify_sweep(families=("petersen",))
        with pytest.raises(ReproError, match="unknown order"):
            verify_sweep(orders=("sideways",))
        with pytest.raises(ReproError, match="unknown algorithm"):
            verify_sweep(algorithms=("quantum",))
        with pytest.raises(ReproError, match="chunk sizes"):
            verify_sweep(chunk_sizes=(0,))
