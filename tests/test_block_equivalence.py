"""Token-plane vs block-plane equivalence across every registered algorithm.

The block data plane is only admissible if it changes *nothing* observable
about a run: same coloring, same pass count, same peak space charge, same
palette usage.  Multipass algorithms read the token plane as one-edge
blocks and one-pass algorithms feed it to ``process``, so the comparison
pins chunking invariance and scalar/vectorized agreement.  This suite
drives a seeded grid through ``repro.engine`` once per stream backend and
compares the results field by field.
"""

import pytest

from repro.common.exceptions import ReproError
from repro.engine import REGISTRY, GameSpec, RunSpec, run, run_game
from repro.kernels import kernel_total_hits
from repro.streaming.model import OnePassAlgorithm

# (n, delta) kept modest per algorithm so the whole matrix stays fast; the
# deterministic algorithm additionally covers both selection modes and a
# couple of seeds.
CASES = [
    ("deterministic", 64, 6, {"selection": "greedy_slack"}),
    ("deterministic", 64, 6, {"selection": "hash_family", "prime_policy": "scaled"}),
    ("list_coloring", 40, 5, {"prime_policy": "scaled"}),
    ("robust", 48, 6, {}),
    ("robust_lowrandom", 32, 4, {}),
    ("naive", 48, 6, {}),
    ("acs22", 48, 6, {}),
    ("cgs22", 32, 4, {}),
    ("palette_sparsification", 60, 8, {}),
]

SEEDS = (3, 11)


def fingerprint(result):
    """Everything observable about a run except measured wall times."""
    return (
        result.coloring,
        result.passes,
        result.peak_space_bits,
        result.random_bits,
        result.colors_used,
        result.palette_bound,
        result.proper,
    )


def hits_between(before, after):
    """Per-kernel dispatch counts added between two ``kernel_total_hits``."""
    return {
        name: count - before.get(name, 0)
        for name, count in after.items()
        if count > before.get(name, 0)
    }


def run_backend(algorithm, n, delta, config, seed, backend, chunk_size=64):
    return run(RunSpec(
        algorithm=algorithm, n=n, delta=delta, seed=seed, graph_seed=seed,
        config=config, stream_backend=backend, chunk_size=chunk_size,
        keep_coloring=True,
        # The naive strawman may legitimately output improper colorings
        # (it drops edges at capacity); measure properness instead of
        # raising so both paths can be compared on equal terms.
        validate=algorithm != "naive",
    ))


class TestTokenBlockEquivalence:
    @pytest.mark.parametrize(
        "algorithm,n,delta,config", CASES,
        ids=[f"{c[0]}-{i}" for i, c in enumerate(CASES)],
    )
    def test_materialized_matches_tokens(self, algorithm, n, delta, config):
        for seed in SEEDS:
            token = run_backend(algorithm, n, delta, config, seed, "tokens")
            block = run_backend(algorithm, n, delta, config, seed, "materialized")
            assert fingerprint(token) == fingerprint(block)

    def test_all_registered_algorithms_are_covered(self):
        assert {c[0] for c in CASES} == set(REGISTRY.names())

    def test_every_registered_algorithm_is_block_native(self):
        # Not just output-equivalent: multipass algorithms consume blocks
        # on the pass machine (supports_blocks); onepass algorithms must
        # additionally override the default scalar process_block loop.
        for entry in REGISTRY:
            algo = entry.create(n=16, delta=3, seed=0)
            assert getattr(algo, "supports_blocks", False), entry.name
            if entry.kind == "onepass":
                assert (
                    type(algo).process_block is not OnePassAlgorithm.process_block
                ), f"{entry.name} uses the default scalar process_block"

    def test_block_runs_report_block_native(self):
        r = run_backend(
            "deterministic", 64, 6, {"selection": "greedy_slack"}, 3,
            "materialized",
        )
        assert r.extras["block_native"] is True

    def test_block_runs_record_kernel_hits(self):
        r = run_backend(
            "deterministic", 64, 6, {"selection": "greedy_slack"}, 3,
            "materialized",
        )
        hits = r.extras["kernel_hits"]
        assert hits and all(v > 0 for v in hits.values())

    def test_generator_and_file_backends_match(self):
        # Edge-only backends, deterministic block consumer, both selections.
        for config in ({"selection": "greedy_slack"},
                       {"selection": "hash_family", "prime_policy": "scaled"}):
            token = run_backend("deterministic", 64, 6, config, 5, "tokens")
            for backend in ("generator", "file"):
                other = run_backend("deterministic", 64, 6, config, 5, backend)
                assert fingerprint(token) == fingerprint(other), backend

    def test_chunk_size_does_not_matter(self):
        base = run_backend(
            "deterministic", 64, 6, {"selection": "greedy_slack"}, 7,
            "materialized", chunk_size=1,
        )
        for chunk_size in (3, 17, 10_000):
            other = run_backend(
                "deterministic", 64, 6, {"selection": "greedy_slack"}, 7,
                "materialized", chunk_size=chunk_size,
            )
            assert fingerprint(base) == fingerprint(other)

    @pytest.mark.parametrize("algorithm,n,delta,config", [
        ("robust", 48, 6, {}),
        ("robust_lowrandom", 64, 9, {}),
        ("list_coloring", 40, 5, {"prime_policy": "scaled"}),
    ])
    def test_chunk_size_does_not_matter_randomized(
        self, algorithm, n, delta, config
    ):
        # Chunk boundaries cross buffer rolls and sketch events; the
        # randomized algorithms must be invariant to where they fall.
        base = run_backend(algorithm, n, delta, config, 7, "tokens")
        for chunk_size in (1, 3, 17, 10_000):
            other = run_backend(
                algorithm, n, delta, config, 7, "materialized",
                chunk_size=chunk_size,
            )
            assert fingerprint(base) == fingerprint(other), chunk_size

    def test_stream_orders_match_across_backends(self):
        # hash_family is the order-sensitive mode: the selector accumulates
        # float potentials per conflict edge, so every chunk size must hand
        # edges over in first-seen stream order.
        for config in ({"selection": "greedy_slack"},
                       {"selection": "hash_family", "prime_policy": "scaled"}):
            for order in ("insertion", "reverse", "random"):
                results = []
                for backend in ("tokens", "materialized", "generator", "file"):
                    r = run(RunSpec(
                        algorithm="deterministic", n=48, delta=5, seed=2,
                        graph_seed=2, stream_order=order, stream_seed=13,
                        config=config, stream_backend=backend,
                        keep_coloring=True,
                    ))
                    results.append(fingerprint(r))
                assert all(r == results[0] for r in results), (config, order)

    def test_default_backend_is_materialized(self):
        r = run(RunSpec(algorithm="deterministic", n=32, delta=4,
                        graph_seed=1))
        assert r.extras["stream_backend"] == "materialized"

    def test_throughput_extras_recorded(self):
        r = run_backend(
            "deterministic", 64, 6, {"selection": "greedy_slack"}, 3,
            "materialized",
        )
        assert r.extras["stream_backend"] == "materialized"
        assert r.extras["chunk_size"] == 64
        assert len(r.extras["pass_wall_times"]) == r.passes
        assert r.extras["edges_per_sec"] > 0

    def test_near_regular_family_matches_across_backends(self):
        results = []
        for backend in ("tokens", "materialized", "generator", "file"):
            r = run(RunSpec(
                algorithm="deterministic", n=60, delta=6, seed=4, graph_seed=4,
                graph_family="near_regular",
                config={"selection": "greedy_slack"},
                stream_backend=backend, keep_coloring=True,
            ))
            assert r.proper
            results.append(fingerprint(r))
        assert all(r == results[0] for r in results)

    def test_unknown_graph_family_rejected(self):
        with pytest.raises(ReproError):
            run(RunSpec(algorithm="naive", n=10, delta=2,
                        graph_family="scale-free"))

    def test_needs_lists_rejects_edge_only_backends(self):
        for backend in ("generator", "file"):
            with pytest.raises(ReproError):
                run(RunSpec(
                    algorithm="list_coloring", n=20, delta=3,
                    stream_backend=backend,
                ))

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError):
            run(RunSpec(algorithm="naive", n=10, delta=2,
                        stream_backend="carrier-pigeon"))


class TestDefaultDataPlane:
    """A spec that names no backend runs on the default block plane.

    The default chunk size holds these whole streams in one block, a
    partition the explicit 64-edge runs above never produce; the result
    must still equal the token plane, and the run must report exactly the
    kernel dispatches it made.
    """

    @pytest.mark.parametrize(
        "algorithm,n,delta,config", CASES,
        ids=[f"{c[0]}-{i}" for i, c in enumerate(CASES)],
    )
    def test_default_plane_matches_tokens_and_owns_its_hits(
        self, algorithm, n, delta, config
    ):
        seed = SEEDS[0]
        before = kernel_total_hits()
        result = run(RunSpec(
            algorithm=algorithm, n=n, delta=delta, seed=seed,
            graph_seed=seed, config=config, keep_coloring=True,
            validate=algorithm != "naive",
        ))
        after = kernel_total_hits()
        assert result.extras["stream_backend"] == "materialized"
        assert result.extras["block_native"] is True
        assert result.extras.get("kernel_hits", {}) == hits_between(
            before, after
        )
        token = run_backend(algorithm, n, delta, config, seed, "tokens")
        assert fingerprint(result) == fingerprint(token)


class TestAdversarialGameBatching:
    """Batched ``process_block`` games must match the per-edge path exactly."""

    def game_fingerprint(self, result):
        extras = dict(result.extras)
        extras.pop("batch_size")
        # Kernel-dispatch observability: the scalar (batch_size=1) path
        # never reaches the block kernels, so hit counts legitimately
        # differ while every algorithmic field stays identical.
        extras.pop("kernel_hits", None)
        return (
            result.colors_used,
            result.proper,
            result.peak_space_bits,
            result.random_bits,
            extras,
        )

    @pytest.mark.parametrize("algorithm,n,delta", [
        ("robust", 48, 6),
        ("robust_lowrandom", 48, 6),
        ("cgs22", 32, 4),
        ("naive", 48, 6),
    ])
    def test_batched_matches_scalar_under_fixed_seed(self, algorithm, n, delta):
        for adversary in ("conflict", "random"):
            outcomes = []
            for batch_size in (1, None, 3):
                result = run_game(GameSpec(
                    algorithm=algorithm, n=n, delta=delta, rounds=2 * n,
                    seed=5, adversary=adversary, query_every=8,
                    batch_size=batch_size,
                ))
                outcomes.append(self.game_fingerprint(result))
            assert outcomes[0] == outcomes[1] == outcomes[2], (
                algorithm, adversary
            )

    def test_batched_game_reports_its_own_kernel_hits(self):
        before = kernel_total_hits()
        result = run_game(GameSpec(
            algorithm="robust_lowrandom", n=48, delta=6, rounds=96, seed=5,
            adversary="conflict", query_every=8, batch_size=None,
        ))
        after = kernel_total_hits()
        hits = result.extras["kernel_hits"]
        assert hits and all(count > 0 for count in hits.values())
        assert hits == hits_between(before, after)

    def test_bad_batch_size_rejected(self):
        from repro.common.exceptions import AdversaryError

        with pytest.raises(AdversaryError):
            run_game(GameSpec(algorithm="robust", n=8, delta=2, rounds=4,
                              batch_size=0))
