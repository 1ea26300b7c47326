"""Tests for the repro.engine API: registry round-trips, the uniform
run/result schema, grid execution, and the deprecation shims."""

import time
import warnings

import pytest

from repro.common.exceptions import (
    ImproperColoringError,
    PaletteExceededError,
    ReproError,
)
from repro.engine import (
    REGISTRY,
    AlgorithmEntry,
    AlgorithmRegistry,
    ColoringResult,
    DeterministicConfig,
    GameSpec,
    GridRunner,
    GridSpec,
    RunSpec,
    StreamingColorer,
    results_table,
    run,
    run_game,
    validate_result_dict,
)
from repro.streaming.machine import PassConsumer
from repro.streaming.model import MultipassStreamingAlgorithm, OnePassAlgorithm

ALL_ALGORITHMS = (
    "acs22", "cgs22", "deterministic", "list_coloring", "naive",
    "palette_sparsification", "robust", "robust_lowrandom",
)


def small_spec(algorithm, **overrides):
    base = dict(algorithm=algorithm, n=24, delta=4, seed=3, graph_seed=11)
    base.update(overrides)
    return RunSpec(**base)


class TestRegistry:
    def test_covers_core_and_baselines(self):
        assert tuple(REGISTRY.names()) == ALL_ALGORITHMS

    def test_unknown_algorithm_is_clean_error(self):
        with pytest.raises(ReproError, match="unknown algorithm"):
            REGISTRY.get("zzz")

    def test_duplicate_registration_rejected(self):
        registry = AlgorithmRegistry([REGISTRY.get("deterministic")])
        with pytest.raises(ReproError, match="already registered"):
            registry.register(REGISTRY.get("deterministic"))

    def test_describe_lists_every_entry(self):
        headers, rows = REGISTRY.describe()
        assert "name" in headers
        assert {row[0] for row in rows} == set(ALL_ALGORITHMS)

    def test_created_algorithms_satisfy_protocol(self):
        for name in REGISTRY.names():
            algo = REGISTRY.get(name).create(16, 3, seed=1)
            assert isinstance(algo, StreamingColorer), name


class TestConfigRoundTrip:
    @pytest.mark.parametrize("name", ALL_ALGORITHMS)
    def test_default_config_round_trips(self, name):
        cls = REGISTRY.get(name).config_cls
        cfg = cls()
        rebuilt = cls.from_dict(cfg.to_dict())
        assert rebuilt == cfg

    @pytest.mark.parametrize("name", ALL_ALGORITHMS)
    def test_unknown_option_rejected(self, name):
        cls = REGISTRY.get(name).config_cls
        with pytest.raises(ReproError, match="unknown option"):
            cls.from_dict({"definitely_not_a_field": 1})

    def test_field_values_validated(self):
        with pytest.raises(ReproError, match="selection"):
            DeterministicConfig(selection="psychic")
        with pytest.raises(ReproError, match="beta"):
            REGISTRY.get("robust").make_config({"beta": 2.0})


class TestRun:
    @pytest.mark.parametrize("name", ALL_ALGORITHMS)
    def test_every_algorithm_colors_a_small_graph(self, name):
        result = run(small_spec(name, keep_coloring=True))
        assert result.algorithm == name
        assert result.proper is True
        assert result.passes >= 1
        assert result.colors_used >= 1
        assert result.peak_space_bits >= 0
        # run() validated totality/properness already; spot-check totality.
        assert set(result.coloring) == set(range(24))

    @pytest.mark.parametrize("name", ALL_ALGORITHMS)
    def test_result_schema_round_trips(self, name):
        result = run(small_spec(name))
        data = result.to_dict()
        validate_result_dict(data)
        rebuilt = ColoringResult.from_dict(data)
        assert rebuilt.to_dict() == data

    def test_schema_rejects_missing_and_unknown_fields(self):
        data = run(small_spec("deterministic")).to_dict()
        with pytest.raises(ReproError, match="unknown field"):
            validate_result_dict(data | {"bogus": 1})
        del data["colors_used"]
        with pytest.raises(ReproError, match="missing field"):
            validate_result_dict(data)

    def test_deterministic_runs_reproduce(self):
        a = run(small_spec("deterministic", keep_coloring=True))
        b = run(small_spec("deterministic", keep_coloring=True))
        assert a.coloring == b.coloring
        assert a.passes == b.passes

    def test_bring_your_own_stream(self):
        from repro.graph.generators import random_max_degree_graph
        from repro.streaming.stream import stream_from_graph

        graph = random_max_degree_graph(20, 3, seed=5)
        result = run(
            RunSpec(algorithm="deterministic", n=20, delta=3),
            stream=stream_from_graph(graph),
        )
        assert result.proper and result.palette_bound == 4

    def test_stream_n_mismatch_is_clean_error(self):
        from repro.graph.generators import random_max_degree_graph
        from repro.streaming.stream import stream_from_graph

        graph = random_max_degree_graph(20, 3, seed=5)
        with pytest.raises(ReproError, match="20 vertices.*n=10"):
            run(RunSpec(algorithm="deterministic", n=10, delta=3),
                stream=stream_from_graph(graph))

    def test_validate_false_reports_measured_properness(self):
        from repro.streaming.stream import TokenStream
        from repro.streaming.tokens import EdgeToken

        entry = AlgorithmEntry(
            name="broken", summary="always monochromatic", kind="multipass",
            reference="-", config_cls=DeterministicConfig,
            factory=lambda n, d, s, c: _Monochrome(n),
        )
        registry = AlgorithmRegistry([entry])
        stream = TokenStream([EdgeToken(0, 1)], 4)
        result = run(RunSpec(algorithm="broken", n=4, delta=1,
                             validate=False),
                     stream=stream, registry=registry)
        assert result.proper is False

    @pytest.mark.parametrize(
        "plane", ["given", "tokens", "materialized", "generator", "file"]
    )
    def test_validation_catches_improper_output(self, plane):
        # A bad output fails the same way on every plane: the palette is
        # checked before properness, and the improper witness is the
        # first monochromatic edge in stream order.  Color 0 is a color
        # (outside every palette), not a missing one.  "given" hands run()
        # the token stream the tokens plane would build.
        from repro.graph.generators import random_max_degree_graph
        from repro.streaming.stream import stream_from_graph

        graph = random_max_degree_graph(12, 3, seed=1, fill=0.9)

        def failure(color, palette=2):
            entry = AlgorithmEntry(
                name="broken", summary="always monochromatic",
                kind="multipass", reference="-",
                config_cls=DeterministicConfig,
                factory=lambda n, d, s, c: _Monochrome(n, color, palette),
            )
            given = plane == "given"
            spec = RunSpec(algorithm="broken", n=12, delta=3, graph_seed=1,
                           stream_backend=None if given else plane,
                           chunk_size=4)
            with pytest.raises(ReproError) as info:
                run(spec, stream=stream_from_graph(graph) if given else None,
                    registry=AlgorithmRegistry([entry]))
            return type(info.value), str(info.value)

        u, v = graph.edge_list()[0]
        assert failure(color=1) == (
            ImproperColoringError,
            f"improper coloring: adjacent vertices {u} and {v} share color 1",
        )
        assert failure(color=3) == (
            PaletteExceededError,
            "vertex 0 received color 3 outside palette of size 2",
        )
        assert failure(color=0) == (
            PaletteExceededError,
            "vertex 0 received color 0 outside palette of size 2",
        )
        assert failure(color=0, palette=None) == (
            ImproperColoringError,
            f"improper coloring: adjacent vertices {u} and {v} share color 0",
        )

    @pytest.mark.parametrize("driver", ["run", "checkpoint_every=1", "color_stream"])
    def test_pass_time_includes_finish(self, driver, tmp_path, monkeypatch):
        # Each way through drive_pass times a pass up to and including its
        # consumer's finish(): a plain run, a run that snapshots after
        # every block (the driver's mid-pass generator; the test class is
        # allowlisted for its snapshots), and color_stream, which drives
        # the pass loop outside the engine.
        from repro.engine.runner import _build_stream
        from repro.persist import codec
        from repro.persist.driver import ResumableRun

        monkeypatch.setattr(codec, "SNAPSHOT_CLASSES", codec.SNAPSHOT_CLASSES
                            | {f"{__name__}:{_SlowFinish.__qualname__}"})

        entry = AlgorithmEntry(
            name="slow", summary="one pass, slow reduction", kind="multipass",
            reference="-", config_cls=DeterministicConfig,
            factory=lambda n, d, s, c: _SlowFinish(n),
        )
        registry = AlgorithmRegistry([entry])
        spec = RunSpec(algorithm="slow", n=8, delta=2, graph_seed=1)
        if driver == "color_stream":
            source = _build_stream(spec, entry, entry.make_config(spec.config))
            _SlowFinish(spec.n).color_stream(source)
            times = source.pass_seconds
        else:
            if driver == "run":
                result = run(spec, registry=registry)
            else:
                result = ResumableRun(spec, registry=registry).run_to_completion(
                    checkpoint_every=1, checkpoint_path=str(tmp_path / "slow.ck"))
                assert result.extras["checkpoints"] >= 2
            assert result.passes == 1
            times = result.extras["pass_wall_times"]
        assert len(times) == 1
        assert times[0] >= _SlowFinish.SLEEP_S

    def test_default_stream_is_validated_and_restorable(self):
        from repro.engine import set_default_stream
        from repro.engine.runner import DEFAULT_STREAM_BACKEND, get_default_stream

        before = get_default_stream()
        assert before[0] == DEFAULT_STREAM_BACKEND
        try:
            set_default_stream(backend="generator", chunk_size=5)
            assert get_default_stream() == ("generator", 5)
            with pytest.raises(ReproError, match="unknown stream backend"):
                set_default_stream(backend="carrier-pigeon")
            with pytest.raises(ReproError, match="chunk size"):
                set_default_stream(chunk_size=0)
            # A failed set is a no-op.
            assert get_default_stream() == ("generator", 5)
            result = run(RunSpec(algorithm="naive", n=16, delta=3))
            assert result.extras["stream_backend"] == "generator"
            assert result.extras["chunk_size"] == 5
        finally:
            set_default_stream(*before)
        assert get_default_stream() == before

class _Monochrome(OnePassAlgorithm):
    """Deliberately improper colorer for the validation test."""

    def __init__(self, n, color=1, palette=None):
        super().__init__()
        self.n = n
        self.color = color
        self.palette_size = palette

    def process_block(self, edges):
        pass

    def query(self):
        return {v: self.color for v in range(self.n)}


class _SleepyFinish(PassConsumer):
    def feed(self, item):
        pass

    def finish(self):
        time.sleep(_SlowFinish.SLEEP_S)


class _SlowFinish(MultipassStreamingAlgorithm):
    """One pass whose consumer's ``finish()`` sleeps; colors ``v`` as ``v + 1``."""

    SLEEP_S = 0.05

    def __init__(self, n):
        super().__init__()
        self.n = n

    def blocks_start(self):
        self._mach = {"phase": "pass"}

    def blocks_consumer(self):
        return _SleepyFinish() if self._mach["phase"] == "pass" else None

    def blocks_deliver(self, result, stream):
        self._mach = {"phase": "done",
                      "coloring": {v: v + 1 for v in range(self.n)}}


class TestRunGame:
    def test_robust_survives_adaptive(self):
        result = run_game(GameSpec(
            algorithm="robust", n=30, delta=4, rounds=40, seed=5,
            adversary="conflict",
        ))
        assert result.mode == "game"
        assert result.proper is True
        assert result.extras["errors"] == 0
        validate_result_dict(result.to_dict())

    def test_multipass_algorithms_rejected(self):
        with pytest.raises(ReproError, match="onepass"):
            run_game(GameSpec(algorithm="deterministic", n=16, delta=3,
                              rounds=10))

    def test_unknown_adversary_rejected(self):
        with pytest.raises(ReproError, match="adversary"):
            run_game(GameSpec(algorithm="robust", n=16, delta=3, rounds=10,
                              adversary="psychic"))


class TestGrid:
    def test_axes_expand_in_order(self):
        grid = GridSpec(
            axes={"delta": [2, 3], "_label": ["x", "y"]},
            constants={"algorithm": "deterministic", "n": 16, "graph_seed": 1},
        )
        jobs = grid.jobs()
        assert [(j["delta"], j["_label"]) for j in jobs] == [
            (2, "x"), (2, "y"), (3, "x"), (3, "y"),
        ]

    def test_underscore_axes_become_tags(self):
        grid = GridSpec(
            axes={"_label": ["a", "b"]},
            constants={"algorithm": "deterministic", "n": 16, "delta": 2,
                       "graph_seed": 1},
        )
        results = GridRunner().run(grid)
        assert [r.tag("label") for r in results] == ["a", "b"]

    def test_loose_keys_route_to_config(self):
        grid = GridSpec(
            axes={"selection": ["hash_family", "greedy_slack"]},
            constants={"algorithm": "deterministic", "n": 16, "delta": 2,
                       "graph_seed": 1},
        )
        results = GridRunner().run(grid)
        assert [r.config["selection"] for r in results] == [
            "hash_family", "greedy_slack",
        ]

    def test_unknown_spec_field_is_clean_error(self):
        grid = GridSpec(
            mode="game",
            axes={"nonsense_field_xyz": [1]},
            constants={"algorithm": "robust", "n": 16, "delta": 2, "rounds": 4},
        )
        # routed into config, which rejects it by name
        with pytest.raises(ReproError, match="unknown option"):
            GridRunner().run(grid)

    def test_derive_computes_per_job_fields(self):
        grid = GridSpec(
            axes={"delta": [2, 3]},
            constants={"algorithm": "deterministic", "n": 16},
            derive=lambda job: {"graph_seed": 100 + job["delta"]},
        )
        specs = grid.specs()
        assert [s.graph_seed for s in specs] == [102, 103]

    def test_process_pool_matches_serial(self):
        grid = GridSpec(
            axes={"delta": [2, 3, 4]},
            constants={"algorithm": "deterministic", "n": 20, "graph_seed": 1},
        )
        def strip(r):
            # Drop measured wall times (nondeterministic across processes).
            data = r.to_dict() | {"wall_time_s": 0.0}
            data["extras"] = {
                k: v
                for k, v in data["extras"].items()
                if k not in ("pass_wall_times", "edges_per_sec")
            }
            return data

        serial = [strip(r) for r in GridRunner(workers=1).run(grid)]
        pooled = [strip(r) for r in GridRunner(workers=2).run(grid)]
        assert serial == pooled

    def test_game_process_pool_matches_serial(self):
        grid = GridSpec(
            mode="game",
            axes={"algorithm": ["robust", "naive"], "adversary": ["conflict"]},
            constants={"n": 24, "delta": 4, "rounds": 30, "seed": 2},
        )

        def strip(r):
            # Drop the measured wall time (nondeterministic across processes).
            return r.to_dict() | {"wall_time_s": 0.0}

        serial = [strip(r) for r in GridRunner(workers=1).run(grid)]
        pooled = [strip(r) for r in GridRunner(workers=2).run(grid)]
        assert [r["mode"] for r in serial] == ["game", "game"]
        # The conflict seeker breaks the one-shot strawman, not robust.
        assert [r["proper"] for r in serial] == [True, False]
        assert serial == pooled

    def test_results_table_derived_columns(self):
        grid = GridSpec(
            axes={"delta": [2, 3]},
            constants={"algorithm": "deterministic", "n": 16, "graph_seed": 1},
        )
        headers, rows = results_table(GridRunner().run(grid), [
            ("delta", "delta"),
            ("colors", "colors_used"),
            ("epochs", "epochs"),  # extras key
            ("ok", lambda r: r.proper),
        ])
        assert headers == ["delta", "colors", "epochs", "ok"]
        assert all(len(row) == 4 for row in rows)
        assert [row[0] for row in rows] == [2, 3]

    def test_unknown_column_is_clean_error(self):
        result = run(small_spec("deterministic"))
        with pytest.raises(ReproError, match="no column"):
            results_table([result], [("x", "definitely_not_a_column")])


class TestDeprecationShims:
    def test_new_names_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            import repro

            assert repro.run is run
            assert repro.REGISTRY is REGISTRY

    def test_old_top_level_names_live_only_in_their_home_modules(self):
        import importlib

        import repro

        homes = {
            "repro.core": (
                "DeterministicColoring", "DeterministicListColoring",
                "RobustColoring", "LowRandomnessRobustColoring",
                "two_party_coloring_protocol",
            ),
            "repro.adversaries": (
                "ConflictSeekingAdversary", "LevelAwareAdversary",
                "RandomAdversary", "run_adversarial_game",
            ),
        }
        for module_name, names in homes.items():
            home = importlib.import_module(module_name)
            for name in names:
                assert getattr(home, name) is not None, name
                assert not hasattr(repro, name), name
                assert name not in dir(repro) and name not in repro.__all__

    def test_unknown_attribute_raises(self):
        import repro

        with pytest.raises(AttributeError):
            repro.definitely_not_an_attribute
