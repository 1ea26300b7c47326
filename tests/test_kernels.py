"""Tests for ``repro.kernels``: dispatch, tiers, oracles, and the profiler.

Four layers:

- the registry and tier resolution (``auto`` / ``numpy`` / ``compiled``,
  process default, the exit-2 error when numba is absent);
- per-kernel differential oracles: synthetic admissible inputs for every
  registered kernel, numpy tier vs compiled twin bit-for-bit (skipped
  without numba — CI's ``kernels`` job is where this leg runs);
- hit counting and the ``measure_kernels`` timing hook;
- the D-sketch hash table and the ``repro profile`` harness.
"""

import json

import numpy as np
import pytest

from repro.adversaries import RandomAdversary, run_adversarial_game
from repro.baselines.cgs22 import SketchSwitchingQuadraticColoring
from repro.cli import main
from repro.common.exceptions import ReproError
from repro.core.robust_lowrandom import LowRandomnessRobustColoring
from repro.kernels import (
    KERNEL_TIERS,
    KERNELS,
    KernelRegistry,
    active_kernel_tier,
    compiled_available,
    dispatch,
    get_default_kernel_tier,
    kernel_run_hits,
    measure_kernels,
    resolve_kernel_tier,
    set_default_kernel_tier,
    use_kernel_tier,
)
from repro.streaming import blocks
from repro.streaming.blocks import cached_hash_rows

EXPECTED_KERNELS = {
    "mod_horner",
    "eval_coeffs",
    "partition_class_array",
    "sketch_event_filter",
    "running_degrees",
    "group_pairs",
    "det_slack_keys",
    "det_conflict_mask",
    "chain_conflict_mask",
    "contains_pairs",
    "partition_scores",
}


# ----------------------------------------------------------------------
# synthetic admissible inputs, one factory per kernel
# ----------------------------------------------------------------------
def _edges(rng, n, k):
    """(k, 2) int64 edges with distinct endpoints (a graph invariant the
    running-degrees rank trick relies on)."""
    u = rng.integers(0, n, size=k, dtype=np.int64)
    shift = rng.integers(1, n, size=k, dtype=np.int64)
    return np.stack([u, (u + shift) % n], axis=1)


def kernel_inputs(name, seed):
    """Admissible random inputs for kernel ``name`` (int64-domain-safe)."""
    rng = np.random.default_rng(seed)
    n, k, p, s = 40, 120, 10007, 8
    if name == "mod_horner":
        coeffs = rng.integers(0, p, size=4, dtype=np.int64)
        xs = rng.integers(0, 500, size=k, dtype=np.int64)
        return [(coeffs, xs, p, False), (coeffs, xs, p, True)]
    if name == "eval_coeffs":
        coeffs2 = rng.integers(0, p, size=(5, 4), dtype=np.int64)
        xs = rng.integers(0, 500, size=k, dtype=np.int64)
        return [(coeffs2, xs, p, False), (coeffs2, xs, p, True)]
    if name == "partition_class_array":
        return [(int(rng.integers(1, p)), int(rng.integers(0, p)), p, s, n)]
    if name == "sketch_event_filter":
        # Full-vertex hash tables indexed by raw endpoint ids.
        edges = _edges(rng, n, k)
        us, vs = edges[:, 0].copy(), edges[:, 1].copy()
        tables = [rng.integers(0, 3, size=(n, 6, 4)).astype(dtype)
                  for dtype in (np.uint8, np.uint16, np.int64)]
        return [(table, us, vs) for table in tables] + [
            (tables[0], us[:0], vs[:0]),
        ]
    if name == "running_degrees":
        deg0 = rng.integers(0, 9, size=n, dtype=np.int64)
        return [(deg0, _edges(rng, n, k))]
    if name == "group_pairs":
        return [(_edges(rng, n, k),)]
    if name == "det_slack_keys":
        x = rng.integers(0, n, size=k, dtype=np.int64)
        y = rng.integers(0, n, size=k, dtype=np.int64)
        chi_arr = rng.integers(0, 17, size=n, dtype=np.int64)
        unc = rng.random(n) < 0.5
        cube_value = rng.integers(0, 4, size=n, dtype=np.int64)
        return [(x, y, chi_arr, unc, cube_value, 3, 2, s)]
    if name == "det_conflict_mask":
        x = rng.integers(0, n, size=k, dtype=np.int64)
        y = rng.integers(0, n, size=k, dtype=np.int64)
        unc = rng.random(n) < 0.5
        cube_value = rng.integers(0, 4, size=n, dtype=np.int64)
        return [(x, y, unc, cube_value)]
    if name == "chain_conflict_mask":
        x = rng.integers(0, n, size=k, dtype=np.int64)
        y = rng.integers(0, n, size=k, dtype=np.int64)
        member_mask = rng.random(n) < 0.6
        chain_matrix = rng.integers(-1, 3, size=(3, n), dtype=np.int64)
        return [(x, y, member_mask, chain_matrix),
                (x, y, member_mask, chain_matrix[:0])]
    if name == "contains_pairs":
        universe = 24
        part_stack = rng.integers(0, s, size=(3, universe + 1), dtype=np.int64)
        chain_matrix = rng.integers(-1, s, size=(3, n), dtype=np.int64)
        xs = rng.integers(0, n, size=k, dtype=np.int64)
        colors = rng.integers(1, universe + 1, size=k, dtype=np.int64)
        return [(part_stack, chain_matrix, xs, colors)]
    if name == "partition_scores":
        universe, members, groups = 24, 10, 4
        sub_table = rng.integers(0, s, size=(members, universe + 1),
                                 dtype=np.int64)
        survivors = np.unique(
            rng.integers(1, universe + 1, size=12, dtype=np.int64)
        )
        group_ids = np.sort(
            rng.integers(0, groups, size=members, dtype=np.int64)
        )
        return [(sub_table, survivors, group_ids, groups, s)]
    raise AssertionError(f"no input factory for kernel {name!r}")


def as_arrays(out):
    return out if isinstance(out, tuple) else (out,)


# ----------------------------------------------------------------------
# registry + tier resolution
# ----------------------------------------------------------------------
def test_registry_contents_and_capability_flags():
    assert set(KERNELS.names()) == EXPECTED_KERNELS
    assert len(KERNELS) == len(EXPECTED_KERNELS)
    for kernel in KERNELS:
        assert kernel.numpy_impl is not None
        assert kernel.supports_compiled == (
            compiled_available()
        ), kernel.name  # all twins load together or not at all
    headers, rows = KERNELS.describe()
    assert headers == ["kernel", "numpy", "compiled"]
    assert [r[0] for r in rows] == KERNELS.names()


def test_registry_rejects_duplicates_and_unknown_names():
    registry = KernelRegistry()
    registry.register("k", lambda: None)
    with pytest.raises(ReproError, match="already registered"):
        registry.register("k", lambda: None)
    with pytest.raises(ReproError, match="unknown kernel"):
        registry.get("nope")
    with pytest.raises(KeyError):
        dispatch("not-a-kernel")


def test_resolve_kernel_tier():
    assert KERNEL_TIERS == ("auto", "numpy", "compiled")
    assert resolve_kernel_tier("numpy") == "numpy"
    expected_auto = "compiled" if compiled_available() else "numpy"
    assert resolve_kernel_tier("auto") == expected_auto
    assert resolve_kernel_tier(None) == resolve_kernel_tier(
        get_default_kernel_tier()
    )
    with pytest.raises(ReproError, match="unknown kernel_tier"):
        resolve_kernel_tier("fortran")
    if not compiled_available():
        with pytest.raises(ReproError, match="numba"):
            resolve_kernel_tier("compiled")
    else:
        assert resolve_kernel_tier("compiled") == "compiled"


def test_default_tier_is_validated_and_restorable():
    before = get_default_kernel_tier()
    try:
        set_default_kernel_tier("numpy")
        assert get_default_kernel_tier() == "numpy"
        assert active_kernel_tier() == "numpy"
        with pytest.raises(ReproError):
            set_default_kernel_tier("fortran")
        assert get_default_kernel_tier() == "numpy"  # failed set is a no-op
        if not compiled_available():
            with pytest.raises(ReproError, match="numba"):
                set_default_kernel_tier("compiled")
    finally:
        set_default_kernel_tier(before)


# ----------------------------------------------------------------------
# per-kernel differential oracle: numpy reference vs compiled twin
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(EXPECTED_KERNELS))
def test_numpy_tier_serves_the_reference_impl(name):
    kernel = KERNELS.get(name)
    for seed, args in enumerate(kernel_inputs(name, seed=17)):
        direct = as_arrays(kernel.numpy_impl(*args))
        with use_kernel_tier("numpy"):
            via_dispatch = as_arrays(dispatch(name, *args))
        for a, b in zip(direct, via_dispatch):
            np.testing.assert_array_equal(np.asarray(a), np.asarray(b))


@pytest.mark.skipif(not compiled_available(),
                    reason="numba not installed (pip install -e .[compiled])")
@pytest.mark.parametrize("name", sorted(EXPECTED_KERNELS))
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_compiled_twin_is_bit_identical(name, seed):
    kernel = KERNELS.get(name)
    assert kernel.supports_compiled
    for args in kernel_inputs(name, seed=seed):
        reference = as_arrays(kernel.numpy_impl(*args))
        compiled = as_arrays(kernel.compiled_impl(*args))
        assert len(reference) == len(compiled)
        for ref, got in zip(reference, compiled):
            ref, got = np.asarray(ref), np.asarray(got)
            assert ref.shape == got.shape, name
            assert ref.dtype == got.dtype, name
            np.testing.assert_array_equal(ref, got)


# ----------------------------------------------------------------------
# hit counting + timing
# ----------------------------------------------------------------------
def test_hit_counts_are_per_activation_and_nest():
    args = kernel_inputs("det_conflict_mask", seed=3)[0]
    assert kernel_run_hits() == {}  # no active frame at top level
    with use_kernel_tier("numpy") as resolved:
        assert resolved == "numpy"
        assert active_kernel_tier() == "numpy"
        dispatch("det_conflict_mask", *args)
        assert kernel_run_hits() == {"det_conflict_mask": 1}
        with use_kernel_tier("numpy"):
            assert kernel_run_hits() == {}  # inner frame: fresh baseline
            dispatch("det_conflict_mask", *args)
            dispatch("det_conflict_mask", *args)
            assert kernel_run_hits() == {"det_conflict_mask": 2}
        # outer frame sees its own call plus the nested run's
        assert kernel_run_hits() == {"det_conflict_mask": 3}
    assert kernel_run_hits() == {}


def test_measure_kernels_records_calls_and_time():
    args = kernel_inputs("running_degrees", seed=5)[0]
    with measure_kernels() as timings:
        with use_kernel_tier("numpy"):
            dispatch("running_degrees", *args)
            dispatch("running_degrees", *args)
    assert timings["running_degrees"][0] == 2
    assert timings["running_degrees"][1] >= 0.0
    with measure_kernels() as fresh:
        pass
    assert fresh == {}  # timing stops outside the block


# ----------------------------------------------------------------------
# the D-sketch hash table and its event kernel
# ----------------------------------------------------------------------
SKETCH_CLASSES = [LowRandomnessRobustColoring, SketchSwitchingQuadraticColoring]


def reference_event_filter(table, us, vs):
    """The 3-d ``np.nonzero`` body the numpy kernel replaced."""
    e, i, j = np.nonzero(table[us] == table[vs])
    return e.astype(np.int64), i.astype(np.int64), j.astype(np.int64)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
def test_sketch_event_filter_matches_the_nonzero_reference(dtype):
    kernel = KERNELS.get("sketch_event_filter").numpy_impl
    rng = np.random.default_rng(5)
    # The second table's rows hold 2^16 entries, so the kernel gathers
    # four edges per sub-batch and the flat offsets cross sub-batches.
    for n, shape, high in ((40, (6, 4), 3), (30, (64, 1024), 200)):
        table = rng.integers(0, high, size=(n,) + shape).astype(dtype)
        edges = _edges(rng, n, 50)
        us, vs = edges[:, 0].copy(), edges[:, 1].copy()
        expected = reference_event_filter(table, us, vs)
        got = kernel(table, us, vs)
        assert len(expected[0]) > 0
        for ref, out in zip(expected, got):
            assert out.dtype == np.int64
            np.testing.assert_array_equal(out, ref)


@pytest.mark.parametrize("cls", SKETCH_CLASSES)
@pytest.mark.parametrize("delta", [24, 100])
def test_hash_table_takes_the_narrowest_dtype(cls, delta):
    algo = cls(50, delta, seed=1)
    table = cached_hash_rows(algo, np.array([0, 7], dtype=np.int64))
    assert table.shape == (50,) + algo._coeffs.shape[:-1]
    assert table.dtype == np.min_scalar_type(algo.family.m - 1)
    if cls is LowRandomnessRobustColoring:
        # m = l^2: 256 at Delta = 24, 4096 at Delta = 100.
        assert table.dtype == (np.uint8 if delta == 24 else np.uint16)


def test_cached_hash_rows_computes_each_missing_row_once(monkeypatch):
    algo = LowRandomnessRobustColoring(40, 8, seed=3)
    computed = []
    evaluate = algo.family.eval_coeffs

    def spy(coeffs, xs):
        computed.append(xs.tolist())
        return evaluate(coeffs, xs)

    monkeypatch.setattr(algo.family, "eval_coeffs", spy)
    # Two rows per eval_coeffs call.
    monkeypatch.setattr(blocks, "HASH_FILL_VALUES",
                        2 * algo._coeffs[..., 0].size)
    cached_hash_rows(algo, np.array([3, 7, 9], dtype=np.int64))
    assert computed == [[3, 7], [9]]
    cached_hash_rows(algo, np.array([1, 7, 9, 12], dtype=np.int64))
    assert computed == [[3, 7], [9], [1, 12]]
    cached_hash_rows(algo, np.array([3, 12], dtype=np.int64))
    assert len(computed) == 3
    np.testing.assert_array_equal(np.flatnonzero(algo._hash_filled),
                                  [1, 3, 7, 9, 12])


@pytest.mark.parametrize("cls", SKETCH_CLASSES)
def test_hash_table_rows_equal_the_polynomial_members(cls):
    algo = cls(30, 6, seed=4)
    keys = np.array([0, 5, 29], dtype=np.int64)
    table = cached_hash_rows(algo, keys)
    epochs, reps = algo._coeffs.shape[:-1]
    for x in keys.tolist():
        expected = [
            [algo.family.function(algo._coeffs[i, j])(x) for j in range(reps)]
            for i in range(epochs)
        ]
        np.testing.assert_array_equal(table[x], expected)
        np.testing.assert_array_equal(algo._hash_all(x), expected)


@pytest.mark.parametrize("cls", SKETCH_CLASSES)
def test_hash_table_holds_at_most_n_rows(cls):
    n, delta = 24, 5
    algo = cls(n, delta, seed=6)
    run_adversarial_game(algo, RandomAdversary(seed=6), n=n, delta=delta,
                         rounds=3 * n, query_every=4)
    assert algo._hash_table.shape[0] == n
    assert algo._hash_filled.sum() <= n
    # A derived cache: snapshots carry the seeds, not the table.
    state = algo.state_dict()["state"]
    assert "_hash_table" not in state and "_hash_filled" not in state


# ----------------------------------------------------------------------
# the profiling harness + CLI
# ----------------------------------------------------------------------
def test_profile_sweep_payload_shape():
    from repro.kernels.profile import format_profile, profile_sweep

    payload = profile_sweep(["naive", "robust_lowrandom"], kernel_tier="numpy",
                            seed=11, top=3)
    assert payload["kernel_tier"] == "numpy"
    assert payload["compiled_available"] == compiled_available()
    assert payload["host_cpus"] >= 1
    assert [c["algorithm"] for c in payload["cases"]] == [
        "naive", "robust_lowrandom",
    ]
    for case in payload["cases"]:
        assert case["kernel_tier"] == "numpy"
        assert case["edges"] > 0
    assert set(payload["kernels"]) == EXPECTED_KERNELS
    assert sum(rec["calls"] for rec in payload["kernels"].values()) > 0
    assert len(payload["top_functions"]) <= 3
    text = format_profile(payload)
    assert "per-kernel time" in text and "per-case sweep" in text


def test_profile_sweep_rejects_unknown_algorithm():
    from repro.kernels.profile import profile_sweep

    with pytest.raises(ReproError, match="no profile case"):
        profile_sweep(["not-an-algo"])


def test_cli_profile_smoke(tmp_path, capsys):
    out = tmp_path / "profile.json"
    code = main(["profile", "--algorithms", "naive", "--kernel-tier",
                 "numpy", "--top", "2", "--json", str(out)])
    assert code == 0
    assert "per-kernel time" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["kernel_tier"] == "numpy"
    assert payload["cases"][0]["algorithm"] == "naive"


def test_cli_profile_compiled_without_numba_exits_2(capsys):
    if compiled_available():
        pytest.skip("numba present; the unavailable path cannot trigger")
    code = main(["profile", "--algorithms", "naive", "--kernel-tier",
                 "compiled"])
    assert code == 2
    assert "numba" in capsys.readouterr().err
