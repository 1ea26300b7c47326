"""Tests for ``repro.kernels``: dispatch, oracles, and the profiler.

Four layers:

- the kernel table and ``dispatch``: synthetic admissible inputs for
  every kernel, dispatched and called directly;
- per-kernel reference oracles;
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
from repro.engine import RunSpec, run
from repro.kernels import (
    NUMPY_KERNELS,
    dispatch,
    kernel_total_hits,
    measure_kernels,
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
        return [(coeffs2, xs, p, mode) for mode in ("stepwise", "float")]
    if name == "partition_class_array":
        return [(int(rng.integers(1, p)), int(rng.integers(0, p)), p, s, n)]
    if name == "sketch_event_filter":
        # Full-vertex hash tables indexed by raw endpoint ids.
        edges = _edges(rng, n, k)
        us, vs = edges[:, 0].copy(), edges[:, 1].copy()
        tables = [rng.integers(0, 3, size=(n, 6, 4)).astype(dtype)
                  for dtype in (np.uint8, np.uint16, np.int64)]
        return [(table, us, vs, first) for table in tables
                for first in (0, 1, 6)] + [
            (tables[0], us[:0], vs[:0], 0),
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
# the kernel table + dispatch
# ----------------------------------------------------------------------
def test_kernel_table_contents():
    assert set(NUMPY_KERNELS) == EXPECTED_KERNELS
    with pytest.raises(KeyError):
        dispatch("not-a-kernel")


@pytest.mark.parametrize("name", sorted(EXPECTED_KERNELS))
def test_dispatch_serves_the_numpy_impl(name):
    for args in kernel_inputs(name, seed=17):
        direct = as_arrays(NUMPY_KERNELS[name](*args))
        via_dispatch = as_arrays(dispatch(name, *args))
        for a, b in zip(direct, via_dispatch):
            np.testing.assert_array_equal(np.asarray(a), np.asarray(b))


# ----------------------------------------------------------------------
# hit counting + timing
# ----------------------------------------------------------------------
def test_hit_counts_are_per_activation_and_nest():
    """A run's ``kernel_hits`` are its own, even inside another run."""
    args = kernel_inputs("det_conflict_mask", seed=3)[0]
    spec = RunSpec(algorithm="deterministic", n=64, delta=6, graph_seed=3,
                   config={"selection": "greedy_slack"})
    alone = run(spec).extras["kernel_hits"]
    assert alone and all(count > 0 for count in alone.values())

    before = kernel_total_hits()
    dispatch("det_conflict_mask", *args)
    nested = run(spec).extras["kernel_hits"]
    after = kernel_total_hits()
    # The nested run reports only its own calls, not the one before it...
    assert nested == alone
    # ...while the process totals count both.
    expected = dict(alone)
    expected["det_conflict_mask"] = expected.get("det_conflict_mask", 0) + 1
    assert {
        name: after[name] - before.get(name, 0)
        for name in after if after[name] > before.get(name, 0)
    } == expected


def test_measure_kernels_records_calls_and_time():
    args = kernel_inputs("running_degrees", seed=5)[0]
    with measure_kernels() as timings:
        dispatch("running_degrees", *args)
        dispatch("running_degrees", *args)
    assert timings["running_degrees"][0] == 2
    assert timings["running_degrees"][1] >= 0.0
    with measure_kernels() as fresh:
        pass
    assert fresh == {}  # timing stops outside the block


# ----------------------------------------------------------------------
# Algorithm 2's running degrees
# ----------------------------------------------------------------------
def reference_running_degrees(deg0, edges):
    """The stable-argsort body the one-sort kernel replaced."""
    flat = edges.ravel()
    order = np.argsort(flat, kind="stable")
    sorted_vals = flat[order]
    # Rank within each equal-value run = prior occurrences of the vertex.
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_vals[1:] != sorted_vals[:-1]))
    )
    run_ids = np.cumsum(
        np.concatenate(([False], sorted_vals[1:] != sorted_vals[:-1]))
    )
    ranks = np.arange(len(flat), dtype=np.int64) - starts[run_ids]
    prior = np.empty(len(flat), dtype=np.int64)
    prior[order] = ranks
    return deg0[edges] + prior.reshape(-1, 2)


@pytest.mark.parametrize("k", [1, 2, 3, 4096, 4097])
def test_running_degrees_matches_the_stable_argsort_reference(k):
    """Blocks drawn from 2k vertex ids, half of them just below 10^7, so
    vertices repeat; the last edge repeats a vertex of the first."""
    rng = np.random.default_rng(k)
    top = 10**7
    ids = np.concatenate((np.arange(k), top - 1 - np.arange(k)))
    edges = rng.choice(ids, size=(k, 2))
    edges[-1, 1] = edges[0, 0]
    # np.zeros maps its pages lazily, so the untouched 80 MB cost nothing.
    deg0 = np.zeros(top, dtype=np.int64)
    deg0[ids] = rng.integers(0, 24, size=len(ids))
    expected = reference_running_degrees(deg0, edges)
    assert (expected > deg0[edges]).any()
    got = dispatch("running_degrees", deg0, edges)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, expected)


# ----------------------------------------------------------------------
# the D-sketch hash table and its event kernel
# ----------------------------------------------------------------------
SKETCH_CLASSES = [LowRandomnessRobustColoring, SketchSwitchingQuadraticColoring]


def reference_event_filter(table, us, vs, first):
    """The 3-d ``np.nonzero`` body the numpy kernel replaced, restricted
    to epoch columns ``i >= first``."""
    e, i, j = np.nonzero(table[us] == table[vs])
    live = i >= first
    return (e[live].astype(np.int64), i[live].astype(np.int64),
            j[live].astype(np.int64))


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
def test_sketch_event_filter_matches_the_nonzero_reference(dtype):
    kernel = NUMPY_KERNELS["sketch_event_filter"]
    rng = np.random.default_rng(5)
    # The second table's rows hold 2^16 entries, so the kernel gathers
    # four edges per sub-batch and the flat offsets cross sub-batches.
    for n, shape, high in ((40, (6, 4), 3), (30, (64, 1024), 200)):
        table = rng.integers(0, high, size=(n,) + shape).astype(dtype)
        edges = _edges(rng, n, 50)
        us, vs = edges[:, 0].copy(), edges[:, 1].copy()
        epochs = shape[0]
        for first in (0, 1, epochs - 1, epochs):
            expected = reference_event_filter(table, us, vs, first)
            got = kernel(table, us, vs, first)
            assert (len(expected[0]) > 0) == (first < epochs)
            for ref, out in zip(expected, got):
                assert out.dtype == np.int64
                np.testing.assert_array_equal(out, ref)


@pytest.mark.parametrize("p", [5003, 47453111])
def test_eval_coeffs_float_mode_equals_horner(p):
    """The float product equals per-step Horner up to the largest prime
    with 4 (p - 1)^2 < 2^53, keys past p and coefficients p - 1 included."""
    kernel = NUMPY_KERNELS["eval_coeffs"]
    rng = np.random.default_rng(p)
    coeffs2 = rng.integers(0, p, size=(64, 4), dtype=np.int64)
    coeffs2[0] = p - 1
    xs = np.concatenate((
        rng.integers(0, 4 * p, size=2000, dtype=np.int64),
        [0, 1, p - 1, p, p + 1, 2 * p - 1],
    ))
    np.testing.assert_array_equal(kernel(coeffs2, xs, p, "float"),
                                  kernel(coeffs2, xs, p, "stepwise"))


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

    payload = profile_sweep(["naive", "robust_lowrandom"], seed=11, top=3)
    assert payload["host_cpus"] >= 1
    assert [c["algorithm"] for c in payload["cases"]] == [
        "naive", "robust_lowrandom",
    ]
    for case in payload["cases"]:
        assert case["edges"] > 0
    assert set(payload["kernels"]) == EXPECTED_KERNELS
    assert sum(rec["calls"] for rec in payload["kernels"].values()) > 0
    assert len(payload["top_functions"]) <= 3
    text = format_profile(payload)
    assert "per-kernel time" in text and "per-case sweep" in text


def test_profile_case_hits_add_up_to_the_kernel_calls():
    from repro.kernels.profile import profile_sweep

    payload = profile_sweep(["robust", "robust_lowrandom", "deterministic"],
                            seed=11, top=0)
    summed: dict = {}
    for case in payload["cases"]:
        assert case["kernel_hits"], case["algorithm"]
        for name, count in case["kernel_hits"].items():
            summed[name] = summed.get(name, 0) + count
    calls = {
        name: rec["calls"]
        for name, rec in payload["kernels"].items() if rec["calls"]
    }
    assert summed == calls


def test_profile_sweep_rejects_unknown_algorithm():
    from repro.kernels.profile import profile_sweep

    with pytest.raises(ReproError, match="no profile case"):
        profile_sweep(["not-an-algo"])


def test_cli_profile_smoke(tmp_path, capsys):
    out = tmp_path / "profile.json"
    code = main(["profile", "--algorithms", "naive", "--top", "2",
                 "--json", str(out)])
    assert code == 0
    assert "per-kernel time" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["cases"][0]["algorithm"] == "naive"
