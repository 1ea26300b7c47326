"""Property-based tests for the hashing layer's batched evaluators.

The block data plane rests on ``eval_array``/``eval_coeffs`` matching the
scalar ``__call__`` path bit for bit — including past int64, where the
implementations switch to exact Python-int fallbacks.  These properties
fuzz that equivalence over random primes (small, near 2^31, and > 2^32),
coefficients, and key arrays, plus the Lemma 3.10 partition family's
``class_array``/``class_table`` consistency.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from repro.hashing.kindependent import PolynomialHashFamily  # noqa: E402
from repro.hashing.partitions import PartitionFamily  # noqa: E402
from repro.hashing.universal import TwoUniversalFamily  # noqa: E402

# Primes spanning the arithmetic regimes: tiny, medium, both sides of
# eval_coeffs' exact-float bound for k = 4 (47453111 is the largest prime
# with 4 (p - 1)^2 < 2^53, 47453149 the next prime), the largest
# int64-safe Mersenne, just past 2^31, past 2^32 (object fallback), and
# 2^61 - 1 (deep object fallback).
PRIMES = [3, 7, 61, 8191, 104729, 47453111, 47453149, 2**31 - 1,
          2147483659, 4294967311, 2**61 - 1]

keys = st.lists(st.integers(min_value=0, max_value=2**40),
                min_size=1, max_size=24)


@given(p=st.sampled_from(PRIMES), k=st.integers(1, 5),
       data=st.data(), xs=keys)
def test_polynomial_eval_array_matches_scalar(p, k, data, xs):
    m = data.draw(st.integers(1, min(p, 10**6)))
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=k,
                                max_size=k))
    f = PolynomialHashFamily(p, k, m).function(coeffs)
    arr = f.eval_array(np.asarray(xs, dtype=np.int64))
    assert arr.dtype == np.int64
    assert arr.tolist() == [f(x) for x in xs]


@given(p=st.sampled_from(PRIMES), k=st.integers(1, 4), data=st.data(),
       xs=keys)
def test_eval_coeffs_matches_per_member_eval(p, k, data, xs):
    m = data.draw(st.integers(1, min(p, 10**6)))
    family = PolynomialHashFamily(p, k, m)
    members = data.draw(st.integers(1, 4))
    coeffs = np.array(
        [data.draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k))
         for _ in range(members)],
        dtype=object if p > 2**32 else np.int64,
    )
    xs_arr = np.asarray(xs, dtype=np.int64)
    batched = family.eval_coeffs(coeffs, xs_arr)
    assert batched.shape == (len(xs), members)
    for j in range(members):
        scalar = family.function(coeffs[j].tolist())
        assert batched[:, j].tolist() == [scalar(x) for x in xs]


@given(p=st.sampled_from(PRIMES), data=st.data(), xs=keys)
def test_affine_and_mod_eval_array_match_scalar(p, data, xs):
    a = data.draw(st.integers(1, p - 1))
    b = data.draw(st.integers(0, p - 1))
    s = data.draw(st.integers(1, 64))
    xs_arr = np.asarray(xs, dtype=np.int64)
    mod = TwoUniversalFamily(p, s).function(a, b)
    mod_vals = np.asarray(mod.eval_array(xs_arr)).tolist()
    assert mod_vals == [mod(x) for x in xs]


@given(universe=st.integers(1, 40), s=st.integers(1, 10), data=st.data())
def test_partition_class_array_matches_class_table(universe, s, data):
    family = PartitionFamily(universe, s)
    p = family.p
    a = data.draw(st.integers(1, p - 1))
    b = data.draw(st.integers(0, p - 1))
    arr = family.class_array(a, b)
    table = family.class_table()
    row = (a - 1) * p + b  # members() order: a-major, b-minor
    assert arr.tolist() == table[row].tolist()
    assert arr[0] == 0
    for color in range(1, universe + 1):
        assert arr[color] == family.class_of(a, b, color)
        assert 0 <= arr[color] < s


@given(universe=st.integers(1, 20), s=st.integers(1, 6))
def test_partition_table_row_count_matches_members(universe, s):
    family = PartitionFamily(universe, s)
    assert family.class_table().shape == (family.size, universe + 1)
    assert family.size == sum(1 for _ in family.members())
