"""Unit tests for hash families: independence properties verified by exhaustion."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import SeededRng
from repro.hashing.kindependent import PolynomialHashFamily
from repro.hashing.partitions import PartitionFamily
from repro.hashing.random_oracle import RandomOracle
from repro.hashing.universal import TwoUniversalFamily


class TestTwoUniversal:
    def test_collision_probability_bound(self):
        p, s = 13, 4
        fam = TwoUniversalFamily(p, s)
        x, y = 1, 7
        collisions = sum(1 for h in fam.members() if h(x) == h(y))
        assert collisions / fam.size <= 1 / s + 1 / p  # CW79 bound with slack

    def test_range(self):
        fam = TwoUniversalFamily(11, 3)
        for h in itertools.islice(fam.members(), 20):
            for x in range(11):
                assert 0 <= h(x) < 3

    def test_sample_is_member(self):
        fam = TwoUniversalFamily(11, 3)
        h = fam.sample(SeededRng(1))
        assert 1 <= h.a < 11


class TestPolynomialFamily:
    def test_four_independence_exhaustive_small(self):
        """For k=2, p=5, full range: pairs (h(x), h(y)) uniform."""
        p = 5
        fam = PolynomialHashFamily(p, k=2, m=p)
        x, y = 0, 3
        counts = {}
        for c0 in range(p):
            for c1 in range(p):
                h = fam.function([c0, c1])
                key = (h(x), h(y))
                counts[key] = counts.get(key, 0) + 1
        assert set(counts.values()) == {1}

    def test_triple_uniformity_k3(self):
        p = 5
        fam = PolynomialHashFamily(p, k=3, m=p)
        xs = (0, 1, 4)
        counts = {}
        for coeffs in itertools.product(range(p), repeat=3):
            h = fam.function(coeffs)
            key = tuple(h(x) for x in xs)
            counts[key] = counts.get(key, 0) + 1
        assert set(counts.values()) == {1}

    def test_eval_array_matches_scalar(self):
        import numpy as np

        fam = PolynomialHashFamily(101, k=4, m=16)
        h = fam.sample(SeededRng(3))
        xs = np.arange(50, dtype=np.int64)
        arr = h.eval_array(xs)
        for x in range(50):
            assert arr[x] == h(x)

    def test_eval_array_overflow_safe_at_large_prime(self):
        # Regression: (acc * x + c) % p overflows int64 once p (and the
        # keys) pass ~2^31.5; eval_array must fall back to exact
        # Python-int arithmetic and still match the scalar path.
        import numpy as np

        from repro.common.integer_math import next_prime

        p = next_prime(2**32)
        fam = PolynomialHashFamily(p, k=4, m=1024)
        h = fam.function((p - 3, p - 5, p - 7, p - 11))
        xs = np.array([0, 1, 2**31, 2**32 - 1, p - 1], dtype=np.int64)
        arr = h.eval_array(xs)
        assert arr.dtype == np.int64
        for i, x in enumerate(xs.tolist()):
            assert arr[i] == h(x)

    def test_eval_coeffs_matches_per_member_scalar(self):
        import numpy as np

        fam = PolynomialHashFamily(101, k=4, m=16)
        coeffs = fam.coeff_array(SeededRng(5), (3, 2))
        xs = np.arange(20, dtype=np.int64)
        values = fam.eval_coeffs(coeffs, xs)
        assert values.shape == (20, 3, 2)
        for i in range(3):
            for j in range(2):
                h = fam.function(tuple(int(c) for c in coeffs[i, j]))
                for x in range(20):
                    assert values[x, i, j] == h(x)

    def test_seed_bits(self):
        fam = PolynomialHashFamily(101, k=4, m=16)
        assert fam.seed_bits() == 4 * 7  # ceil(log2 101) = 7

    def test_validation(self):
        with pytest.raises(ValueError):
            PolynomialHashFamily(100, 4, 10)
        with pytest.raises(ValueError):
            PolynomialHashFamily(101, 0, 10)
        with pytest.raises(ValueError):
            PolynomialHashFamily(101, 2, 1000)


class TestRandomOracle:
    def test_deterministic_per_name(self):
        o1 = RandomOracle(42)
        o2 = RandomOracle(42)
        f1 = o1.function("h/1", 100, 16)
        f2 = o2.function("h/1", 100, 16)
        assert [f1(x) for x in range(100)] == [f2(x) for x in range(100)]

    def test_independent_across_names(self):
        o = RandomOracle(42)
        f1 = o.function("h/1", 200, 1000)
        f2 = o.function("h/2", 200, 1000)
        assert [f1(x) for x in range(200)] != [f2(x) for x in range(200)]

    def test_range(self):
        o = RandomOracle(7)
        f = o.function("g", 500, 8)
        assert all(0 <= f(x) < 8 for x in range(500))

    def test_bits_accounting(self):
        o = RandomOracle(1)
        o.function("a", 100, 16)
        assert o.bits_served == 400  # 100 * log2(16)
        o.function("a", 100, 16)  # cached: no extra bits
        assert o.bits_served == 400

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_roughly_uniform(self, seed):
        o = RandomOracle(seed)
        f = o.function("u", 2000, 4)
        counts = [0] * 4
        for x in range(2000):
            counts[f(x)] += 1
        for c in counts:
            assert 350 < c < 650  # ~500 each; generous tolerance


class TestPartitionFamily:
    def test_partition_covers_universe(self):
        fam = PartitionFamily(universe_size=20, s=4)
        classes = fam.partition(1, 0)
        assert len(classes) == 4
        union = set().union(*classes)
        assert union == set(range(1, 21))
        total = sum(len(c) for c in classes)
        assert total == 20  # disjoint

    def test_class_of_matches_partition(self):
        fam = PartitionFamily(universe_size=15, s=3)
        classes = fam.partition(2, 5)
        for color in range(1, 16):
            assert color in classes[fam.class_of(2, 5, color)]

    def test_lemma_3_10_average_bound(self):
        """Empirical check of eq. (10) for a concrete list collection."""
        fam = PartitionFamily(universe_size=12, s=4)
        lists = [set(range(1, 9)), {2, 4, 6}, {1, 12}, set(range(3, 12))]
        rhs = sum(len(li) - 1 for li in lists) / (fam.s**0.5)
        total = 0.0
        count = 0
        for a, b in fam.members():
            classes = fam.partition(a, b)
            for li in lists:
                total += max(len(li & s_) - 1 for s_ in classes)
            count += 1
        assert total / count <= rhs + 1e-9

    def test_size_is_quadratic(self):
        fam = PartitionFamily(universe_size=10, s=2)
        assert fam.size == (fam.p - 1) * fam.p
