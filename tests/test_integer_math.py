"""Unit tests for repro.common.integer_math."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.integer_math import (
    ceil_div,
    ceil_log2,
    ceil_sqrt,
    floor_log2,
    is_prime,
    next_prime,
    prime_in_range,
    primitive_root,
)


class TestCeilDiv:
    def test_exact(self):
        assert ceil_div(10, 5) == 2

    def test_round_up(self):
        assert ceil_div(11, 5) == 3

    def test_one(self):
        assert ceil_div(1, 7) == 1

    def test_zero_numerator(self):
        assert ceil_div(0, 3) == 0

    def test_negative_denominator_rejected(self):
        with pytest.raises(ValueError):
            ceil_div(4, 0)

    @given(st.integers(0, 10**9), st.integers(1, 10**6))
    def test_matches_math(self, a, b):
        assert ceil_div(a, b) == math.ceil(a / b) or ceil_div(a, b) == -(-a // b)


class TestLogs:
    def test_floor_log2_powers(self):
        for k in range(20):
            assert floor_log2(2**k) == k

    def test_ceil_log2_powers(self):
        for k in range(20):
            assert ceil_log2(2**k) == k

    def test_ceil_log2_between(self):
        assert ceil_log2(5) == 3
        assert ceil_log2(9) == 4

    def test_floor_log2_between(self):
        assert floor_log2(5) == 2
        assert floor_log2(9) == 3

    def test_one(self):
        assert ceil_log2(1) == 0
        assert floor_log2(1) == 0

    def test_invalid(self):
        with pytest.raises(ValueError):
            ceil_log2(0)
        with pytest.raises(ValueError):
            floor_log2(0)

    @given(st.integers(1, 2**60))
    def test_sandwich(self, x):
        f, c = floor_log2(x), ceil_log2(x)
        assert 2**f <= x <= 2**c
        assert c - f in (0, 1)


class TestCeilSqrt:
    def test_squares(self):
        for k in range(50):
            assert ceil_sqrt(k * k) == k

    def test_between(self):
        assert ceil_sqrt(2) == 2
        assert ceil_sqrt(17) == 5

    def test_negative(self):
        with pytest.raises(ValueError):
            ceil_sqrt(-1)

    @given(st.integers(0, 10**12))
    def test_definition(self, x):
        r = ceil_sqrt(x)
        assert r * r >= x
        assert r == 0 or (r - 1) * (r - 1) < x


class TestPrimes:
    def test_small_primes(self):
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]
        for p in primes:
            assert is_prime(p)

    def test_small_composites(self):
        for c in [0, 1, 4, 6, 8, 9, 15, 21, 25, 27, 33, 35, 49]:
            assert not is_prime(c)

    def test_carmichael(self):
        # Carmichael numbers fool Fermat but not Miller-Rabin.
        for c in [561, 1105, 1729, 2465, 2821, 6601]:
            assert not is_prime(c)

    def test_large_prime(self):
        assert is_prime(2**31 - 1)  # Mersenne prime
        assert not is_prime(2**32 - 1)

    def test_next_prime(self):
        assert next_prime(0) == 2
        assert next_prime(8) == 11
        assert next_prime(11) == 11

    def test_prime_in_range(self):
        p = prime_in_range(100, 200)
        assert 100 <= p <= 200
        assert is_prime(p)

    def test_prime_in_range_empty(self):
        with pytest.raises(ValueError):
            prime_in_range(24, 28)

    def test_primitive_root_generates(self):
        for p in (2, 3, 5, 7, 47, 53, 61, 101, 16411):
            g = primitive_root(p)
            powers = {pow(g, i, p) for i in range(p - 1)}
            assert powers == set(range(1, p))
            assert all(
                len({pow(h, i, p) for i in range(p - 1)}) < p - 1
                for h in range(2, g)
            )

    def test_primitive_root_rejects_composites(self):
        with pytest.raises(ValueError):
            primitive_root(91)

    @given(st.integers(2, 10**6))
    def test_is_prime_matches_trial_division(self, n):
        trial = all(n % d for d in range(2, math.isqrt(n) + 1)) and n >= 2
        assert is_prime(n) == trial
