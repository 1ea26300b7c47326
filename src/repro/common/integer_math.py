"""Exact integer helpers: logarithms, square roots, and primality.

The paper's algorithms size their data structures with quantities such as
``ceil(log2(delta + 1))`` bits per color (Algorithm 1) or a prime in
``[8 n log n, 16 n log n]`` (Lemma 3.2).  Floating-point logarithms are not
safe near powers of two, so everything here is computed with integer
arithmetic only.
"""

import math

from repro.common.exceptions import ParameterError

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10^24
# (far above anything this library needs).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def ceil_div(a: int, b: int) -> int:
    """Return ``ceil(a / b)`` for integers with ``b > 0``."""
    if b <= 0:
        raise ParameterError(f"ceil_div requires b > 0, got {b}")
    return -(-a // b)


def floor_log2(x: int) -> int:
    """Return ``floor(log2(x))`` for ``x >= 1``."""
    if x < 1:
        raise ParameterError(f"floor_log2 requires x >= 1, got {x}")
    return x.bit_length() - 1


def ceil_log2(x: int) -> int:
    """Return ``ceil(log2(x))`` for ``x >= 1`` (``ceil_log2(1) == 0``)."""
    if x < 1:
        raise ParameterError(f"ceil_log2 requires x >= 1, got {x}")
    return (x - 1).bit_length()


def ceil_sqrt(x: int) -> int:
    """Return ``ceil(sqrt(x))`` for ``x >= 0``."""
    if x < 0:
        raise ParameterError(f"ceil_sqrt requires x >= 0, got {x}")
    r = math.isqrt(x)
    return r if r * r == x else r + 1


def mod_horner_array(coeffs, xs, p: int):
    """Horner-evaluate ``sum_i coeffs[i] * x^i mod p`` over an integer array.

    ``coeffs`` is low-to-high degree; every coefficient must lie in
    ``[0, p)``.  Fast paths: int64 arithmetic through the kernel-dispatch
    layer (``repro.kernels``), valid whenever the intermediate
    ``acc * x + c`` (with ``acc, c < p`` and ``x`` bounded by the largest
    key) cannot exceed ``2**63 - 1``.  For larger moduli the evaluation
    falls back to exact Python-int (object dtype) arithmetic, so results
    are correct at any prime size — the overflow-safe modular path shared
    by every hash family here.  The object-dtype fallback never
    dispatches: the kernels assume the int64 domain.
    """
    import numpy as np

    xs = np.asarray(xs)
    out_shape = xs.shape
    if xs.size == 0:
        return np.zeros(out_shape, dtype=np.int64)
    xmax = int(np.abs(xs).max())
    if horner_fits_int64(len(coeffs), xmax, p):
        # Small enough that even the mod-free accumulation cannot
        # overflow: one reduction at the end replaces one per step.
        from repro.kernels import dispatch

        coeffs64 = np.fromiter(
            (int(c) for c in coeffs), dtype=np.int64, count=len(coeffs)
        )
        xs64 = np.ascontiguousarray(xs.reshape(-1), dtype=np.int64)
        return dispatch(
            "mod_horner", coeffs64, xs64, p, False
        ).reshape(out_shape)
    if (p - 1) * (xmax + 1) + (p - 1) < 2**63:
        from repro.kernels import dispatch

        coeffs64 = np.fromiter(
            (int(c) for c in coeffs), dtype=np.int64, count=len(coeffs)
        )
        xs64 = np.ascontiguousarray(xs.reshape(-1), dtype=np.int64)
        return dispatch(
            "mod_horner", coeffs64, xs64, p, True
        ).reshape(out_shape)
    acc = np.zeros(out_shape, dtype=object)
    xs_obj = xs.astype(object)
    for c in reversed(coeffs):
        acc = (acc * xs_obj + int(c)) % p
    if p <= 2**63:
        return acc.astype(np.int64)
    return acc


def horner_fits_int64(num_coeffs: int, xmax: int, p: int) -> bool:
    """Whether Horner evaluation stays below 2**63 *without* reducing mod p.

    Tracks the exact worst-case accumulator bound ``B_{t+1} = B_t * xmax +
    (p - 1)`` (coefficients lie in ``[0, p)``); when it holds, one final
    ``% p`` replaces a modulo per step — the same value, computed with a
    fraction of the integer divisions.
    """
    bound = 0
    for _ in range(num_coeffs):
        bound = bound * xmax + (p - 1)
        if bound >= 2**63:
            return False
    return True


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < 3.3e24)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Return the smallest prime ``>= n``."""
    candidate = max(2, n)
    while not is_prime(candidate):
        candidate += 1
    return candidate


def prime_in_range(lo: int, hi: int) -> int:
    """Return a prime in ``[lo, hi]``; raise ``ValueError`` if none exists.

    Used for the paper's choice of ``p in [8 n log n, 16 n log n]``
    (Algorithm 1, line 16).  By Bertrand's postulate the paper's range always
    contains a prime, but we validate anyway to catch caller bugs.
    """
    p = next_prime(lo)
    if p > hi:
        raise ParameterError(f"no prime in range [{lo}, {hi}]")
    return p

