"""k-independent polynomial hashing over a prime field.

``h(x) = (c_{k-1} x^{k-1} + ... + c_1 x + c_0) mod p`` with uniform
coefficients is exactly k-independent as a function ``[p] -> [p]``.
Algorithm 3 needs a 4-independent family ``V -> [l^2]`` (the variance
computation in Lemma 4.8 expands fourth moments).

Reducing the range from ``[p]`` to ``[m]`` by a final ``mod m`` distorts
uniformity by at most a ``(1 + m/p)`` factor per point probability; with the
default ``p >> m`` the collision probabilities used by Lemma 4.8 hold up to
``1 + o(1)``, which the paper's constants absorb.  This is the standard
implementation compromise and is documented in DESIGN.md (section 3).
"""

from dataclasses import dataclass

import numpy as np

from repro.common.exceptions import ParameterError
from repro.common.integer_math import is_prime, mod_horner_array


@dataclass(frozen=True)
class PolynomialFunction:
    """A member: polynomial coefficients (low to high degree), mod p, mod m."""

    coeffs: tuple[int, ...]
    p: int
    m: int

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.p
        return acc % self.m

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized evaluation over an integer array of keys.

        Overflow-safe: for ``p`` large enough that ``acc * x + c`` could
        exceed int64 (``p`` beyond ~2^31 with comparably large keys),
        evaluation falls back to exact Python-int arithmetic and still
        matches :meth:`__call__` bit for bit.
        """
        out = mod_horner_array(self.coeffs, xs, self.p) % self.m
        if out.dtype == object:
            out = out.astype(np.int64)
        return out


class PolynomialHashFamily:
    """Degree-(k-1) polynomial family over ``F_p``, reduced mod ``m``."""

    def __init__(self, p: int, k: int, m: int):
        if not is_prime(p):
            raise ParameterError(f"modulus must be prime, got {p}")
        if k < 1:
            raise ParameterError(f"independence k must be >= 1, got {k}")
        if m < 1 or m > p:
            raise ParameterError(f"range size m={m} must be in [1, p]")
        self.p = p
        self.k = k
        self.m = m

    @property
    def size(self) -> int:
        """``|H| = p^k`` (poly(n) for constant k, as Algorithm 3 requires)."""
        return self.p**self.k

    def seed_bits(self) -> int:
        """Random bits to select a member: ``k * ceil(log2 p)``."""
        return self.k * max(1, (self.p - 1).bit_length())

    def function(self, coeffs) -> PolynomialFunction:
        """The member with the given coefficient vector (length k)."""
        coeffs = tuple(int(c) % self.p for c in coeffs)
        if len(coeffs) != self.k:
            raise ParameterError(f"need exactly {self.k} coefficients")
        return PolynomialFunction(coeffs, self.p, self.m)

    def sample(self, rng) -> PolynomialFunction:
        """Uniformly random member."""
        coeffs = tuple(rng.randint(0, self.p - 1) for _ in range(self.k))
        return PolynomialFunction(coeffs, self.p, self.m)

    # ------------------------------------------------------------------
    # batched API: many members at once, evaluated over arrays of keys
    # ------------------------------------------------------------------
    def coeff_array(self, rng, shape) -> np.ndarray:
        """Coefficient tensor for a batch of members, shape ``shape + (k,)``.

        Draws ``prod(shape) * k`` uniform coefficients from ``rng.np`` in
        one call — the vectorized counterpart of calling :meth:`sample`
        per member.  The random-bit accounting is unchanged: callers charge
        ``seed_bits()`` per member exactly as on the scalar path.
        """
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        return rng.np.integers(0, self.p, size=shape + (self.k,), dtype=np.int64)

    def eval_coeffs(self, coeffs: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Evaluate every member of a coefficient tensor at every key.

        ``coeffs`` has shape ``members_shape + (k,)`` (low-to-high degree,
        as from :meth:`coeff_array`); ``xs`` is a 1-d key array.  Returns
        values in ``[0, m)`` with shape ``(len(xs),) + members_shape``,
        equal to :meth:`PolynomialFunction.eval_array` member by member.

        While ``k (p - 1)^2 < 2^53`` the kernel-dispatch layer evaluates
        all members at once as one exact float64 matrix product; past
        that bound it runs Horner in int64 with per-step reduction, and
        for primes beyond the int64 domain the exact
        Python-int fallback stays pure numpy by construction.  The range
        reduction is a mask when ``m`` is a power of two.
        """
        coeffs = np.asarray(coeffs)
        xs = np.asarray(xs)
        members_shape = coeffs.shape[:-1]
        xmax = int(np.abs(xs).max()) if xs.size else 0
        exact_float = self.k * (self.p - 1) ** 2 < 2**53 and xmax < 2**63
        big = (self.p - 1) * (xmax + 1) + (self.p - 1) >= 2**63
        if exact_float or not big:
            from repro.kernels import dispatch

            coeffs2 = np.ascontiguousarray(
                coeffs, dtype=np.int64
            ).reshape(-1, self.k)
            xs64 = np.ascontiguousarray(xs, dtype=np.int64)
            mode = "float" if exact_float else "stepwise"
            vals = dispatch("eval_coeffs", coeffs2, xs64, self.p, mode)
            if self.m & (self.m - 1):
                vals %= self.m
            else:
                vals &= self.m - 1
            return vals.reshape((len(xs),) + members_shape)
        x_col = xs.astype(object).reshape((len(xs),) + (1,) * len(members_shape))
        acc = np.zeros((len(xs),) + members_shape, dtype=object)
        for d in range(self.k - 1, -1, -1):
            acc = (acc * x_col + coeffs[..., d].astype(object)) % self.p
        return (acc % self.m).astype(np.int64)
