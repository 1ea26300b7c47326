"""Hash families and random oracles used by the paper's algorithms.

Algorithm 1's search over the affine family ``x -> (a x + b) mod p``
(line 16) needs no family object: :mod:`repro.core.selector` scores its
parts and members in closed form from ``a x + b mod p`` directly.

- :class:`PolynomialHashFamily` — k-independent polynomial hashing;
  Algorithm 3 needs the 4-independent case (Lemma 4.8's variance bound).
- :class:`TwoUniversalFamily` — ``((ax+b) mod p) mod s``; used by the
  Lemma 3.10 partition family and the deterministic baselines.
- :class:`RandomOracle` — lazily-materialized truly uniform functions, the
  ``O(n Delta)`` random-bit oracle Theorem 3 assumes.
- :class:`PartitionFamily` — the family of partitions of a color set from
  Lemma 3.10 (built on a 2-universal family).
"""

from repro.hashing.kindependent import PolynomialHashFamily
from repro.hashing.partitions import PartitionFamily
from repro.hashing.random_oracle import RandomOracle
from repro.hashing.universal import TwoUniversalFamily

__all__ = [
    "PartitionFamily",
    "PolynomialHashFamily",
    "RandomOracle",
    "TwoUniversalFamily",
]
