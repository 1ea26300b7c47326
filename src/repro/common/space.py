"""Bit-level space accounting for streaming algorithms.

Streaming algorithms in this library do not literally pack their state into
bit arrays (that would make the Python code unreadable); instead every
algorithm *charges* a :class:`SpaceMeter` with the number of bits its state
would occupy under the paper's accounting.  The meter distinguishes:

- **gauges**: the current size of a named state component (e.g. ``"buffer"``,
  ``"stage counters"``); setting a gauge replaces the component's previous
  size.  The meter tracks the peak of the *sum of all gauges*, which is the
  quantity the paper's space theorems bound.
- **random bits**: a separate, monotone counter for consumed randomness, so
  that Theorem 3 (oracle randomness excluded from space) and Theorem 4
  (randomness included) can be reported side by side.
"""

from repro.common.exceptions import ParameterError


class SpaceMeter:
    """Tracks working-state bits (peak) and consumed random bits."""

    def __init__(self):
        self._gauges: dict[str, int] = {}
        self._peak_bits = 0
        self._random_bits = 0

    def set_gauge(self, name: str, bits: int) -> None:
        """Set the current size in bits of the named state component."""
        if bits < 0:
            raise ParameterError(f"gauge {name!r} cannot be negative ({bits})")
        self._gauges[name] = bits
        total = self.current_bits
        if total > self._peak_bits:
            self._peak_bits = total

    def add_gauge(self, name: str, delta_bits: int) -> None:
        """Adjust the named gauge by ``delta_bits`` (may be negative)."""
        self.set_gauge(name, self._gauges.get(name, 0) + delta_bits)

    def clear_gauge(self, name: str) -> None:
        """Drop the named component (its bits no longer count)."""
        self._gauges.pop(name, None)

    def observe_peak(self, total_bits: int) -> None:
        """Record that the gauge total transiently reached ``total_bits``.

        Block-native passes replay many per-item gauge updates as one
        vectorized step; the intermediate high-water mark (e.g. a buffer
        filling to capacity mid-block before rolling) is computed in closed
        form and reported here, so the per-edge ``process`` loop and the
        block path report the same peak bit for bit without per-item
        ``set_gauge`` calls.
        """
        if total_bits < 0:
            raise ParameterError("observed peak cannot be negative")
        if total_bits > self._peak_bits:
            self._peak_bits = total_bits

    def charge_random_bits(self, bits: int) -> None:
        """Record consumption of ``bits`` random bits (monotone)."""
        if bits < 0:
            raise ParameterError("random bits cannot be negative")
        self._random_bits += bits

    @property
    def current_bits(self) -> int:
        """Sum of all current gauges."""
        return sum(self._gauges.values())

    @property
    def peak_bits(self) -> int:
        """High-water mark of :attr:`current_bits` over the meter's life."""
        return self._peak_bits

    @property
    def random_bits(self) -> int:
        """Total random bits consumed."""
        return self._random_bits

    @property
    def peak_bits_with_randomness(self) -> int:
        """Peak working bits plus all random bits (Theorem 4 accounting)."""
        return self._peak_bits + self._random_bits

    def gauge(self, name: str) -> int:
        """Current value of a single gauge (0 if never set)."""
        return self._gauges.get(name, 0)

    def report(self) -> dict[str, int]:
        """Snapshot of all gauges plus peak/random totals."""
        out = dict(self._gauges)
        out["__peak__"] = self._peak_bits
        out["__random__"] = self._random_bits
        return out

    def __repr__(self) -> str:
        return (
            f"SpaceMeter(current={self.current_bits}, peak={self._peak_bits}, "
            f"random={self._random_bits})"
        )
