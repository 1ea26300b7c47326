"""Per-algorithm configuration dataclasses.

Each registered algorithm carries a config dataclass describing every knob
its constructor accepts beyond the universal ``(n, delta, seed)`` triple;
an algorithm without knobs (``naive``, ``palette_sparsification``) takes
the empty :class:`AlgorithmConfig`.  Configs are validated on
construction, round-trip through plain dicts
(:meth:`AlgorithmConfig.to_dict` / :meth:`AlgorithmConfig.from_dict`), and
therefore serialize cleanly into run tables, grid specs, and JSON.
"""

import dataclasses
from dataclasses import dataclass, fields

from repro.common.exceptions import ReproError

__all__ = [
    "ACS22Config",
    "AlgorithmConfig",
    "CGS22Config",
    "DeterministicConfig",
    "ListColoringConfig",
    "LowRandomConfig",
    "RobustConfig",
]

_SELECTION_MODES = ("hash_family", "greedy_slack")
_PRIME_POLICIES = ("paper", "scaled")


@dataclass(frozen=True)
class AlgorithmConfig:
    """Base class: dict round-trip plus hook for field validation."""

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ReproError` on out-of-domain field values."""

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-serializable for all shipped configs)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "AlgorithmConfig":
        """Rebuild from :meth:`to_dict` output; reject unknown keys."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ReproError(
                f"{cls.__name__} got unknown option(s) {sorted(unknown)}; "
                f"valid options: {sorted(known)}"
            )
        return cls(**data)


def _check_choice(name: str, value, choices) -> None:
    if value not in choices:
        raise ReproError(f"{name} must be one of {choices}, got {value!r}")


@dataclass(frozen=True)
class DeterministicConfig(AlgorithmConfig):
    """Knobs of :class:`repro.core.DeterministicColoring` (Theorem 1)."""

    selection: str = "hash_family"
    prime_policy: str = "paper"
    instrument: bool = False

    def validate(self) -> None:
        _check_choice("selection", self.selection, _SELECTION_MODES)
        _check_choice("prime_policy", self.prime_policy, _PRIME_POLICIES)


@dataclass(frozen=True)
class ListColoringConfig(AlgorithmConfig):
    """Knobs of :class:`repro.core.DeterministicListColoring` (Theorem 2).

    ``universe = None`` defaults to ``2 * (delta + 1)`` at construction
    time, which keeps random list assignments feasible.
    """

    universe: int | None = None
    selection: str = "hash_family"
    prime_policy: str = "paper"
    instrument: bool = False

    def validate(self) -> None:
        _check_choice("selection", self.selection, _SELECTION_MODES)
        _check_choice("prime_policy", self.prime_policy, _PRIME_POLICIES)
        if self.universe is not None and self.universe < 1:
            raise ReproError("universe must be >= 1")


@dataclass(frozen=True)
class RobustConfig(AlgorithmConfig):
    """Knobs of :class:`repro.core.RobustColoring` (Theorem 3 / Cor 4.7)."""

    beta: float = 0.0

    def validate(self) -> None:
        if not 0.0 <= self.beta <= 1.0:
            raise ReproError(f"beta must be in [0, 1], got {self.beta}")


@dataclass(frozen=True)
class LowRandomConfig(AlgorithmConfig):
    """Knobs of :class:`repro.core.LowRandomnessRobustColoring` (Theorem 4)."""

    repetitions: int | None = None

    def validate(self) -> None:
        if self.repetitions is not None and self.repetitions < 1:
            raise ReproError("repetitions must be >= 1")


@dataclass(frozen=True)
class ACS22Config(AlgorithmConfig):
    """Knobs of the [ACS22]-style deterministic baselines.

    ``variant="two_pass"`` is the ``O(Delta^2)``-colors/O(1)-passes
    algorithm; ``variant="color_reduction"`` iterates palette halving down
    to ``O(Delta)`` colors.
    """

    variant: str = "two_pass"

    def validate(self) -> None:
        _check_choice("variant", self.variant, ("two_pass", "color_reduction"))


@dataclass(frozen=True)
class CGS22Config(AlgorithmConfig):
    """Knobs of :class:`repro.baselines.SketchSwitchingQuadraticColoring`."""

    repetitions: int | None = None

    def validate(self) -> None:
        if self.repetitions is not None and self.repetitions < 1:
            raise ReproError("repetitions must be >= 1")

