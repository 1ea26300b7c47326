"""Output-correctness gate: independent checks plus pinned fingerprints.

Every unit of work the benchmark times is checked here, outside the
timed region:

* a batch run's coloring must be total, proper on the generated edges and
  inside the declared palette (checked with numpy against the benchmark's
  own copy of the input, not through the engine's validator);
* its fingerprint — sha256 over the coloring plus ``colors_used``,
  ``passes``, ``peak_space_bits`` and ``random_bits`` — must equal the
  first unit's in the same run and, when ``pins.json`` has an entry for
  the (workload, seed), the pinned value.

Service results carry no coloring over the wire, so a session's
fingerprint covers the scalar fields only, and ``proper`` must hold.
"""

import hashlib
import json
import pathlib

import numpy as np

PINS_PATH = pathlib.Path(__file__).with_name("pins.json")

#: Result fields folded into every fingerprint, in this order.
FINGERPRINT_FIELDS = ("colors_used", "passes", "peak_space_bits", "random_bits")


class GateFailure(Exception):
    """One unit's output failed a correctness check."""


def coloring_array(n: int, coloring: dict) -> np.ndarray:
    colors = np.zeros(n, dtype=np.int64)
    for vertex, color in coloring.items():
        colors[vertex] = color
    return colors


def check_coloring(edges: np.ndarray, colors: np.ndarray, palette) -> None:
    """Raise :class:`GateFailure` unless ``colors`` properly colors ``edges``."""
    if (colors <= 0).any():
        raise GateFailure(f"vertex {int(np.argmin(colors > 0))} is uncolored")
    if palette is not None and int(colors.max()) > palette:
        raise GateFailure(f"color {int(colors.max())} exceeds palette {palette}")
    clash = np.flatnonzero(colors[edges[:, 0]] == colors[edges[:, 1]])
    if len(clash):
        u, v = edges[clash[0]].tolist()
        raise GateFailure(f"edge ({u}, {v}) is monochromatic")


def fingerprint(fields: dict, colors: np.ndarray | None = None) -> str:
    digest = hashlib.sha256()
    digest.update(json.dumps([fields[k] for k in FINGERPRINT_FIELDS]).encode())
    if colors is not None:
        digest.update(np.ascontiguousarray(colors, dtype="<i8").tobytes())
    return digest.hexdigest()


def batch_fingerprint(edges: np.ndarray, result) -> str:
    """Check one engine result against its input; return its fingerprint."""
    if not result.proper:
        raise GateFailure("engine reported an improper coloring")
    colors = coloring_array(result.n, result.coloring)
    check_coloring(edges, colors, result.palette_bound)
    return fingerprint(vars(result), colors)


def session_fingerprint(result: dict) -> str:
    """Fingerprint of one finalized service session (no coloring on the wire)."""
    if not result.get("proper"):
        raise GateFailure("session finalized with an improper coloring")
    return fingerprint(result)


class Pins:
    """The pinned fingerprint table, ``{workload: {seed: sha256}}``."""

    def __init__(self, path=None):
        self.path = pathlib.Path(path or PINS_PATH)
        self.table = (
            json.loads(self.path.read_text()) if self.path.exists() else {}
        )

    def check(self, workload: str, seed: int, value: str) -> None:
        pinned = self.table.get(workload, {}).get(str(seed))
        if pinned is not None and pinned != value:
            raise GateFailure(
                f"{workload} seed {seed}: fingerprint {value[:12]} != "
                f"pinned {pinned[:12]}"
            )

    def pin(self, workload: str, seed: int, value: str) -> None:
        self.table.setdefault(workload, {})[str(seed)] = value
        self.path.write_text(json.dumps(self.table, indent=1, sort_keys=True) + "\n")


class RunGate:
    """Per-run gate: each input must reproduce one fingerprint every time.

    A batch run has a single input (key 0) that every unit repeats; a
    service run cycles through many session inputs.  The run's fingerprint
    hashes the per-input ones and is compared with ``pins.json``.
    """

    def __init__(self, workload: str, seed: int, pins: Pins | None):
        self.workload = workload
        self.seed = seed
        self.pins = pins
        self.seen: dict[str, str] = {}

    def check(self, value: str, key=0) -> None:
        first = self.seen.setdefault(str(key), value)
        if value != first:
            raise GateFailure(
                f"{self.workload} seed {self.seed} input {key}: fingerprint "
                f"{value[:12]} differs from its first {first[:12]}"
            )

    def fingerprint(self) -> str:
        payload = json.dumps(sorted(self.seen.items())).encode()
        return hashlib.sha256(payload).hexdigest()

    def check_pin(self) -> None:
        self.pins.check(self.workload, self.seed, self.fingerprint())
