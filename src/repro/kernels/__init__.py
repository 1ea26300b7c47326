"""repro.kernels — hot-loop kernel dispatch.

The measured-hot inner loops of the block data plane (4-wise hash
evaluation, sketch event filtering, conflict masking, chain-matrix
scoring — see ``repro profile``) live in :mod:`repro.kernels.numpy_impl`
as standalone array-in/array-out kernels.  Algorithm modules call
:func:`dispatch` — never the implementation module directly (staticcheck
rule R10) — so every hot-loop call is counted in one place: the engine
records per-run hit counts in ``ColoringResult.extras["kernel_hits"]``,
the obs plane exports the process totals, and :func:`measure_kernels`
times each call for ``repro profile``.
"""

from contextlib import contextmanager

from repro.kernels.numpy_impl import NUMPY_KERNELS
from repro.obs.clock import perf_now

__all__ = [
    "NUMPY_KERNELS",
    "dispatch",
    "kernel_total_hits",
    "measure_kernels",
]

# Cumulative per-kernel dispatch counts for this process.
_hit_counts: dict[str, int] = {}

# When a measure_kernels() block is active, name -> [calls, seconds].
_timings: dict | None = None


def kernel_total_hits() -> dict[str, int]:
    """Cumulative per-kernel dispatch counts for this process.

    The pull-time source for the obs plane's
    ``repro_kernel_dispatch_total{kernel=...}`` counters; a run's own
    counts are the difference of two reads taken around it.
    """
    return dict(_hit_counts)


@contextmanager
def measure_kernels():
    """Collect per-kernel wall time while the block is active.

    Yields a dict ``name -> [calls, seconds]`` that fills as kernels
    dispatch — the measurement backbone of ``repro profile``.  Timing is
    off outside the block, so steady-state dispatch stays two dict
    operations.
    """
    global _timings
    previous = _timings
    _timings = {}
    try:
        yield _timings
    finally:
        _timings = previous


def dispatch(name: str, *args):
    """Call kernel ``name`` and count the hit."""
    impl = NUMPY_KERNELS[name]
    _hit_counts[name] = _hit_counts.get(name, 0) + 1
    if _timings is None:
        return impl(*args)
    start = perf_now()
    out = impl(*args)
    elapsed = perf_now() - start
    cell = _timings.setdefault(name, [0, 0.0])
    cell[0] += 1
    cell[1] += elapsed
    return out
