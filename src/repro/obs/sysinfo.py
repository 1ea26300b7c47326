"""Host introspection shared by benches, profile output, and metrics.

``rss_bytes``/``RssSampler`` started life in the S1 scale bench (PR 9)
and moved here so the serve metrics snapshot and the obs overhead gate
sample resident memory the same way.  ``host_metadata`` is the common
block stamped into ``repro profile --json`` and the bench JSON files so
numbers are comparable across machines.
"""

from __future__ import annotations

import os
import platform
import sys
import threading

__all__ = ["rss_bytes", "RssSampler", "host_metadata"]


def rss_bytes():
    """Current resident set size, or None where /proc is unavailable."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        return None
    return None


class RssSampler(threading.Thread):
    """Samples peak VmRSS in the background while a workload runs."""

    def __init__(self, interval: float = 0.02):
        super().__init__(daemon=True)
        self.peak = 0
        self._interval = interval
        self._halt = threading.Event()

    def run(self):
        while not self._halt.is_set():
            rss = rss_bytes()
            if rss is not None and rss > self.peak:
                self.peak = rss
            self._halt.wait(self._interval)

    def finish(self) -> int:
        self._halt.set()
        self.join()
        return self.peak


def host_metadata() -> dict:
    """Machine-identity block for cross-host comparison of JSON outputs."""
    return {
        "host_cpus": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python_version": "%d.%d.%d" % sys.version_info[:3],
        # Always False: the kernels have no compiled implementation.  The
        # key stays because perfbench's run table has a column for it.
        "compiled_available": False,
    }
