"""Host fingerprint, the host-speed probe and probe-normalised timing.

The benchmark host is a shared 2-core machine whose speed drifts
between a fast and a slow mode within seconds.  A fixed ~1 ms probe
(a pure-Python loop plus a small numpy kernel) is timed in blocks
between operations; a CPU-bound time ``x`` measured next to a probe
block reading ``p`` ms is reported normalised as ``x * PROBE_REF_MS /
p`` beside its raw value.  ``steady.py`` shows, per metric, how much
normalising tightens the run-to-run spread.

The machine is a virtual one, and the hypervisor sometimes runs other
guests on its cores.  That time, ``steal`` in ``/proc/stat``, is
recorded beside every operation, so that the tail can be read from the
stretches of a run the hypervisor left alone (``metrics.py``).
"""

from __future__ import annotations

import os
import platform
import resource
import time
from dataclasses import dataclass

import numpy as np

#: Constant reference probe time: normalised times read as if every
#: operation ran next to a probe block of exactly this many ms.
PROBE_REF_MS = 1.0
#: Probe calls per block; the block reports their mean.
PROBE_BLOCK = 5

_PROBE_A = np.random.default_rng(1234).normal(size=(48, 16))
_PROBE_B = np.random.default_rng(4321).normal(size=(16, 192))


def _probe_once():
    acc = 0
    for i in range(6000):
        acc += (i * 7) % 13
    block = _PROBE_A @ _PROBE_B
    np.argpartition(block, 8, axis=1)
    return acc


def probe_ms():
    """One probe block: the mean time of ``PROBE_BLOCK`` probe calls, ms.

    The mean, not the median: time the process spends waiting for a
    core while other tenants run is part of what slows an operation
    down, so the probe must see it too.
    """
    started = time.perf_counter()
    for _ in range(PROBE_BLOCK):
        _probe_once()
    return (time.perf_counter() - started) * 1e3 / PROBE_BLOCK


def steal_ticks():
    """Cumulative time the hypervisor ran other guests on this machine's
    cores, in clock ticks (``steal`` in ``/proc/stat``); 0 where the
    host does not report it."""
    try:
        with open("/proc/stat") as handle:
            return int(handle.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0


@dataclass
class Sample:
    """One timed operation; ``norm_s`` is filled when its chunk closes.

    ``steal`` is the steal ticks since the previous sample was recorded.
    """

    kind: str
    raw_s: float
    rows: int = 1
    ok: bool = True
    norm_s: float = None
    steal: int = 0


class Meter:
    """Records operation times in chunks bracketed by probe blocks.

    A chunk closes once ``chunk_s`` of wall time has passed since the
    previous probe block; every sample in it is normalised by the mean
    of the probe blocks on either side.
    """

    def __init__(self, chunk_s=0.1):
        self.chunk_s = chunk_s
        self.samples = []
        self.probes = []
        self._pending = []
        self._before = None
        self._opened = None
        self._steal = None

    def start(self):
        """Take the first probe block; call before the first record."""
        self._before = probe_ms()
        self.probes.append(self._before)
        self._opened = time.perf_counter()
        self._steal = steal_ticks()

    def record(self, kind, seconds, rows=1, ok=True):
        steal = steal_ticks()
        sample = Sample(kind=kind, raw_s=float(seconds), rows=rows, ok=ok,
                        steal=steal - self._steal)
        self._steal = steal
        self.samples.append(sample)
        self._pending.append(sample)
        if time.perf_counter() - self._opened >= self.chunk_s:
            self.flush()
        return sample

    def flush(self):
        if not self._pending:
            return
        after = probe_ms()
        self.probes.append(after)
        adjacent = 0.5 * (self._before + after)
        for sample in self._pending:
            sample.norm_s = sample.raw_s * PROBE_REF_MS / adjacent
        self._pending = []
        self._before = after
        self._opened = time.perf_counter()

    def of(self, *kinds):
        return [s for s in self.samples if s.kind in kinds]


def peak_rss_mb():
    """Peak resident set size of this process so far, MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint():
    """What the results depend on besides the code: cores, BLAS, numba."""
    try:
        import numba  # noqa: F401  (presence only)
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = "%s %s" % (info.get("name"), info.get("version"))
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "numba": numba_version,
        "threads_env": {name: os.environ.get(name) for name in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }
