"""The speed of the core the benchmark runs on, measured by a fixed probe.

On a few cores of a shared host, other tenants slow every instruction down by
up to 1.7x, in phases that last from seconds to minutes (NOTES.md, "Machine
noise").  No statistic over one run removes a phase that covers the whole
run.  So the benchmark times a fixed probe before and after each item, and
reports the item's time scaled to the speed at which the probe takes
``REFERENCE_PROBE_S``:

    corrected = measured * REFERENCE_PROBE_S / (mean of the two probes)

The probe uses numpy and plain Python only, never ``hypernorm``, so a change
to the package moves ``measured`` and leaves the probe alone.  Its three
parts follow the package's hot loops: interpreter-bound bookkeeping, short
numpy calls on small vectors with a small eigendecomposition, and the
eigendecomposition of a 200x200 block, the size of the larger PSD
projections.
"""

from __future__ import annotations

import time

import numpy as np

# Probe time on a quiet core of the machine that defined the benchmark
# (2-vCPU KVM guest, Intel Xeon model 143, one BLAS thread).
REFERENCE_PROBE_S = 7.0e-3
PROBE_REPS = 5

_rng = np.random.default_rng(12345)
_S = _rng.standard_normal((40, 40))
_S = _S + _S.T
_L = _rng.standard_normal((200, 200))
_L = _L + _L.T
_V = _rng.standard_normal(40)


def _kernel() -> float:
    t = time.perf_counter()
    d = {}
    for i in range(3000):
        d[i % 97] = d.get(i % 97, 0.0) + i * 0.5
    x = _V.copy()
    for _ in range(150):
        x = 0.5 * (x + _S @ x / 40.0)
        x -= x.mean()
    np.linalg.eigh(_S)
    np.linalg.eigh(_L)
    return time.perf_counter() - t


def probe() -> float:
    """Median time of the probe kernel over a few back-to-back runs."""
    return sorted(_kernel() for _ in range(PROBE_REPS))[PROBE_REPS // 2]


def corrected(measured: float, before: float, after: float) -> float:
    """``measured`` seconds scaled to the reference speed, given the probe
    times taken just before and just after the measurement."""
    return measured * 2.0 * REFERENCE_PROBE_S / (before + after)
