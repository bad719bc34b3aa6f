"""Fixed calibration probe: a measure of host speed that no library change can move.

The sandbox's host speed drifts by +-25% over seconds to minutes (the same
``run_suite`` call has taken 0.64 s and 1.25 s within one sitting), far more
than the changes the benchmark must resolve.  The probe runs the
interpreter-bound kinds of work the workloads spend most time in, written
here without the library: a Python loop over numpy complex scalars (as in
``JacksonFunction.inner``), pure-Python complex arithmetic (as in
``kernel_eval``) and a dict-keyed polynomial product (as in ``qcomplex``).
Timed between ops, it tells how fast the host ran while those ops ran.
Over 100 s on a 2-vCPU sandbox, scaling by this probe cut the drift of
3-s averages of Hermite and mixed Grams, kernel grids and forward
transforms from 13-15% to 3-7% (standard deviation of log time); the
vectorised ``tensor_forward`` and ``q_gamma`` calls drift less than the
probe and went from 7% to 8%.  It allocates no large arrays and
runs with the garbage collector paused, so the heap the workload leaves
behind does not change its time.
"""
from __future__ import annotations

import gc
import time

import numpy as np

# The probe's duration on the reference host; timings reported as
# "normalised" are scaled to this host speed: raw * PROBE_REF_MS / probe.
PROBE_REF_MS = 4.5

_F = np.exp(1j * np.linspace(0.0, 3.0, 2 * 401)).reshape(2, 401)
_G = _F[:, ::-1].copy()


def probe_ms() -> float:
    """Duration in ms of one pass of the fixed probe work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _timed_pass()
    finally:
        if enabled:
            gc.enable()


def _timed_pass() -> float:
    t0 = time.perf_counter()
    for _ in range(3):
        acc = 0j
        qj = 1.0
        for j in range(401):
            acc += qj * (_F[0, j] * _G[0, j].conjugate() + _F[1, j] * _G[1, j].conjugate())
            qj *= 0.9
        zn, s = 1.0 + 0j, 0j
        for n in range(300):
            zn *= complex(0.7, 0.9**n * 0.4)
            s += zn / (n + 1.0)
        poly: dict = {}
        for a in range(12):
            for b in range(12 - a):
                for c in range(6):
                    key = (a + c, b + 5 - c)
                    poly[key] = poly.get(key, 0j) + complex(a, b) * c
    return (time.perf_counter() - t0) * 1e3


def probe_point() -> float:
    """One host-speed reading: the lower of two passes, which drops a pass
    that an interrupt landed in."""
    return min(probe_ms(), probe_ms())


def calibration_ms() -> float:
    """Median of five probes: the per-run host-speed record."""
    return float(np.median([probe_ms() for _ in range(5)]))
