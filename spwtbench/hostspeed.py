"""Host-speed probe: puts every timed operation on one reference speed.

The shared 2-vCPU machine this benchmark was built on changes speed by up to
~50 % within seconds and between minutes (the same `place` call took 150 ms
in one run and 240 ms in another), which swamps any change to spwt.  So
each operation is bracketed by a probe, a fixed numpy computation (complex
exponential, modulus and sum over 16,384 values) timed as the best of five.
The probe takes REFERENCE_MS on the reference machine when it is quiet; a
latency is reported as

    measured latency * REFERENCE_MS / mean(probe before, probe after)

i.e. what it would have been at the reference speed.  Over 100 identical
`place` calls in blocks of ten, the spread of block medians fell from 0.084
raw to 0.022 with this scaling; for 8x8 `pattern` calls from 0.32 to 0.085.
The raw latencies are reported alongside.
"""

import time

import numpy as np

REFERENCE_MS = 0.4
REPEATS = 5
_INPUT = np.linspace(0.0, 6.0, 16384).reshape(64, 256)


def probe_ms() -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter_ns()
        np.abs(np.exp(1j * _INPUT)).sum()
        best = min(best, time.perf_counter_ns() - t0)
    return best / 1e6


def scale(before_ms: float, after_ms: float) -> float:
    """Factor taking a latency measured between two probes to reference speed."""
    return 2.0 * REFERENCE_MS / (before_ms + after_ms)
