"""Reference timing for a shared, noisy host.

The benchmark's host runs other tenants' work on the same cores, and for
tens of seconds at a time all code on it can run up to 2x slower. Each
timed interval is therefore also expressed in reference seconds: wall
seconds divided by the slowdown that a fixed reference loop, run next to
it, shows against nominal speed (raised to ``ELASTICITY``). The loop
touches no tokenwire code, so a change to the library moves reference time
exactly as it moves wall time.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# One reference loop on an idle core of the 2-core x86-64 host the
# benchmark was tuned on. Any constant works for comparing two commits, as
# long as both runs use the same one.
REFERENCE_NOMINAL_S = 1.0e-3
# Under other tenants' load the workloads slow down more than the small
# reference loop does: on that host, timed work slowed by about the 1.25th
# power of the loop's slowdown. In eight 20-second stream_loss10 runs whose
# raw fps spread by 0.50, the exponent 1 left a spread of 0.135 in fps and
# 0.19 in step_ms_p95, the exponent 1.25 left 0.04 and 0.05.
ELASTICITY = 1.25
_ARRAY = np.linspace(0.0, 1.0, 4096)


def reference_loop() -> float:
    """Seconds for a fixed mix of interpreter and small-array work."""
    t0 = perf_counter()
    x = 0
    for i in range(10_000):
        x += i * i
    for _ in range(75):
        x += float((_ARRAY * 1.0001).sum())
    return perf_counter() - t0


def slowdown(reference_s: float) -> float:
    """The slowdown of timed work while the reference loop took
    ``reference_s``, against an idle core."""
    return (reference_s / REFERENCE_NOMINAL_S) ** ELASTICITY


def slowdown_now(samples: int = 3) -> float:
    """The host's current slowdown against nominal speed."""
    return slowdown(sorted(reference_loop()
                           for _ in range(samples))[samples // 2])
