"""Host-speed probe: a fixed piece of work that does not touch symflow.

The shared machines this benchmark runs on change speed by up to 2x from
one second to the next and over minutes, because other work shares the
host's cores.  Timing the probe right before and right after each timed
unit tells how fast the host ran then.  A time scaled by
``REFERENCE_S / probe time`` is the time the unit would take on a host where
the probe takes ``REFERENCE_S``: the program's own speed, steadier from run
to run than the wall time.

The probe mixes pure-Python loop work with small numpy products, as
symflow's code does.  Call it with BLAS threads pinned to 1.
"""

from __future__ import annotations

import time

import numpy as np

#: Probe time of the reference host.  Normalised times are seconds on a
#: host where one probe takes this long.
REFERENCE_S = 0.004

_A = np.random.default_rng(0).standard_normal((8, 8)) * 0.3  # spectral radius < 1: stays finite


def probe() -> float:
    """Wall time of the fixed probe work, in seconds."""
    start = time.perf_counter()
    total = 0
    for i in range(40000):
        total += i * i
    a = _A
    for _ in range(600):
        a = a @ _A - _A
    return time.perf_counter() - start


def normalise(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` in reference seconds, by the mean of the probes around it."""
    return elapsed * REFERENCE_S * 2.0 / (before + after)
