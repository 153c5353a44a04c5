"""Host-speed probes: fixed computations timed between the benchmark's calls.

The benchmark shares its cores with other tenants, and the host's
throughput drifts by up to 2x within a few minutes.  A probe does the same
work on every run and every commit and calls nothing in the package, so
its time measures that drift alone.  run.py times the probes before each
CLI call, outside the call's time, and divides the call times of a pass by
the pass's slowdown: the median probe time over the probe's reference
time.  Every timing is thus reported at the host speed under which each
probe takes its `REFERENCE_MS`, and a change to the package moves the
timings but not the probes.

There are two probes, and the slowdown is the geometric mean of theirs:
"exact" computes small rational determinants and multi-precision complex
arithmetic, like the exact core and the root engine; "numpy" sorts,
searches, streams through and gathers from an int64 array larger than the
caches, like the packed trajectory path.  Contention slows different code by different
factors, so neither probe alone tracks every workload, and the pair tracks
them all about equally: on a shared 2-core VM over three minutes in which
the raw times of items from each workload drifted by 1.3x to 1.9x, it cut
the coefficient of variation of 20-second medians of item time from
0.12-0.22 to 0.02-0.06.  The garbage collector is off while a probe runs, so a
probe does not pay for collecting the objects the previous call left.

The probes add about 10 MB, their arrays, to every workload's peak_rss_mb,
a constant, and leave the caches cold for the call after them.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import time
from fractions import Fraction

import mpmath
import numpy as np

from workloads import char_poly_primitive

_rng = random.Random(3)
_MATRIX = [[Fraction(_rng.randint(-20, 20), _rng.randint(1, 20)) for _ in range(5)] for _ in range(5)]
_POLY = [_rng.randint(-9, 9) for _ in range(12)] + [1]


def _exact_work() -> None:
    for _ in range(3):
        char_poly_primitive(_MATRIX)
    with mpmath.workprec(80):
        z = mpmath.mpc(0.3, 0.7)
        for _ in range(12):
            z = z - mpmath.polyval(_POLY[::-1], z) / (1 + abs(z) ** 12)


_TABLE = np.arange(0, 3 * 2**19, 3, dtype=np.int64)  # 4 MiB
_OUT = np.empty_like(_TABLE)
_KEYS = (np.arange(2**15, dtype=np.int64) * 7919) % (3 * 2**19)
_HOPS = (np.arange(2**15, dtype=np.int64) * 40503) % _TABLE.size


def _numpy_work() -> None:
    np.searchsorted(_TABLE, np.sort(_KEYS))
    np.add(_TABLE, 1, out=_OUT)  # a streaming pass, into a buffer allocated once
    _OUT[_HOPS].sum()  # scattered reads


PROBES = {"exact": _exact_work, "numpy": _numpy_work}

# Median probe times on a 2-core Xeon VM (Python 3.11, numpy 2.4, mpmath
# 1.3 with its pure-Python backend) while the host was quiet: the host
# speed every reported timing is scaled to.
REFERENCE_MS = {"exact": 2.5, "numpy": 2.5}


def probe(samples: dict, repeat: int = 1) -> None:
    """Time `repeat` probes of each kind, appending the seconds to samples[kind]."""
    gc.disable()
    try:
        for _ in range(repeat):
            for kind, work in PROBES.items():
                start = time.perf_counter()
                work()
                samples.setdefault(kind, []).append(time.perf_counter() - start)
    finally:
        gc.enable()


def slowdown(samples: dict) -> float:
    """Geometric mean over the kinds of median probe time over its reference.

    1.5 means the host ran these probes at 2/3 of the reference speed.
    """
    logs = [math.log(statistics.median(s) * 1e3 / REFERENCE_MS[k]) for k, s in samples.items()]
    return math.exp(sum(logs) / len(logs))
