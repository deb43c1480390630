"""Host-speed reference: fixed tasks that run no code of the package.

The benchmark host is a share of a larger machine, and its per-core speed
drifts by a third or more over minutes as other tenants come and go. Every
timing in a run is therefore also reported at a reference speed, as

    t_ref = t_measured * nominal / median(reference samples)

For a pass, the samples are the ones taken right after it, and wall_s is
the median of its passes' t_ref: the host's speed changes within seconds,
so a factor per pass tracks it better than one for the whole run. The
reference task (sample) mixes what the package spends
its time on: numpy cos/sin over an outer-product phase table reduced by a
matrix-vector product (the series kernel), and an interpreted loop that
formats floats with .17g and tracks a running maximum (CSV output, the peak
walk). Its samples are taken in the process that times the passes, so they see
the same host state. For set-up time
the reference is a cold `python -c "import numpy"` (STARTUP_COMMAND), run
after each cold package import: it is most of that import's work, and none
of the package's. Since neither reference calls the package, a change to
the package cannot move the factor.

The nominal values are the references' medians on the baseline machine
(2 vCPUs of an Intel Xeon, Python 3.11.7, numpy 2.4.6 with OpenBLAS 0.3.31)
when idle, so reference-speed times read close to wall times there.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.020
STARTUP_COMMAND = "import numpy"
STARTUP_NOMINAL_S = 0.13
SHARE = 0.1  # reference samples take about this share of each pass's time

_TIMES = np.linspace(0.0, 3.0e-8, 4096)
_OMEGAS = 1.0e14 * np.sqrt(np.arange(1.0, 33.0))
_WEIGHTS = np.linspace(1.0, 0.0, 32)
_VALUES = np.sin(np.linspace(0.0, 400.0, 8192)).tolist()


def sample() -> float:
    """Wall time of one run of the reference task."""
    t0 = time.perf_counter()
    phases = np.outer(_TIMES, _OMEGAS)
    re = np.cos(phases) @ _WEIGHTS
    im = np.sin(phases) @ _WEIGHTS
    lines, top = [], float("-inf")
    for x, y in zip(_VALUES, re.tolist() + im.tolist()):
        lines.append(f"{x:.17g},{y:.17g}\n")
        if x > top:
            top = x
    "".join(lines)
    return time.perf_counter() - t0


def sample_for(seconds: float) -> list[float]:
    """Reference samples for about `seconds` (at least three)."""
    end = time.perf_counter() + seconds
    samples = [sample() for _ in range(3)]
    while time.perf_counter() < end:
        samples.append(sample())
    return samples


def factor(samples: list[float], nominal: float = NOMINAL_S) -> float:
    """nominal / median sample: multiply a measured time by it."""
    return nominal / statistics.median(samples)
