"""Machine-speed reference that turns measured times into scaled seconds.

The benchmark's host changes speed by up to 1.7x over seconds to minutes
(see README.md, "Noise on a shared VM").  So every timed interval is
bracketed by runs of a fixed reference task, which depends on no code of the
package, and is reported as

    duration * REFERENCE_S / (mean of the reference times either side of it)

that is, in seconds on a machine where the reference task takes
REFERENCE_S.  A slower phase of the host slows the reference and the
workload alike and cancels; a slower package does not.
"""

from __future__ import annotations

import time

import numpy as np

#: seconds the reference task takes on the 2-vCPU Xeon VM the bounds were set
#: on, in its faster phases, so that scaled seconds there read close to raw ones
REFERENCE_S = 0.25
_SIGNAL = np.exp(1j * np.linspace(0.0, 50.0, 2 ** 16))
# few rows, formatted many times, so that the reference adds little to peak RSS
_ROWS = list(zip(_SIGNAL.real[:3000].tolist(), _SIGNAL.imag[:3000].tolist()))


def reference_s() -> float:
    """Seconds this process takes now for the reference task.

    The task mixes the three kinds of work the workloads do: an interpreter
    loop, complex 2^16-point FFTs, and formatting floats as CSV rows.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i & 7
    z = _SIGNAL
    for _ in range(40):
        z = np.fft.ifft(np.fft.fft(z) * 0.9999)
    for _ in range(10):
        for re, im in _ROWS:
            f"{re:.17g},{im:.17g}\n"
    return time.perf_counter() - start


def scaled(durations: list[float], refs: list[float]) -> list[float]:
    """Durations in scaled seconds; refs[i] and refs[i + 1] bracket durations[i]."""
    if len(refs) != len(durations) + 1:
        raise ValueError(f"{len(durations)} durations need {len(durations) + 1} references")
    return [d * 2 * REFERENCE_S / (refs[i] + refs[i + 1]) for i, d in enumerate(durations)]
