"""Reference kernel: a fixed piece of work that tracks this host's speed.

The benchmark runs on shared hosts whose speed drifts by a quarter or more
over tens of seconds, in CPU time as much as in wall time, so two runs of
the same code can differ by more than any useful regression bound.  The
kernel never calls qdesk and no change to qdesk can alter its work, so its
time moves only with the host.  ``run.py`` times it after every report and
scales each report's time by ``REFERENCE_MS`` over the kernel's local
median: a report time is then given in milliseconds at the speed at which
the kernel takes ``REFERENCE_MS``.

The kernel mixes what qdesk reports spend their time on: an interpreter
loop of small calls (the classical game and cost table), element-wise
complex exponentials (building the dense Fourier matrix), a complex
matrix product (applying it) and a pass over a 4 MiB state (larger than
one core's L2).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel milliseconds that a scaled time refers to: about its median on
# a 2-vCPU Xeon VM (Python 3.11, numpy 2.4, OpenBLAS 0.3.31 on one thread),
# where it ranged from 3.9 to 5.1 ms over ten minutes.
REFERENCE_MS = 4.0

# Kernel times on each side of a report that give its local speed.
WINDOW = 4


def _queries(drawers: int, k: int) -> int:
    queries = 0
    for drawer in range(drawers):
        queries += 1
        if drawer == k:
            break
    return queries


class Reference:
    """The kernel's inputs, built once; calling it times one pass."""

    def __init__(self) -> None:
        d = 256
        self._phases = np.outer(np.arange(d), np.arange(d)) * (2j * np.pi / d)
        self._block = np.ones((d, 64), dtype=complex)
        self._state = np.full(1 << 18, 2.0 ** -9, dtype=complex)
        self()

    def __call__(self) -> float:
        """Seconds of one pass of the kernel."""
        start = time.perf_counter()
        queries = sum(_queries(256, k) for k in range(256))
        matrix = np.exp(self._phases[:128])
        product = matrix @ self._block
        norm = float(np.vdot(self._state, self._state * 1j).imag)
        seconds = time.perf_counter() - start
        if queries != 256 * 257 // 2 or product.shape != (128, 64) or abs(norm - 1.0) > 1e-9:
            raise RuntimeError("reference kernel computed a wrong result")
        return seconds


def local_scales(kernel_seconds: list[float]) -> list[float]:
    """Per report, ``REFERENCE_MS`` over the median kernel time around it.

    ``kernel_seconds[i]`` is the kernel pass timed right after report ``i``.
    """
    scales = []
    for i in range(len(kernel_seconds)):
        window = kernel_seconds[max(0, i - WINDOW): i + WINDOW + 1]
        scales.append(REFERENCE_MS / 1e3 / statistics.median(window))
    return scales
