"""The host's pace, measured between a run's steps by two fixed reference loops.

On a shared host the same code runs up to about 1.8 times slower for seconds
or minutes at a time, when other tenants load the machine.  A run therefore
times, between its steps, two loops that never change and touch no freelac
code: one bound by the Python interpreter, one by numpy.  The mean time of a
loop over the run, against its nominal time below, says how much slower than
nominal the host ran during that run, and ``scale`` undoes it.  A change to
freelac moves the steps' times but not the loops', so it still shows in full.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Nominal time of each loop: about what it takes on a quiet 2-core Xeon host,
# so that a scaled time reads close to the wall time on such a host.
NOMINAL_S = {"python": 0.010, "numpy": 0.009}

# One sample per SAMPLE_EVERY_S of step time.  Samples can only fall between
# steps, so a step is followed by as many as its time calls for: the mean then
# weighs the pace after each step by that step's length.  A sample of 10-20 ms
# every 0.2 s costs under a tenth of a run.
SAMPLE_EVERY_S = 0.2

_ORDER = 8209
_INDICES = np.arange(_ORDER, dtype=np.int64)


def python_loop() -> int:
    """Dict updates and integer arithmetic, like the word and strata code."""
    table: dict[int, int] = {}
    for i in range(50_000):
        key = (i * 7919) % 4099
        table[key] = table.get(key, 0) + (i ^ key)
    return len(table)


def numpy_loop() -> complex:
    """Roots-of-unity gathers and sums, like the direct transform."""
    roots = np.exp(-2j * np.pi * _INDICES / _ORDER)
    spectrum = np.zeros(_ORDER, dtype=np.complex128)
    for j in range(1, 150):
        spectrum += roots[(j * _INDICES) % _ORDER]
    return complex(spectrum[1])


LOOPS = {"python": python_loop, "numpy": numpy_loop}


class HostPace:
    """Samples the loops of ``kinds``, once per SAMPLE_EVERY_S of step time."""

    def __init__(self, kinds) -> None:
        self.samples: dict[str, list[float]] = {kind: [] for kind in sorted(kinds)}
        self._since = 0.0
        for kind in self.samples:  # warm up, unmeasured
            LOOPS[kind]()

    def sample(self) -> None:
        for kind, samples in self.samples.items():
            t0 = time.perf_counter()
            LOOPS[kind]()
            samples.append(time.perf_counter() - t0)

    def after_step(self, seconds: float) -> None:
        self._since += seconds
        while self._since >= SAMPLE_EVERY_S:
            self._since -= SAMPLE_EVERY_S
            self.sample()

    def slowdown(self, kind: str) -> float:
        """Mean time of the ``kind`` loop over the run, as a multiple of nominal."""
        return statistics.mean(self.samples[kind]) / NOMINAL_S[kind]

    def scale(self, seconds: float, kind: str) -> float:
        """``seconds`` measured during the run, at the nominal pace."""
        return seconds / self.slowdown(kind)
