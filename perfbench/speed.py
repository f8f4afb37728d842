"""Machine-speed calibration for the timed metrics.

The benchmark runs on a few cores of a shared host whose speed changes by up
to 1.7x, in stretches from a few seconds to a minute (CPU time slows with
wall time, so it is not preemption). A run can land wholly in a slow stretch,
so raw pass times spread across runs by more than any bound a regression
check can use.

So while work is timed, a timer signal interrupts this process about every
``PERIOD_S`` and times a small fixed kernel that belongs to the benchmark,
not to ivimlab: a pure-Python integer loop and a loop of numpy calls on
8-element arrays, about 1 ms in all. The samples come from the same process
on the same core at the same moments as the work. A section of work's time
at the reference speed is its measured time, less the time spent in the
kernel, times ``REFERENCE_S`` over the mean kernel time sampled during it. A
change to ivimlab cannot move the kernel, so a slower program still reads
slower; only the host's speed cancels.

Probes that time the kernel only between passes, or in another process on
the other core, tracked the passes' slowdowns less well on this host (see
DESIGN.md).
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

import numpy as np

# about the kernel's median time on the machine the baseline was taken on (2 CPUs,
# Python 3.11, numpy 2.4): scaled times are seconds at that machine's usual speed
REFERENCE_S = 0.001
PERIOD_S = 0.05
# a section shorter than this is scaled by the samples of the window this
# long around it
MIN_WINDOW_S = 0.25
MIN_SAMPLES = 3
_B = np.linspace(0.0, 800.0, 8)


def _kernel() -> float:
    s = 0
    for i in range(6_000):
        s += i * i % 7
    acc = float(s)
    for i in range(40):
        r = np.exp(-_B * (0.001 + i * 1e-7)) * 100.0 - 50.0
        acc += float(r @ r) + float(np.max(np.abs(r)))
    return acc


class SpeedSampler:
    """Samples the host's speed while a ``with`` block times work.

    Time each section of work inside ``with sampler.section():``. After the
    block, ``raw`` and ``scaled`` hold the sections' times, less the kernel's
    own time, as measured and at the reference speed. Only the main thread
    can use it: Python runs signal handlers there.
    """

    def __init__(self):
        self._samples: list[tuple[float, float]] = []
        self._sections: list[tuple[float, float, float]] = []
        self._spent = 0.0
        self._busy = False
        self._previous = None
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self._samples.append(((t0 + t1) / 2.0, t1 - t0))
        self._spent += t1 - t0
        self._busy = False

    @contextmanager
    def section(self):
        spent0, t0 = self._spent, time.perf_counter()
        yield
        t1 = time.perf_counter()
        self._sections.append((t0, t1, t1 - t0 - (self._spent - spent0)))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, exc_type, exc, tb):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if exc_type is None:
            self._scale()
        return False

    def _scale(self) -> None:
        samples = np.array(self._samples, dtype=np.float64).reshape(-1, 2)
        if self._sections and len(samples) < MIN_SAMPLES:
            raise RuntimeError(f"only {len(samples)} speed samples were taken")
        mid, dur = samples[:, 0], samples[:, 1]
        for t0, t1, net in self._sections:
            pad = max(0.0, (MIN_WINDOW_S - (t1 - t0)) / 2.0)
            inside = (mid >= t0 - pad) & (mid <= t1 + pad)
            if inside.sum() < MIN_SAMPLES:
                inside = np.argsort(np.abs(mid - (t0 + t1) / 2.0))[:MIN_SAMPLES]
            self.raw.append(net)
            self.scaled.append(net * REFERENCE_S / float(dur[inside].mean()))
