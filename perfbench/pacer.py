"""Host-speed samples taken during an untraced pass, to steady its times.

On a shared host the same pass can take 20 to 35% longer from one minute to
the next, and the speed changes within a pass too.  So the untraced passes
are timed against a fixed reference kernel run at the same moments: a
``SIGALRM`` every :data:`INTERVAL_S` seconds of wall time runs the kernel on
the main thread, wherever the pass happens to be, and records how long it
took.  A pass time is then reported at reference speed: the pass's wall time
without the samples, times :data:`REFERENCE_S` over the median sample.

The kernel is NumPy only, the shape of fedal's hot path (a forward and
backward pass of a small tanh MLP over 1,000 2-D points), and calls nothing
in fedal, so no change to fedal can make it faster or slower.  It uses fixed
arrays and draws no random numbers, so the pass's results do not change.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1      # wall time between samples
REPEATS = 8           # kernel steps per sample: about 4 ms on the reference host
REFERENCE_S = 0.004   # the time of one sample that counts as reference speed

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((1000, 2))
_W1 = _rng.standard_normal((2, 32))
_W2 = _rng.standard_normal((32, 8))


def _kernel() -> None:
    for _ in range(REPEATS):
        hidden = np.tanh(_X @ _W1)
        logits = hidden @ _W2
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        _ = hidden.T @ probs
        back = (probs @ _W2.T) * (1.0 - hidden * hidden)
        _ = _X.T @ back


class Pacer:
    """Samples the kernel on entry, every INTERVAL_S while active, and on exit."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._busy = False
        self._previous = None

    def _sample(self, *_):
        if self._busy:  # a signal that lands inside a slow sample is dropped
            return
        self._busy = True
        start = time.perf_counter()
        _kernel()
        self.samples.append((start, time.perf_counter() - start))
        self._busy = False

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def busy(self, start: float, end: float) -> float:
        """Seconds spent in samples that started within [start, end)."""
        return sum(seconds for begin, seconds in self.samples if start <= begin < end)

    def speed(self) -> float:
        """Reference time over the median sample: below 1 on a slow stretch."""
        return REFERENCE_S / statistics.median(seconds for _, seconds in self.samples)


def reference_speed(samples: int = 9) -> float:
    """Pacer.speed from ``samples`` kernel runs made now, one after another."""
    pacer = Pacer()
    for _ in range(samples):
        pacer._sample()
    return pacer.speed()
