"""Machine-speed sampling, to take the host's speed changes out of timings.

On a shared host the speed of one core changes by 1.5-2x within a
fraction of a second, as other tenants come and go, and the mix of slow
and fast periods drifts over minutes. A time measured over a run inherits
that drift. So while the benchmark measures, a SIGALRM handler runs fixed
calibration kernels every ``INTERVAL_S`` and records how long they took.
An interval's time is then scaled to a reference speed: its duration,
less the kernel runs inside it, times a kernel's ``reference_s`` over
its mean duration in the interval and next to it on each side. The result
reads as seconds on a core where the kernel takes ``reference_s``.

Compute speed and memory speed drift apart on such a host, so there are
two kernels: ``compute``, many small numpy calls on short arrays, and
``memory``, passes over an array of megabytes. Work made of small numpy
calls and Python loops follows the first; work that passes over arrays of
megabytes follows neither alone, and is scaled by the geometric mean of
both speeds.

An interval given with the thread's CPU clock at both ends (a request) is
timed in CPU seconds, against the kernel's CPU seconds; others in wall
seconds. CPU time leaves out the milliseconds in which the hypervisor runs
another guest, stalls that would otherwise decide a request's tail.

The kernel never runs inside a timed request: ``HoldAlarm`` blocks SIGALRM
around each one, so a signal that arrives meanwhile runs the kernel just
after the request ends. How the measured program leaves the caches does
not change the divisor: the self-test streams 160 MB between kernel runs
and checks that the scaled slowdown equals the raw one.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter, thread_time
from typing import Callable, NamedTuple

import numpy as np

INTERVAL_S = 0.05

_SCORES = np.random.default_rng(0).random(2000)
_OWNERS = np.random.default_rng(1).integers(0, 20, 2000)
_LOAD = np.zeros(20)
# 8 MB: more than a core's L2, less than the shared L3
_BLOCK = np.random.default_rng(2).random(1_000_000)
_ALARM = {signal.SIGALRM}


def _compute(rounds: int) -> int:
    """Many small numpy calls on short arrays, the mix the tfrom scans are
    made of; the host's slow periods hit this mix hardest."""
    used = np.zeros(_SCORES.size, dtype=bool)
    total = 0
    for _ in range(rounds):
        fits = _LOAD + 0.5 <= _SCORES[:20] + 1e-12
        total += int((fits[_OWNERS] & ~used).argmax())
    return total


def _memory(rounds: int) -> float:
    """Passes over a block that lives in the shared cache, as the
    O(m*n) accounting passes of a wide online stream do."""
    return sum(float(_BLOCK.sum()) for _ in range(rounds))


class Kernel(NamedTuple):
    run: Callable[[int], object]
    rounds: int
    # Any constant would do. These are about the kernel's median time in
    # runs of this benchmark on the 2-core 2 GHz Xeon it was tuned on,
    # which keeps scaled values close to raw seconds on that machine.
    reference_s: float


KERNELS = {
    "compute": Kernel(_compute, rounds=150, reference_s=1.2e-3),
    "memory": Kernel(_memory, rounds=2, reference_s=1.4e-3),
}


class SpeedSampler:
    """Times every kernel of ``KERNELS`` every ``INTERVAL_S`` seconds of wall
    time.

    The handler runs between bytecodes of the main thread, so a sample is
    late while a long numpy call holds it; the samples still cover every
    interval the benchmark times.
    """

    def __init__(self):
        self.starts: list[float] = []
        # per sample, the time of all kernels, which intervals lose
        self.durations: list[float] = []
        self.cpu_durations: list[float] = []
        # per kernel and sample, (wall, CPU) seconds, which set the speed
        self.kernel_times: dict[str, list[tuple[float, float]]] = {name: [] for name in KERNELS}
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start, cpu = perf_counter(), thread_time()
        for name, kernel in KERNELS.items():
            begin, begin_cpu = perf_counter(), thread_time()
            kernel.run(kernel.rounds)
            self.kernel_times[name].append((perf_counter() - begin, thread_time() - begin_cpu))
        self.cpu_durations.append(thread_time() - cpu)
        self.starts.append(start)
        self.durations.append(perf_counter() - start)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def unscaled(self, start: float, end: float, cpu_start=None, cpu_end=None) -> float:
        """Seconds from ``start`` to ``end``, less the kernel runs inside;
        CPU seconds if the thread's CPU clock at both ends is given."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        if cpu_start is None:
            return end - start - sum(self.durations[first:last])
        return cpu_end - cpu_start - sum(self.cpu_durations[first:last])

    def scaled(self, kernels, start: float, end: float, cpu_start=None, cpu_end=None):
        """``unscaled`` at the reference speed of ``kernels``, the geometric
        mean of their speeds if there are more than one."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        clock = 0 if cpu_start is None else 1
        own = self.unscaled(start, end, cpu_start, cpu_end)
        for kernel in kernels:
            # the kernel runs inside the interval and the nearest one each side
            times = self.kernel_times[kernel][max(first - 1, 0) : last + 1]
            if times:
                mean = sum(t[clock] for t in times) / len(times)
                own *= (KERNELS[kernel].reference_s / mean) ** (1 / len(kernels))
        return own


class HoldAlarm:
    """Blocks SIGALRM inside the ``with`` block, so that the sampler's
    kernel runs after it and never inside. ``setitimer`` merges the ticks
    that fall inside into one, which arrives as the block ends."""

    def __enter__(self) -> None:
        signal.pthread_sigmask(signal.SIG_BLOCK, _ALARM)

    def __exit__(self, *exc) -> None:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, _ALARM)
