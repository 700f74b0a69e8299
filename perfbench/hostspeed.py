"""Host-speed correction for timings taken on a shared machine.

On a shared host the speed a process gets drifts, by up to a factor of two
over seconds to minutes, and ``time.process_time`` drifts with it.  A
``Sampler`` measures that speed while the workload runs: every
``INTERVAL_S`` seconds a ``SIGALRM`` handler times a fixed reference kernel
of ``KERNEL_STEPS`` pure-Python dictionary updates.  A timed span is then
corrected in two steps:

* the kernel's own time inside the span is subtracted;
* the rest is scaled by ``REFERENCE_S`` over the mean kernel time inside the
  span, so that it reads as seconds at a fixed reference speed.

``REFERENCE_S`` is about the kernel's median time on the 2-core Xeon the
benchmark was written on, so corrected and raw times agree there in a
typical spell.  A change to the program moves its own time but not the
kernel's, so the correction keeps every real speed-up or slow-down.
"""

import signal
import time
from statistics import mean

INTERVAL_S = 0.01
KERNEL_STEPS = 1000
REFERENCE_S = 100e-6
FALLBACK_SAMPLES = 10  # used for a span too short to hold a sample


def _kernel() -> None:
    d: dict = {}
    for i in range(KERNEL_STEPS):
        k = i & 63
        d[k] = d.get(k, 0) + i


class Sampler:
    """Reference-kernel timings taken from a timer signal."""

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.samples)

    def span(self, mark: int) -> tuple[float, float]:
        """Kernel seconds taken since ``mark``, and the speed factor
        ``REFERENCE_S / mean kernel time`` over them (or over the last few
        samples when the span holds none)."""
        inside = self.samples[mark:]
        basis = inside or self.samples[-FALLBACK_SAMPLES:]
        if not basis:
            raise RuntimeError("no host-speed samples taken")
        return sum(inside), REFERENCE_S / mean(basis)

    def correct(self, mark: int, *seconds: float) -> list[float]:
        """Each of ``seconds``, measured over the span since ``mark``,
        corrected to the reference speed."""
        spent, factor = self.span(mark)
        return [max(s - spent, 0.0) * factor for s in seconds]
