"""Machine-speed probe: times a fixed pure-Python loop while mrkit runs.

On a shared host the speed of one core changes from second to second with
what other tenants run on its sibling thread; on a 2-CPU Xeon the same
command took anywhere from 0.55 to 0.75 s back to back.  A probe that runs
only between commands cannot see that, so this one runs *inside* them: a
SIGALRM handler times TICK_LOOP rounds of an interpreter loop every
PERIOD_S seconds, in the thread that runs mrkit.  The median tick of a
command measures the speed its code ran at, and

    ref_seconds = seconds * REFERENCE_TICK_S / median tick

is the command's time at the reference speed.  A change to mrkit moves
``seconds`` and leaves the ticks alone, so it moves ``ref_seconds`` by the
same factor; a slow stretch of the core moves both and mostly cancels.
The ticks cost about 1.5% of every command, with or without the change,
and change nothing mrkit computes.

The loop's code and data fit in the first-level caches, so the tick
follows the core's speed and not what mrkit left in the caches: a tick
that also ran numpy calls was slower after `evaluate gk4` than after
`evaluate nf-pf` on the same machine, which would let a change to mrkit's
memory footprint move its own yardstick.  Slowdowns from other tenants'
use of the shared caches and memory are therefore left in ``ref_seconds``.

The handler runs between bytecodes, so a long call into C delays the next
tick; a command with fewer than MIN_TICKS ticks is scaled by the median
tick of the whole run instead.  Only ``signal`` and ``time`` are imported
here, so that a set-up timing that starts a probe first imports nothing
mrkit would.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.02
TICK_LOOP = 3000
# The median tick on the 2-CPU Xeon of the README's baseline, so that
# ref_seconds reads close to seconds there.
REFERENCE_TICK_S = 3.3e-4
MIN_TICKS = 5


def _tick_work() -> None:
    total = 0
    for i in range(TICK_LOOP):
        total += i * i % 7


class SpeedProbe:
    """Context manager that collects tick times in ``ticks`` while active."""

    def __init__(self, period: float = PERIOD_S) -> None:
        self.period = period
        self.ticks: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _tick_work()
        self.ticks.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def spin_ticks(seconds: float, period: float = 0.01) -> list[float]:
    """Ticks taken while the process only spins for ``seconds``: the speed
    of the moment, for a figure timed without a probe running."""
    with SpeedProbe(period) as probe:
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
    return probe.ticks


def ref_seconds(seconds: float, ticks, fallback_ticks) -> float:
    """``seconds`` at the reference speed, from the ticks taken meanwhile;
    ``fallback_ticks`` (the whole run's) stand in when there are too few."""
    import statistics

    if len(ticks) < MIN_TICKS:
        ticks = fallback_ticks
    return seconds * REFERENCE_TICK_S / statistics.median(ticks)
