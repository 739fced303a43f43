"""Machine-speed reference, used to normalise the benchmark's timings.

The benchmark runs on shared machines whose CPU speed drifts by tens of
percent, both in steps that last seconds and in bursts within a task, which
would swamp the differences between commits.  So the process that times
tasks also times a fixed chunk of interpreter work -- the reference, which
uses no kronmot code.  An untraced library run times one chunk from a
profiling-timer signal every ``TICK_S`` of CPU time, inside tasks and
between them; cli-session and traced runs time batches of chunks between
tasks instead.  One run never mixes the two kinds: a chunk in a batch runs
with warmer caches than one that interrupts other work.

Each task timing is reported as its time minus the reference work done
inside it, scaled by ``nominal / mean(reference chunk times)`` over the
chunks timed during it (or, for short tasks, the chunks nearest to it): the
time it would take on a machine on which one chunk takes the nominal time
of its kind.  The reference is the same on every commit, so a change to
kronmot moves the scaled times as it moves the raw ones.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from statistics import fmean
from time import perf_counter

BATCH_NOMINAL_S = 0.00025  # a chunk's time at the nominal speed, in a batch
TICK_NOMINAL_S = 0.0004    # the same, interrupting other work
BATCH = 40          # chunks per between-task sample
EVERY_S = 0.1       # at most one between-task batch per this much run time
TICK_S = 0.01       # CPU time between in-task chunks
MIN_INSIDE = 10     # chunks inside a task needed to use them alone
NEAREST = 80        # otherwise, chunks nearest in time to the task

_XS = list(range(1, 301))
_BIG = 3 ** 12000


def _chunk() -> int:
    """Small-int arithmetic, list and tuple churn and big-int products:
    the instruction mix of kronmot's exact-algebra layer."""
    acc = 0
    for _ in range(3):
        ys = [x * 3 + 1 for x in _XS if isinstance(x, int)]
        acc += sum(tuple(ys[1:-1])) % 1000003
    return acc ^ (_BIG * (_BIG + acc)).bit_length()


class SpeedProbe:
    """Reference chunk timings, as (mid-point, seconds) pairs in time order."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.nominal_s = BATCH_NOMINAL_S
        self._last = float("-inf")

    def _time_chunk(self) -> None:
        t0 = perf_counter()
        _chunk()
        t1 = perf_counter()
        self.samples.append(((t0 + t1) / 2, t1 - t0))
        self._last = t1

    def sample(self) -> None:
        for _ in range(BATCH):
            self._time_chunk()

    def maybe_sample(self) -> None:
        if perf_counter() - self._last >= EVERY_S:
            self.sample()

    def start_ticks(self) -> None:
        """Time one chunk every TICK_S of CPU time, inside tasks too."""
        self.nominal_s = TICK_NOMINAL_S
        signal.signal(signal.SIGPROF, lambda signum, frame: self._time_chunk())
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)

    def stop_ticks(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)


def scaled(samples, nominal_s: float, timings) -> list[float]:
    """Nominal-speed seconds for (start, seconds) timings."""
    mids = [t for t, _ in samples]
    out = []
    for start, seconds in timings:
        lo, hi = bisect_left(mids, start), bisect_right(mids, start + seconds)
        inside = [d for _, d in samples[lo:hi]]
        if len(inside) >= MIN_INSIDE:
            ref = inside
        else:
            mid = start + seconds / 2
            window = samples[max(0, lo - NEAREST):hi + NEAREST]
            ref = [d for _, d in sorted(window, key=lambda s: abs(s[0] - mid))[:NEAREST]]
        out.append((seconds - sum(inside)) * nominal_s / fmean(ref))
    return out
