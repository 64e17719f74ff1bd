"""A monitor of the host's speed while ops run.

On a shared host the speed of one core changes by half or more from one
second to the next, as neighbours come and go.  The monitor is a child
process (this file run as a script) that wakes every `PERIOD` seconds and
times a fixed piece of pure-Python work (`reference_work`) that never
changes with the program under test.  An op's time is then scaled by
`REFERENCE_S` over the median sample taken while it ran: it reads as
milliseconds at a fixed reference speed, and a slower or faster
neighbour cancels out while a change to the program does not.

The samples must see the speed of the core the ops run on, and nothing
of the ops' own state.  So the caller pins itself to one CPU (`pin`)
before it starts the monitor, which inherits the pin, and the samples
run in their own process: they share no heap, allocator or collector
with the ops, so a change to the program's memory use cannot move them.
Each sample runs `reference_work` once untimed first, so that its code
and data are in the core's cache.  A sample takes the core from the op
for about 0.4 ms; `busy` gives that time so it can be taken off the op.
`time.perf_counter` is the system-wide monotonic clock, so the child's
sample times and the parent's op times are on one scale.
"""
from __future__ import annotations

import bisect
import os
import select
import statistics
import subprocess
import sys
import time

PERIOD = 0.02
#: Samples this far before and after an op also count towards its speed;
#: the host changes state on a scale of seconds.
WINDOW = 0.25
#: Time of one warm `reference_work` call in the common (slower) state of
#: the host the benchmark was defined on (Intel Xeon, 2 vCPUs, Python
#: 3.11.7).
REFERENCE_S = 0.00018


def reference_work() -> int:
    memo: dict = {}
    acc = 0
    for i in range(100):
        key = (i % 97, i % 13)
        t = memo.get(key)
        if t is None:
            t = memo[key] = tuple(range(key[1]))
        acc += len({(x * 3) % 7 for x in t})
    return acc


def pin() -> None:
    """Pin this process, and every process it starts later, to one CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class SpeedMonitor:
    def __init__(self) -> None:
        self.starts: list[float] = []     # core taken, increasing
        self.ends: list[float] = []       # core given back
        self.times: list[float] = []      # timed-part midpoints, increasing
        self.samples: list[float] = []    # timed-part durations

    def __enter__(self) -> "SpeedMonitor":
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self._proc.stdout.readline().strip() != "ready":
            self._proc.kill()
            self._proc.wait()
            raise RuntimeError("speed monitor failed to start")
        return self

    def __exit__(self, *exc) -> None:
        # Closing the child's stdin tells it to stop and print its samples.
        out, _ = self._proc.communicate(timeout=60)
        if self._proc.returncode != 0:
            raise RuntimeError("speed monitor failed")
        for line in out.splitlines():
            held, start, end = map(float, line.split())
            self.starts.append(held)
            self.ends.append(end)
            self.times.append((start + end) / 2)
            self.samples.append(end - start)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median sample taken from `start - WINDOW`
        to `end + WINDOW`, or the latest samples if that holds none."""
        lo = bisect.bisect_left(self.times, start - WINDOW)
        hi = bisect.bisect_right(self.times, end + WINDOW)
        window = self.samples[lo:hi] or self.samples[-3:]
        return REFERENCE_S / statistics.median(window)

    def busy(self, start: float, end: float) -> float:
        """Seconds of samples taken between `start` and `end`."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        return sum(min(e, end) - s
                   for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))


def _sample() -> None:
    """Take samples until stdin closes, then print `held start end` of
    each: when the core was taken, and the timed part."""
    clock = time.perf_counter
    rows = []
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], PERIOD)[0]:
        held = clock()
        reference_work()
        start = clock()
        reference_work()
        rows.append((held, start, clock()))
    sys.stdout.write("".join(f"{h!r} {s!r} {e!r}\n" for h, s, e in rows))


if __name__ == "__main__":
    _sample()
