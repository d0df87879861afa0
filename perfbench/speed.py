"""CPU time scaled to a reference speed, so that runs on a shared machine compare.

On a small shared VM the same pass of the same code takes between 1x and
1.7x its fastest CPU time, in stretches of seconds to minutes, as the
neighbours load the host (hyper-thread siblings, caches, clock).  The
benchmark therefore measures how fast the CPU is *while* the workload runs:
a profiling timer interrupts the process every INTERVAL_S of CPU time, and
the handler times one fixed reference routine.  A pass's CPU time, minus
the time spent in those handlers, is then scaled by
REFERENCE_S / (trimmed mean of the samples taken during the pass).  The
result reads as seconds on a CPU on which the reference routine takes
REFERENCE_S, about its median on the quiet 2-vCPU machine the benchmark was
tuned on.

The reference routine is independent of sandwichlab, so a faster program
moves the scaled time and a faster machine mostly does not.  It mixes what the
workloads do: a backtracking enumeration with small tuples and lists, a few
Fraction additions, random reads over a buffer larger than the caches, and
an integer loop.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction
from itertools import combinations

INTERVAL_S = 0.02
REFERENCE_S = 0.001
TRIM = 0.1

_BUFFER = bytearray(range(256)) * (1 << 14)  # 4 MiB
_MASK = len(_BUFFER) - 1


def reference() -> int:
    """Fixed work: every 2-regular graph on 6 vertices, fractions, random reads, arithmetic."""
    n = 6
    need = [2] * (n + 1)
    acc, freq = [], {}

    def rec(v):
        while v <= n and need[v] == 0:
            v += 1
        if v > n:
            for e in acc:
                freq[e] = freq.get(e, 0) + 1
            return
        k = need[v]
        cands = [w for w in range(v + 1, n + 1) if need[w]]
        need[v] = 0
        for combo in combinations(cands, k):
            for w in combo:
                need[w] -= 1
                acc.append((v, w))
            rec(v + 1)
            for w in combo:
                need[w] += 1
            del acc[-k:]
        need[v] = k

    rec(1)
    total = Fraction(0)
    for k in range(1, 20):
        total += Fraction(1, k * k + 1)
    x, s = 1, 0
    for _ in range(400):
        x = (x * 1103515245 + 12345) & _MASK
        s += _BUFFER[x]
    for i in range(2000):
        s += i * i % 7
    return len(freq) + s + total.denominator % 7


def trimmed_mean(values) -> float:
    """Mean of the values with the lowest and highest TRIM share dropped."""
    ordered = sorted(values)
    cut = int(len(ordered) * TRIM)
    kept = ordered[cut:len(ordered) - cut] or ordered
    return sum(kept) / len(kept)


class Sampler:
    """Times `reference` every INTERVAL_S of process CPU time while running.

    `samples` holds the CPU seconds of each reference call and `spent` their
    sum, so callers subtract `spent` from CPU time they measured around it.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.thread_time()
        reference()
        dt = time.thread_time() - t0
        self.samples.append(dt)
        self.spent += dt

    def start(self) -> None:
        self.samples = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> list:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)
        return self.samples

    def scale(self) -> float:
        """REFERENCE_S over the trimmed mean sample: multiply CPU seconds by it."""
        if not self.samples:
            raise RuntimeError("no reference samples were taken")
        return REFERENCE_S / trimmed_mean(self.samples)
