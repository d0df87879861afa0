"""Replay-deterministic randomness for the coupled processes.

One tape carries the two shared index streams the processes consume — pair i
(uniform over all unordered vertex pairs) and x(i) (uniform in [0,1)) — plus
named substreams for randomness that must not perturb the shared streams
(binomial edge-count draws, subset picks).  Everything is derived from the
master seed with a splittable scheme, so adding streams never disturbs
existing ones and identical seeds replay bit-for-bit.
Each shared stream stops at MAX_DRAWS draws with TapeBoundError, so a scan
that would run until memory is gone (a tiny tau_floor) is refused instead.
"""

from __future__ import annotations

import hashlib
import random

from .graphs import pair_list
from .oracle import CapacityError

MAX_DRAWS = 1 << 21


class TapeBoundError(CapacityError):
    """A read past the MAX_DRAWS draws each shared stream may cache."""


def _check_bound(i: int):
    if i > MAX_DRAWS:
        raise TapeBoundError(f"tape index {i} is past the bound of {MAX_DRAWS} draws "
                             "per stream (a tiny tau_floor scans ~16/tau_floor)")


def derive_seed(master, *labels) -> int:
    """Stable child seed from (master seed, labels...) via SHA-256."""
    text = repr((master,) + tuple(labels)).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big")


class RandomnessTape:
    """Shared streams pair(1), pair(2), ... and x(1), x(2), ... for one run."""

    def __init__(self, n: int, seed):
        self.n = n
        self.seed = seed
        self._pairs = pair_list(n)
        self._pair_rng = random.Random(derive_seed(seed, "pairs"))
        self._x_rng = random.Random(derive_seed(seed, "x"))
        self._pair_cache = []
        self._x_cache = []

    def pair(self, i: int):
        """The i-th uniformly random vertex pair (1-based index)."""
        pairs = self._pairs
        while len(self._pair_cache) < i:
            _check_bound(i)
            self._pair_cache.append(pairs[self._pair_rng.randrange(len(pairs))])
        return self._pair_cache[i - 1]

    def x(self, i: int) -> float:
        """The i-th uniform [0,1) variate (1-based index)."""
        while len(self._x_cache) < i:
            _check_bound(i)
            self._x_cache.append(self._x_rng.random())
        return self._x_cache[i - 1]

    def rng(self, label: str) -> random.Random:
        """Dedicated substream, independent of the shared index streams."""
        return random.Random(derive_seed(self.seed, "stream", label))
