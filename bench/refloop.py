"""A fixed reference loop, timed beside every pass.

The host's speed swings by up to 1.7x over tens of seconds, and pass times
swing with it.  The reference loop is fixed work of the kinds the passes
do, so it slows down with them, and a pass time divided by the reference
time beside it is steadier across runs than the raw pass time.

It has two parts, and each workload names the parts that track its passes
(``REFERENCE`` on the workload class):

- ``interpreted``: builds many small objects and visits them in scattered
  order through a dict, like the per-point Python loops of ``points``;
- ``numpy``: a sort, element-wise passes and a scatter on arrays larger
  than the caches, like the array kernels of ``grids``.

On ``points`` the interpreted part is needed: the numpy part alone left a
spread three times as wide.  On ``grids``, whose passes are array kernels,
the interpreted part made the spread wider, so it uses the numpy part
alone, run twice.  ``cli`` mixes both kinds of work and uses the
interpreted part once and the numpy part twice.

Never change this loop or its inputs: every recorded ratio is relative to
it.  It never calls the library, so a change to the library moves the
ratio in full.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

OBJECTS = 50_000


class _Point:
    __slots__ = ("x", "y", "v")

    def __init__(self, x, y, v):
        self.x, self.y, self.v = x, y, v


class ReferenceLoop:
    def __init__(self, parts):
        """``parts``: names of the parts to run, in order, e.g. ("numpy", "numpy")."""
        rng = np.random.default_rng(0)
        self.order = rng.permutation(OBJECTS).tolist()
        self.keys = rng.integers(0, 1 << 40, 400_000)
        self.vals = rng.random(1_000_000)
        self.parts = [getattr(self, name) for name in parts]
        self()  # warm-up

    def interpreted(self):
        pts = [_Point(i * 0.5, i * 0.25, float(i % 97)) for i in range(OBJECTS)]
        bins = {}
        for i in self.order:
            p = pts[i]
            k = (int(p.x) & 4095, int(p.y) & 63)
            bins[k] = bins.get(k, 0.0) + p.v * 0.5 + p.x * p.y * 1e-9
        return len(bins)

    def numpy(self):
        np.unique(self.keys, return_inverse=True)
        a = self.vals
        for _ in range(6):
            a = np.sqrt(a * 1.0001 + 1.0)
        np.minimum.at(np.zeros(1024), self.keys[:100_000] & 1023, self.vals[:100_000])

    def __call__(self):
        """Run the loop once; returns its wall time in seconds."""
        t = perf_counter()
        for part in self.parts:
            part()
        return perf_counter() - t
