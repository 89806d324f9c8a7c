"""Reference slice: a fixed kernel timed after every operation.

The slice mixes dense eigensolves (many small ones and one of side 160,
about half of its time) with plain-Python loop and dict work, the kinds of
work the operations are made of, so that machine
drift (frequency scaling, neighbours on shared cores) slows the slice and
the operations alike.  Dividing operation times by the run's mean slice time
gives figures in reference units ("ref") that repeat far better than raw
wall time.  It imports nothing from qce, so no change to the program can
change the unit.
"""

from __future__ import annotations

import time

import numpy as np

SMALL_SIDES = (4, 8, 12, 16, 24)
COPIES = 3
LARGE_SIDE = 160
DICT_STEPS = 8000


class RefSlice:
    def __init__(self):
        g = np.random.default_rng(20211029)
        sides = [n for n in SMALL_SIDES for _ in range(2 * COPIES)] + [LARGE_SIDE]
        self.mats = []
        for n in sides:
            a = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
            self.mats.append(a + a.conj().T)

    def run(self) -> float:
        acc = 0.0
        for m in self.mats:
            acc += float(np.linalg.eigvalsh(m)[0])
        table: dict[int, int] = {}
        for i in range(DICT_STEPS):
            k = (i * 7919) % 211
            table[k] = table.get(k, 0) + i
        return acc + len(table)

    def timed(self) -> float:
        """Wall time of one slice, in seconds."""
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0
