"""A fixed reference task that tracks how fast the machine is right now.

On a shared host the same pass can take 30 % longer from one ten-second stretch to
the next, because other tenants load the same cores, caches and memory.
The benchmark runs this reference between its timed passes and reports
each pass time scaled by the reference times measured around it, to the
speed at which the reference takes `REF_S` seconds.  Machine load slows the
reference and the passes alike and cancels out; a change to confres moves
only the passes, since the reference never calls confres.  The mean scale
over a run depends on the machine alone, so parent and change are scaled
alike.

The task mixes what confres spends its time on: an interpreted loop over
Python lists and floats (the local-move kernels without numba) and a
stable argsort of a 2 MB array (the dense kNN's sort, at a smaller size).
"""

import statistics
import time

import numpy as np

REF_S = 0.045  # nominal reference time; scaled times read as seconds at it
_KEYS = np.random.default_rng(12345).random(1 << 18)
_VALUES = [float(x) for x in _KEYS[:4096]]


def reference():
    """The reference task; deterministic, and touches nothing in confres."""
    acc = 0.0
    for _ in range(20):
        for i, v in enumerate(_VALUES):
            if v > 0.5:
                acc += v * _VALUES[i - 1]
            else:
                acc -= v
    order = np.argsort(_KEYS, kind="stable")
    return acc + float(_KEYS[order[0]])


class Calibration:
    """Reference samples taken in groups between timed intervals.

    Each interval is scaled by the mean of the median reference times of
    the groups just before and just after it, so the scale follows the
    machine's speed as it changes within a run.
    """

    def __init__(self):
        self.samples = []
        self.levels = []  # median reference time of each group
        self.intervals = []  # (seconds, index of the group before it)

    def sample(self, count=1):
        group = []
        for _ in range(count):
            t0 = time.perf_counter()
            reference()
            group.append(time.perf_counter() - t0)
        self.samples.extend(group)
        self.levels.append(statistics.median(group))

    def record(self, seconds):
        """An interval timed since the last group of samples."""
        self.intervals.append((seconds, len(self.levels) - 1))

    def scaled(self):
        """Every recorded interval, at the speed where the reference takes
        REF_S; call after the group that follows the last interval."""
        return [seconds * 2 * REF_S / (self.levels[g] + self.levels[g + 1])
                for seconds, g in self.intervals]
