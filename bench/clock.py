"""Times at reference speed: a calibration kernel and a per-pass stage clock.

The host's speed drifts.  On the 2-core shared Xeon VM where this benchmark
was built, the same pass took 1x to 2.3x its fastest time, in spells of
seconds to minutes, and process CPU time drifted the same way.  So every
time is scaled by REFERENCE_CAL_S over the time ``calibrate`` took next to
it.  The kernel never calls fragkit, so a change to fragkit cannot move it.
"""

import hashlib
import heapq
import time

#: ``calibrate`` time that defines reference speed (its fast-state time on a
#: 2.1 GHz Xeon core)
REFERENCE_CAL_S = 0.025
#: a pass samples the speed once this much stage time has run since the last sample
SAMPLE_EVERY_S = 0.25


def calibrate():
    """Seconds taken by a fixed mix of the kinds of work fragkit does.

    The mix is heap and dict traffic in the interpreter, small-key hashing
    with Philox generator set-up (as per-node streams do), big-integer
    products (as mpmath does) and large-array arithmetic.
    """
    # imported here so that the set-up probe's timed import includes numpy
    import numpy as np

    t0 = time.perf_counter()
    heap, acc = [], {}
    for i in range(6000):
        heapq.heappush(heap, ((i * 7919) % 6007, i, (i, i + 1)))
        acc[i % 257] = acc.get(i % 257, 0.0) + i * 0.5
    while heap:
        heapq.heappop(heap)
    for i in range(300):
        key = hashlib.blake2b(i.to_bytes(8, "little"), digest_size=16).digest()
        gen = np.random.Generator(np.random.Philox(key=np.frombuffer(key, dtype=np.uint64)))
        gen.uniform()
        gen.exponential()
    x = 3**4000
    for i in range(300):
        (x * (x + i)) >> 4000
    a = np.arange(400_000, dtype=float)
    for _ in range(5):
        np.sqrt(a) * 1.5 + a[::-1]
    return time.perf_counter() - t0


class PassClock:
    """Stage and pass times of one pass, raw and at reference speed.

    Workloads run each stage through ``timed``.  Once SAMPLE_EVERY_S of stage
    time has passed, the clock calibrates and scales the stages since the
    previous sample by the mean of the two calibrations, so a long pass
    follows the drift.  ``stop`` does the same for the rest of the pass
    (checks and glue) and leaves calibration time out of every figure.
    """

    def __init__(self, calibrate=calibrate, reference=REFERENCE_CAL_S):
        self._calibrate = calibrate
        self._reference = reference
        self._last_cal = calibrate()

    def start(self):
        self.stages = {}
        self.scaled = {}
        self.cals = [self._last_cal]
        self._pending = []
        self._since = 0.0
        self._cal_time = 0.0
        self._t0 = time.perf_counter()

    def timed(self, key, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        self.stages[key] = self.stages.get(key, 0.0) + dt
        self._pending.append((key, dt))
        self._since += dt
        if self._since >= SAMPLE_EVERY_S:
            self._sample()
        return out

    def _sample(self):
        t0 = time.perf_counter()
        cal = self._calibrate()
        self._cal_time += time.perf_counter() - t0
        speed = self._reference / ((self._last_cal + cal) / 2)
        for key, dt in self._pending:
            self.scaled[key] = self.scaled.get(key, 0.0) + dt * speed
        self._pending, self._since, self._last_cal = [], 0.0, cal
        self.cals.append(cal)

    def stop(self):
        """Close the pass; returns (raw seconds, seconds at reference speed)."""
        raw = time.perf_counter() - self._t0 - self._cal_time
        self._pending.append((None, raw - sum(self.stages.values())))
        self._sample()
        rest = self.scaled.pop(None)
        return raw, sum(self.scaled.values()) + rest

    def speed(self):
        """Mean reference-speed factor over the pass (for spans, which have no stage)."""
        return self._reference * len(self.cals) / sum(self.cals)
