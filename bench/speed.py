"""Machine-speed probe: scales a run's timings to one reference speed.

The benchmark's host shares its CPUs with other tenants, and the same
pure-Python work runs up to twice as slow in some seconds or hours as in
others.  Every timing a run reports moves with it, so two runs
of the same code on the same host could differ by more than any useful
bound.  Each run therefore times a fixed probe, interleaved with its own
work, and reports its timings scaled by ``REFERENCE_MS`` over the
probe's mean time (in the run for a rate, around each duration for a
duration): what the timing would have read on the host at the speed at
which the probe takes ``REFERENCE_MS``.

The probe is the benchmark's own code, not the program's, so a change
to the program moves the reported timings but not the scale.  It runs
the kinds of work the program's time goes to (interpreted calls,
integer arithmetic, small dicts and strings), with the collector off,
and frees everything it allocates.  The slowest tenth of the samples
are dropped before a mean: a sample the scheduler preempted
says nothing about the speed the workload saw.

    python3 bench/speed.py   # prints the probe's time on this host
"""

from __future__ import annotations

import bisect
import gc
import statistics
import sys
import time

#: The probe's time at the reference speed that timings are scaled to.
REFERENCE_MS = 1.0
#: Share of a run's samples, slowest first, left out of its mean.
TRIM = 0.1
#: Half-width of the window of samples a local factor is taken over.
LOCAL_S = 0.5

WORDS = ("stack", "queue", "tree", "heap", "graph", "list", "set", "array")


def _step(total: int, i: int) -> int:
    return (total * 31 + i) % 97


def kernel() -> int:
    """The fixed work one sample times: 0.35–0.8 ms, depending on the
    hour, on the 2-core virtual machine the benchmark was written on."""
    table: dict[str, int] = {}
    total = 0
    for i in range(300):
        word = WORDS[i & 7]
        key = word + str(i % 13)
        table[key] = table.get(key, 0) + len(word)
    for i in range(1500):
        total = _step(total, i)
    for i in range(4000):
        total += i * i % 7
    return total + len(sorted(table.items()))


class SpeedProbe:
    """Samples of the probe's time, taken at most every ``every_s``."""

    def __init__(self, every_s: float = 0.1) -> None:
        self.every_ns = int(every_s * 1e9)
        self.due = 0
        self.samples: list[int] = []
        #: When each sample started (``time.monotonic_ns``), in order.
        self.stamps: list[int] = []
        #: Wall time spent probing, to be left out of a throughput window.
        self.spent_ns = 0

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        self.stamps.append(time.monotonic_ns())
        start = time.perf_counter_ns()
        kernel()
        end = time.perf_counter_ns()
        if enabled:
            gc.enable()
        self.samples.append(end - start)
        self.spent_ns += time.perf_counter_ns() - start

    def tick(self, now_ns: int) -> None:
        """Sample if the next sample is due at ``now_ns`` (monotonic)."""
        if now_ns >= self.due:
            self.sample()
            self.due = now_ns + self.every_ns

    def mean_ms(self) -> float:
        return _trimmed_mean_ms(self.samples)

    def factor(self) -> float:
        """Multiply a duration by this (divide a rate) to scale it to
        the reference speed; 1.0 before any sample."""
        return REFERENCE_MS / self.mean_ms() if self.samples else 1.0

    def local(self):
        """A function from a ``time.monotonic_ns`` stamp to the factor
        of the samples within ``LOCAL_S`` of the sample nearest it.

        The host's speed changes every few seconds, so a run mixes fast
        and slow stretches.  A quantile of durations scaled by one run
        factor then lands in one stretch or the other, depending on how
        much of the run each took; scaled by the speed around it, every
        duration is on one footing.
        """
        stamps, half = self.stamps, int(LOCAL_S * 1e9)
        if not stamps:
            return lambda stamp: 1.0
        factors = [
            REFERENCE_MS / _trimmed_mean_ms(self.samples[
                bisect.bisect_left(stamps, t - half):bisect.bisect_right(stamps, t + half)
            ])
            for t in stamps
        ]

        def at(stamp: int) -> float:
            i = bisect.bisect_left(stamps, stamp)
            if i == len(stamps) or (i and stamp - stamps[i - 1] < stamps[i] - stamp):
                i -= 1
            return factors[i]

        return at


def _trimmed_mean_ms(samples) -> float:
    kept = sorted(samples)[: max(1, round(len(samples) * (1 - TRIM)))]
    return statistics.fmean(kept) / 1e6


def main() -> int:
    probe = SpeedProbe()
    for _ in range(200):
        probe.sample()
    print(f"probe {probe.mean_ms():.3f} ms (trimmed mean of {len(probe.samples)}), "
          f"factor {probe.factor():.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
