"""Host-normalised time: a fixed reference operation timed next to every span.

The benchmark's hosts are shared, and their speed drifts by up to 2x for
minutes at a time, so raw seconds from two runs minutes apart disagree by
more than a code change worth measuring.  Every timed job is therefore
paired with timings of a reference operation, taken just before it, every
SAMPLE_PERIOD_S while it runs and just after it, and reported as

    raw_s * REF_NOMINAL_S / median(reference samples)

("host-normalised seconds"): the time the job would take on a host where
the reference operation takes REF_NOMINAL_S.  The raw seconds are kept in
the run's record.

The operation copies the shape of ddfkit's hot path (small tuple
arithmetic through Python calls and generator expressions, as in
`Group.add` and `Group.check`) but does not touch ddfkit, so a change to
the kit moves the job's time and never the reference.
"""

from __future__ import annotations

import signal
from statistics import median
from time import perf_counter

REF_NOMINAL_S = 250e-6
SAMPLE_PERIOD_S = 0.05
_MODULI = (7, 13, 19, 31)


def _check(a: tuple) -> tuple:
    if len(a) != len(_MODULI) or not all(0 <= x < m for x, m in zip(a, _MODULI)):
        raise ValueError(a)
    return a


def _add(a: tuple, b: tuple) -> tuple:
    return tuple((x + y) % m for x, y, m in zip(_check(a), _check(b), _MODULI))


def reference_op() -> tuple:
    acc = (0, 0, 0, 0)
    step = (1, 2, 3, 5)
    seen = {}
    for i in range(60):
        acc = _add(acc, step)
        seen[acc] = i
    return acc


def reference_s(samples: int = 3) -> float:
    """Median time of `samples` runs of the reference operation."""
    times = []
    for _ in range(samples):
        start = perf_counter()
        reference_op()
        times.append(perf_counter() - start)
    return median(times)


def normalise(raw_s: float, ref_s: float) -> float:
    return raw_s * REF_NOMINAL_S / ref_s


class HostSampler:
    """Times the reference operation every SAMPLE_PERIOD_S of a timed span.

    SIGALRM runs the handler between bytecodes of the main thread; `spent`
    is the time the handler took, which the caller subtracts from the span.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append(reference_s())
        self.spent += perf_counter() - start

    def __enter__(self) -> "HostSampler":
        self.samples = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
