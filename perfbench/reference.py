"""The host's speed, sampled while the measured work runs.

On a shared host the same code can run up to 2x slower for minutes at a
time, as other tenants load the cores, caches and memory. A wall-clock
time alone then measures the neighbours as much as the program. So while
a unit of work runs, an interval timer interrupts it every ``INTERVAL_S``
and runs a short fixed reference loop in the main thread: small numpy
operations of the kind the model runs at E = H = 24 (a matrix-vector
product, tanh and a softmax), which cost mostly interpreter and call
overhead. The work's cost in reference units (unit ``ref``) is its own
time, with the samples' time taken out, divided by the reference loop's
mean time over the same interval: how many reference loops the host ran
in the time the work took. A slower host stretches both terms; a change
to the program moves only the first.

The loop tracks the host only in part: when the host is very slow the
program slows more than the loop does. On a shared 2-core Xeon VM, over
runs of 3 to 5 minutes, the spread (standard deviation over mean) of one
unit's wall time was 15-25%, and that of its cost in refs 5-6%, on the
CLI walk and on the experiment alike. Integer arithmetic and reads
scattered over a list larger than L2, tried as reference loops, tracked
worse.

The reference loop uses only numpy and its own few small arrays, so the
program cannot speed it up or slow it down except by changing numpy's
global state.
"""

import contextlib
import signal
import time

import numpy as np

clock = time.perf_counter

INTERVAL_S = 0.02
LOOP_STEPS = 40  # about 0.4 ms a sample, 2% of the interval
MIN_SAMPLES = 5


class Unit:
    """One measured unit of work: its wall time and the reference samples."""

    def __init__(self):
        self.wall_s = 0.0
        self.inside_s = 0.0  # time of the samples taken while the work ran
        self.sampled_s = 0.0  # time of all samples, including any taken after
        self.samples = 0

    @property
    def ref_s(self) -> float:
        """Mean seconds of one reference loop around the work."""
        return self.sampled_s / self.samples

    @property
    def refs(self) -> float:
        """The work's own time in reference units."""
        return (self.wall_s - self.inside_s) / self.ref_s


class Reference:
    """Times units of work against the reference loop.

    With ``sampling`` off (the traced run, whose spans must not contain
    the loop) the loop runs only ``MIN_SAMPLES`` times after each unit.
    """

    def __init__(self, sampling: bool = True):
        self.sampling = sampling
        self.weights = np.linspace(-1.0, 1.0, 24 * 48).reshape(24, 48)
        self.state = np.linspace(0.0, 1.0, 48)
        self.bias = np.zeros(24)
        self.unit = None  # the unit being measured, which samples go to
        if sampling:
            signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self.unit is not None:
            self._sample(self.unit)

    def _sample(self, unit: Unit):
        w, h, b = self.weights, self.state, self.bias
        t0 = clock()
        for _ in range(LOOP_STEPS):
            x = np.tanh(w @ h + b)
            y = np.exp(x - x.max())
            y /= y.sum()
        unit.sampled_s += clock() - t0
        unit.samples += 1

    @contextlib.contextmanager
    def measure(self):
        """Time the enclosed work; yields a Unit that is filled in on exit."""
        unit = self.unit = Unit()
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = clock()
        try:
            yield unit
        finally:
            if self.sampling:
                signal.setitimer(signal.ITIMER_REAL, 0)
            unit.wall_s = clock() - t0
            unit.inside_s = unit.sampled_s
            self.unit = None
            while unit.samples < MIN_SAMPLES:
                self._sample(unit)
