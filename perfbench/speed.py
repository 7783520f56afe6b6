"""A host-speed probe that scales wall times to a fixed reference speed.

On a shared virtual machine each vCPU runs the same code at two or three
speeds that alternate in spells of a second to minutes (presumably other
tenants on the same physical core), and the two vCPUs switch independently. Thread CPU time
rises with wall time, so timing CPU instead does not help. What does help is
to measure the speed while the program runs: during a timed section, SIGALRM
fires every ``PERIOD_S`` seconds and its handler, which Python runs on the
main thread between bytecodes, times a fixed reference task: ``REF_LOOPS``
turns of a pure-Python loop and the parsing of a small JSON document, the two
kinds of work the program does most. The task's time over ``REF_S`` is the
slowdown at that moment. The section's scaled time is its wall time, less the probe's own time, times
the mean inverse slowdown over the samples (each smoothed by the median of
its neighbours): the time the section would take at the reference speed.

``REF_S`` is about the task's fastest time on a 2-vCPU Intel Xeon (Sapphire
Rapids) virtual machine. Scaled times are seconds at the speed where the task
takes ``REF_S``; compare them only on one machine.

Time of the block that the host's speed does not change (the fake
endpoint's service time, spent spinning on the clock) is to be set in
``waited_s`` before the block ends; it is kept out of the scaling.
"""

from __future__ import annotations

import json
import signal
import statistics
import sys
import time

PERIOD_S = 0.01  # sampling period of the probe
REF_LOOPS = 1000  # turns of the reference loop per sample
REF_DOC = json.dumps([{"question_id": f"q{i}", "scores": [i * 0.5, i / 3.0], "text": "a few words " * 4}
                      for i in range(40)])
REF_S = 1e-4  # time of one sample at the reference speed
SMOOTH = 2  # a sample is smoothed with this many neighbours on each side


def reference_task() -> int:
    s = 0
    for i in range(REF_LOOPS):
        s += i * i % 7
    return s + len(json.loads(REF_DOC))


class Probe:
    """Samples the host speed while a ``with`` block runs on the main thread.

    After the block, ``wall_s`` is its wall time and ``scaled_s`` its time at
    the reference speed. Probes do not nest.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.waited_s = 0.0
        self.wall_s = self.scaled_s = float("nan")

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        reference_task()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "Probe":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.wall_s = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous)
        probe_s = sum(self.samples)
        self._sample()  # a block shorter than the period still gets one sample
        self.scaled_s = (self.wall_s - probe_s - self.waited_s) * self.inverse_slowdown() + self.waited_s

    def inverse_slowdown(self) -> float:
        s, k = self.samples, SMOOTH
        smoothed = [statistics.median(s[max(0, j - k):j + k + 1]) for j in range(len(s))]
        return statistics.fmean(REF_S / x for x in smoothed)


def timed_import(module: str) -> None:
    """Import ``module`` under a probe and print the inverse slowdown (run in a fresh interpreter)."""
    with Probe() as probe:
        __import__(module)
    print(probe.inverse_slowdown())


if __name__ == "__main__":
    timed_import(sys.argv[1])
