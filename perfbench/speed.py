"""Machine-speed normalisation of measured times.

On a shared virtual machine each virtual CPU switches, independently and
for a fraction of a second to many seconds at a time, between its full
speed and a speed 1.6 to 2.1 times slower (a neighbour on the same
physical core). A pass of a few seconds mixes both, so its wall and CPU
times drift from run to run by more than any regression worth catching.

`probe()` times a fixed snippet of the same kind of Python the program
runs: Fraction arithmetic plus small integer row operations, the inner
loops of the LP solver and of the square integer solves. Timed side by
side on the defining machine, the snippet slowed by the same factor as
those loops (1.70-1.71 against 1.67-1.71). A time scaled by
`REF_PROBE_S / probe()`, with the probe taken on the same CPU at the same
moment, is the time the work would have taken at full speed: seconds at
the reference speed, which are what the benchmark reports. The scaling
holds while the program's time is spent in Python bytecode; should its
hot loops move into compiled code, compare the raw times as well.

`SpeedClock` does this inside a running pass: a wall-clock timer probes
every `PERIOD_S`, and each stretch of timed work is scaled by the probe
taken at its start. Time spent probing is left out of every sum, and so
is time the hypervisor stole from the (pinned) virtual CPU: up to a sixth
of a pass's wall time in busy phases, and already absent from CPU time. An
import is a tenth of a second, so `at_reference_speed` probes right after
it, in the same interpreter (probing before it would load `fractions`
ahead of the timed import).
"""

from __future__ import annotations

import os
import signal
import time
from fractions import Fraction

#: Median probe time at full speed on the defining machine (2-vCPU KVM
#: guest, Xeon family 6 model 207, CPython 3.11); a reference speed, not a
#: tuning knob: changing it rescales every reported time.
REF_PROBE_S = 7.7e-5

#: Probe period inside a pass; far below the shortest speed phase.
PERIOD_S = 0.025

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _snippet() -> None:
    s = Fraction(0)
    acc = []
    for i in range(1, 30):
        s += Fraction(i, i + 7)
        row = [i, i + 1, i + 2, 3]
        acc.append([x * 3 - y * i for x, y in zip(row, row[1:])])


def probe() -> float:
    """Fastest of three timings of the snippet, in seconds.

    The fastest of three drops a garbage collection or an interrupt that
    lands inside one of them.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _snippet()
        best = min(best, time.perf_counter() - start)
    return best


def at_reference_speed(seconds: float) -> float:
    """`seconds` of work that has just ended, scaled by the median of five
    probes taken now."""
    samples = sorted(probe() for _ in range(5))
    return seconds * REF_PROBE_S / samples[2]


def stolen_seconds(cpu: int) -> float:
    """Time the hypervisor has run something else on virtual CPU `cpu`
    (the steal column of /proc/stat), or 0.0 where that is not reported."""
    prefix = f"cpu{cpu} ".encode()
    try:
        with open("/proc/stat", "rb") as handle:
            for line in handle:
                if line.startswith(prefix):
                    return int(line.split()[8]) / _CLOCK_TICKS
    except (OSError, IndexError, ValueError):
        pass
    return 0.0


class SpeedClock:
    """Timed work in raw and reference-speed seconds, wall and CPU.

    `start()` and `stop()` bracket timed work; the periodic probe runs all
    the time (SIGALRM), but only stretches between `start()` and `stop()`
    are summed. `install()` pins the process to one virtual CPU, so the
    time the hypervisor steals from that CPU can be taken out of the wall
    time at the reference speed: a stolen stretch is not slow work but no
    work, which the probe cannot see.
    """

    def __init__(self):
        self.wall = self.cpu = 0.0  # raw, probing excluded
        self.steal = 0.0  # raw seconds stolen from the pinned CPU while timing
        self.elapsed = 0.0  # raw wall time between start and stop, probing included
        self.norm_wall = self.norm_cpu = 0.0  # at the reference speed, steal excluded
        self.probes: list[float] = []
        self._cpu = 0
        self._affinity: set[int] = set()
        self._factor = 1.0
        self._mark: tuple[float, float, float] | None = None
        self._busy = False
        self._started = 0.0

    def install(self) -> None:
        self._affinity = os.sched_getaffinity(0)
        self._cpu = max(self._affinity)
        os.sched_setaffinity(0, {self._cpu})
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        os.sched_setaffinity(0, self._affinity)

    def _probe(self) -> None:
        seconds = probe()
        self.probes.append(seconds)
        self._factor = REF_PROBE_S / seconds

    def _set_mark(self) -> None:
        steal = stolen_seconds(self._cpu)  # read first: not timed work
        self._mark = (time.perf_counter(), time.process_time(), steal)

    def _account(self) -> None:
        """Sum the stretch since the mark, and move the mark to now."""
        wall, cpu = time.perf_counter(), time.process_time()
        steal = stolen_seconds(self._cpu)
        w0, c0, s0 = self._mark
        self.wall += wall - w0
        self.cpu += cpu - c0
        self.steal += steal - s0
        self.norm_wall += (wall - w0 - (steal - s0)) * self._factor
        self.norm_cpu += (cpu - c0) * self._factor
        self._mark = (wall, cpu, steal)

    def _tick(self, _signum, _frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            timing = self._mark is not None
            if timing:
                self._account()
            self._probe()
            if timing:
                # the probe itself is not timed work
                self._set_mark()
        finally:
            self._busy = False

    # The timer's handler runs between any two bytecodes; while `_busy` is
    # set it does nothing, so the mark is moved by one party at a time.
    def start(self) -> None:
        self._busy = True
        self._probe()
        self._set_mark()
        self._started = self._mark[0]
        self._busy = False

    def stop(self) -> None:
        self._busy = True
        self._account()
        self.elapsed += self._mark[0] - self._started
        self._mark = None
        self._busy = False
