"""Host-speed calibration for the timed passes.

On a shared host the speed of one CPU drifts by tens of percent over
seconds and minutes: other tenants' work slows the interpreter down
without the benchmarked code changing.  A :class:`HostClock` measures
that drift while a pass runs, with a fixed pure-Python reference
kernel that shares no code with the simulator, and converts the wall
seconds of a timed interval into *reference seconds*: the seconds the
interval would have taken had the kernel run at its nominal speed
(:data:`REFERENCE_S` per sample).  A change to the simulator moves the
interval and not the kernel, so it shows in reference seconds as it
does in wall seconds; a slower or faster host moves both, and cancels.

Two places to sample:

- :meth:`HostClock.start` runs one kernel sample every
  :data:`PERIOD_S` wall seconds from a ``SIGALRM`` timer, in between
  the Python bytecodes of whatever the pass is doing.  For passes that
  do their work in this one process.
- :class:`WorkerSampler` runs the same timer inside the pool workers of
  a pass whose work runs in child processes (the campaign pool), where
  the work is, so the samples never compete with the work for a CPU.

The seconds the samples themselves take are not counted as work.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import signal
import statistics
import time
from pathlib import Path

#: wall seconds between two timer-driven samples
PERIOD_S = 0.05
#: kernel iterations per sample
ITERATIONS = 7500
#: nominal seconds of one sample: about its median duration on a
#: shared 2-vCPU Intel Xeon KVM guest under CPython 3.11
REFERENCE_S = 0.0035


class _Slot:
    __slots__ = ("key", "value", "hits")

    def __init__(self, key: int) -> None:
        self.key = key
        self.value = 0
        self.hits = 0

    def bump(self, amount: int) -> int:
        self.hits += 1
        self.value = (self.value + amount * 31) & 0xFFFFFF
        return self.value


def reference_kernel(table: dict[int, _Slot], queue: list[_Slot],
                     iterations: int = ITERATIONS) -> int:
    """Fixed interpreter-bound work: calls, attributes, dicts, lists.

    ``table`` maps 0..255 to slots and ``queue`` is scratch space; the
    caller builds both once, so a sample allocates nothing the garbage
    collector tracks.
    """
    queue.clear()
    for slot in table.values():
        slot.value = slot.hits = 0
    acc = 0
    for i in range(iterations):
        slot = table[(i * 7919) & 255]
        if slot.bump(i) & 1:
            queue.append(slot)
        else:
            acc ^= slot.hits
        if len(queue) > 16:
            acc += queue.pop(0).value & 0xFF
    return acc


class HostClock:
    """Samples host speed during a pass; converts wall to reference seconds."""

    def __init__(self) -> None:
        #: (start, end) wall time of every sample
        self.samples: list[tuple[float, float]] = []
        self._previous = None
        self._table = {key: _Slot(key) for key in range(256)}
        self._queue: list[_Slot] = []

    def _sample(self) -> None:
        # the collector stays out of the kernel, so the process's garbage
        # collection settings (pool workers raise theirs) cannot move it
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_kernel(self._table, self._queue)
        self.samples.append((t0, time.perf_counter()))
        if collecting:
            gc.enable()

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        if self._previous is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._previous = None

    def wall_work(self, t0: float, t1: float) -> float:
        """Wall seconds in ``[t0, t1]`` not spent sampling."""
        busy = sum(min(e, t1) - max(s, t0) for s, e in self.samples
                   if s < t1 and e > t0)
        return (t1 - t0) - busy

    def timed(self, t0: float, t1: float) -> tuple[float, float]:
        """Wall work and host speed of ``[t0, t1]``, sampled in this process."""
        return self.wall_work(t0, t1), _speed(_inside(self.samples, t0, t1))

    def pooled(self, t0: float, t1: float, samples: list[tuple[float, float]],
               parallel: int) -> tuple[float, float]:
        """Wall work and host speed of ``[t0, t1]``, sampled in ``parallel`` workers.

        The workers' sampling lengthens the interval by about their
        summed sample time over ``parallel``; that much is not work.
        """
        spent = _inside(samples, t0, t1)
        return self.wall_work(t0, t1) - sum(spent) / parallel, _speed(spent)


def _inside(samples: list[tuple[float, float]], t0: float, t1: float) -> list[float]:
    """Durations of the samples that started inside ``[t0, t1]``."""
    return [e - s for s, e in samples if t0 <= s <= t1]


def _speed(spent: list[float]) -> float:
    """Host speed: nominal ÷ mean sample seconds."""
    if not spent:
        raise RuntimeError("no host-speed sample in a timed interval")
    return REFERENCE_S / statistics.fmean(spent)


class WorkerSampler:
    """Host-speed samples taken inside pool workers forked from this process.

    :meth:`install` wraps the function the workers run per job.  In a
    forked worker the wrapper starts a :class:`HostClock` timer on its
    first job and, after every job, appends the samples taken since to
    a file of its own under ``directory``; :meth:`collect` reads them in
    the parent.  In the parent itself the wrapper is a plain call.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        directory.mkdir(parents=True, exist_ok=True)

    def install(self, module, name: str) -> None:
        job = getattr(module, name)
        parent = os.getpid()
        clocks: dict[int, HostClock] = {}
        directory = self.directory

        @functools.wraps(job)
        def sampled(*args, **kwargs):
            pid = os.getpid()
            if pid == parent:
                return job(*args, **kwargs)
            clock = clocks.get(pid)
            if clock is None:
                clock = clocks[pid] = HostClock()
                clock.start()
            try:
                return job(*args, **kwargs)
            finally:
                with open(directory / f"{pid}.jsonl", "a") as out:
                    out.write(json.dumps(clock.samples) + "\n")
                clock.samples.clear()

        setattr(module, name, sampled)

    def collect(self) -> list[tuple[float, float]]:
        """Every sample the workers have written so far, oldest first."""
        samples = []
        for path in sorted(self.directory.glob("*.jsonl")):
            for line in path.read_text().splitlines():
                samples += [tuple(pair) for pair in json.loads(line)]
        return sorted(samples)
