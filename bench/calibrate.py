"""Host-speed calibration kernel.

A fixed piece of work that mixes interpreter work (frozen dataclasses and
dataclasses.replace, list comprehensions, float formatting and parsing)
with small NumPy work (arrays built from lists, powers, sums,
interpolation): the same mix as curvehedge's own hot paths, written
independently. It imports nothing from curvehedge, so a change
to the program can never change its cost: its time moves only with the
host's speed.

The benchmark times the kernel between operations, while no program work is
in flight, and reports every measured interval t as t * C0 / c, where c is
the median time of the kernel samples taken within LOCAL_WINDOW_S of that
interval (at least LOCAL_MIN of them). C0 is the kernel's median on the
reference host in its fast state, so corrected figures read as seconds on
that host.
"""

from __future__ import annotations

import datetime as dt
import math
import time
from dataclasses import dataclass, replace

import numpy as np

# kernel median in seconds on the reference host (2-core container,
# Python 3.11.7, numpy 2.4.6); fixed once, never re-measured
C0 = 0.0025

_TENORS = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 5.5, 6.0, 7.0, 8.0, 10.0)
_RATES = tuple(0.02 + 0.004 * math.sqrt(t) for t in _TENORS)


@dataclass(frozen=True)
class _Note:
    name: str
    face: float
    rate: float
    frequency: int
    term: float

    def __post_init__(self):
        if self.face <= 0 or self.term <= 0 or self.frequency not in (1, 2, 4, 12):
            raise ValueError(self.name)


_NOTES = (
    _Note("N1", 100.0, 0.034, 1, 7.0),
    _Note("N2", 100.0, 0.030, 1, 5.0),
    _Note("N3", 100.0, 0.028, 1, 4.0),
    _Note("N4", 100.0, 0.031, 2, 5.5),
)


def _schedule(note: _Note) -> list[tuple[float, float]]:
    step = 1.0 / note.frequency
    amount = note.face * note.rate / note.frequency
    n = int(math.ceil(note.term * note.frequency - 1e-9))
    times = [note.term - k * step for k in range(n)][::-1]
    rows = [(t, amount) for t in times]
    rows[-1] = (rows[-1][0], rows[-1][1] + note.face)
    return [(t, a) for t, a in rows if a != 0.0]


def _value(note: _Note) -> float:
    rows = _schedule(note)
    t = np.array([r[0] for r in rows])
    a = np.array([r[1] for r in rows])
    y = float(np.interp(note.term, np.asarray(_TENORS), np.asarray(_RATES)))
    return float(np.sum(a * (1.0 + y) ** (-t)))


def _numeric_part() -> float:
    """Small frozen records, their schedules and tiny-array discounting."""
    acc = 0.0
    for day in range(30):
        for note in _NOTES:
            acc += _value(replace(note, term=note.term - day / 365.0))
    return acc


def _text_part() -> float:
    """Fixed-width number formatting, splitting and parsing of dated rows."""
    first = dt.date(2024, 1, 2)
    lines = []
    for i in range(100):
        day = first + dt.timedelta(days=i)
        lines.append(day.isoformat() + "," + ",".join(f"{r + i * 1e-5:.10g}" for r in _RATES))
    acc = 0.0
    for line in lines:
        head, *cells = line.split(",")
        dt.date.fromisoformat(head)
        acc += sum(float(c) for c in cells)
    return acc


def kernel() -> float:
    """One unit of fixed work; returns a checksum so the work is consumed."""
    return _numeric_part() + _text_part()


def sample() -> float:
    """Wall time of one kernel call, in seconds."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


# a measured interval is corrected by the kernel samples taken within this
# many seconds of it, and by at least LOCAL_MIN samples
LOCAL_WINDOW_S = 0.25
LOCAL_MIN = 5


class Calibration:
    """Kernel samples taken through one run, and the correction they give.

    The host's speed flips between states on a scale of seconds, so one
    median over the whole run follows whichever state held most of it. Each
    interval is instead corrected by the samples taken around it.
    """

    def __init__(self):
        self.at: list[float] = []
        self.times: list[float] = []
        self.total = 0.0

    def take(self, n: int = 1) -> None:
        for _ in range(n):
            s = sample()
            self.at.append(time.perf_counter())
            self.times.append(s)
            self.total += s

    def median(self) -> float:
        return float(np.median(self.times))

    def local(self, start: float, end: float) -> float:
        """Median kernel time of the samples around the interval [start, end]."""
        at = np.asarray(self.at)
        times = np.asarray(self.times)
        near = (at >= start - LOCAL_WINDOW_S) & (at <= end + LOCAL_WINDOW_S)
        if np.count_nonzero(near) < LOCAL_MIN:
            near = np.argsort(np.abs(at - 0.5 * (start + end)))[:LOCAL_MIN]
        return float(np.median(times[near]))

    def correct(self, start: float, elapsed: float) -> float:
        """elapsed * C0 / c, with c the kernel median around the interval."""
        return elapsed * C0 / self.local(start, start + elapsed)
