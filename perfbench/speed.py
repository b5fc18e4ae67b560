"""Machine-speed references for a shared host.

On a host whose CPUs are shared with other tenants, the same work runs up
to about 2x slower or faster from one second to the next, which swamps the
differences the benchmark exists to detect.  The benchmark therefore times,
next to the program, a fixed reference that does not depend on the program,
and scales each timing by ``nominal / reference``: a time is reported as
what it would be while the reference runs at its nominal speed.

* In-process calls are scaled by a short pure-Python bisection that builds
  a validated dataclass per step (``loop_reference``), timed every 20 ms.
  A plain arithmetic loop tracked the program worse: on fast and slow
  phases of the host it over-corrected by ~10%.
* Process wall times (a CLI command, an import probe) are scaled by a fresh
  interpreter importing a fixed set of standard-library modules
  (``process_reference``), timed before and after each process: startup
  and import work slows down differently from an interpreter loop.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

# Reference times on the 2-vCPU host the baseline was measured on, near its
# typical speed; they only fix the scale of the reported times.
NOMINAL_LOOP_S = 70e-6
NOMINAL_PROCESS_S = 0.15

REFERENCE_IMPORTS = (
    "import json, argparse, csv, dataclasses, enum, decimal, fractions, statistics, "
    "email.message, http.client, xml.dom.minidom, unittest, asyncio, logging, "
    "pathlib, tarfile, zipfile, sqlite3"
)


@dataclass(frozen=True)
class _Point:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not self.x > 0.0:
            raise ValueError(self.x)


def _curve(x: float) -> float:
    r = math.sqrt(1.0 + 0.5 / x)
    return x * math.log(1.5) + (1.0 - r * r * x) * (1.0 / r**2 - 1.0) - math.log(r) / x


def _loop() -> float:
    """A bisection over a closed-form curve that builds a validated frozen
    dataclass per step: the kind of work the model's solvers do."""
    t0 = perf_counter()
    for target in (0.1, 0.2, 0.3, 0.4):
        lo, hi = 0.5, 2.0
        for _ in range(12):
            mid = _Point(0.5 * (lo + hi), 0.0).x
            if _curve(mid) < target:
                lo = mid
            else:
                hi = mid
    return perf_counter() - t0


def loop_reference() -> float:
    """Seconds for the reference loop (best of two passes)."""
    return min(_loop(), _loop())


def process_reference() -> float:
    """Wall seconds of a fresh interpreter importing REFERENCE_IMPORTS."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE_IMPORTS], check=True, timeout=120,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return perf_counter() - t0


class Speed:
    """Scale factor from the last ``keep`` reference timings; a new one is
    taken when the newest is older than ``every_s``."""

    def __init__(self, measure, nominal: float, every_s: float, keep: int) -> None:
        self.measure, self.nominal = measure, nominal
        self.every_s, self.keep = every_s, keep
        self.refs: list = []
        self.last = -math.inf
        self.history: list = []  # the factor after each new reference

    def factor(self) -> float:
        if perf_counter() - self.last > self.every_s:
            self.refs = (self.refs + [self.measure()])[-self.keep:]
            self.last = perf_counter()
            self.history.append(self.nominal / statistics.median(self.refs))
        return self.history[-1]


def in_process() -> Speed:
    return Speed(loop_reference, NOMINAL_LOOP_S, every_s=0.02, keep=5)


def per_process() -> Speed:
    """For timings of whole processes: one reference before and one after
    each (the reference after one process serves as the one before the next
    when it is less than a quarter second old)."""
    return Speed(process_reference, NOMINAL_PROCESS_S, every_s=0.25, keep=2)
