"""The machine's current speed, from a fixed calibration loop.

The benchmark runs on a shared host whose speed drifts, on both CPUs at
once and for seconds to minutes, by up to a factor of two; CPU time rises
and falls with wall time, so the drift is slower execution, not time taken
by other processes.  Raw timings of the same work then spread across runs
by more than any bound a regression check could use.

So every program call is bracketed by `calibrate()`: a fixed loop of the
benchmark's own code and the standard library (no kronnoma) that mixes the
kinds of work the workloads do -- interpreter arithmetic, calls and dict
traffic, small numpy arrays, gathers from an array larger than the L2
cache, a JSON round trip, a sort, Fraction arithmetic and object
allocation.  Different kinds of work slow down by different amounts when
the neighbours load the host; the mix tracks the workloads better than any
one kind did.

The loop must not feel the program's state.  It runs with the garbage
collector off, so the objects the program keeps alive (a cache, the spans
of a traced round) do not slow its allocations.  It starts only once the
process's other threads are idle: OpenBLAS threads spin for a while after
a matmul and would share the machine with the loop.  Its CPU time is that
of the calling thread alone.

A call's time is reported at the reference speed: measured seconds times
REF_S over the calibration's seconds, averaged over the calibrations before
and after it.  On a steady machine running at the reference speed the two
are equal.  A program change cannot move the calibration: it runs none of
the program's code.
"""

from __future__ import annotations

import gc
import json
import random
import time
from fractions import Fraction

import numpy as np

REF_S = 0.12  # seconds one calibrate() takes at the reference speed

_data: dict = {}


class _Cell:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a, self.b, self.c = a, b, c


def _inputs() -> dict:
    """Fixed inputs, made on first use (after set-up) and kept."""
    if not _data:
        rng = np.random.default_rng(0)
        _data["table"] = rng.integers(0, 1000, 1 << 20, dtype=np.int32)  # 4 MiB
        _data["index"] = rng.integers(0, 1 << 20, 100_000, dtype=np.int32)
        _data["doc"] = [{"id": i, "name": f"n{i}", "vals": [i * 0.5, i + 1, str(i)]} for i in range(1500)]
        r = random.Random(0)
        _data["pairs"] = [(r.random(), r.randrange(1000)) for _ in range(10000)]
    return _data


def _interpreter() -> int:
    s = 0
    for i in range(120000):
        s += i * i % 7
    return s


def _calls() -> int:
    table: dict[int, tuple] = {}

    def pair(a, b):
        return a, b

    for i in range(35000):
        table[i & 255] = pair(i, table.get(i & 127))
    return len(table)


def _small_arrays() -> float:
    a = np.arange(64.0)
    for _ in range(3000):
        a = a * 1.0000001 + 0.5
        a.sum()
    return float(a[0])


def _gather(d: dict) -> int:
    return sum(int(d["table"][d["index"]].sum()) for _ in range(16))


def _json(d: dict) -> int:
    return len(json.loads(json.dumps(d["doc"])))


def _sort(d: dict) -> float:
    return sum(sorted(d["pairs"])[0][0] for _ in range(3))


def _fractions() -> Fraction:
    s = Fraction(0)
    for i in range(1, 3000):
        s += Fraction(1, i % 97 + 1)
    return s


def _objects() -> int:
    total = 0
    for _ in range(3):
        cells = [_Cell(i, i + 1, None) for i in range(10000)]
        total += sum(c.a + c.b for c in cells)
    return total


def _quiesce(limit_s: float = 1.0) -> None:
    """Wait until no other thread of this process uses CPU."""
    end = time.monotonic() + limit_s
    while time.monotonic() < end:
        cpu0 = time.process_time()
        time.sleep(0.01)
        if time.process_time() - cpu0 < 0.001:
            return


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds (calling thread only) of the loop."""
    d = _inputs()
    _quiesce()
    collecting = gc.isenabled()
    gc.disable()
    try:
        wall0, cpu0 = time.perf_counter(), time.thread_time()
        _interpreter()
        _calls()
        _small_arrays()
        _gather(d)
        _json(d)
        _sort(d)
        _fractions()
        _objects()
        return time.perf_counter() - wall0, time.thread_time() - cpu0
    finally:
        if collecting:
            gc.enable()
