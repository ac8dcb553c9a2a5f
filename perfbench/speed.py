"""The machine's current speed, from a fixed kernel timed next to every task.

On a shared machine the same code runs up to 1.7 times slower in some
stretches than in others, and a stretch lasts from seconds to minutes, so a
whole run can fall into a fast or a slow one.  The kernel below does the kind
of work seqlab does (big-integer products, remainders, a Python loop) and
nothing from seqlab, so a change to seqlab cannot change its time.  It is
timed ``SAMPLES`` times right before each task, in the process and on the CPU
that runs the task, and once more after the last task.  A task's time is then
scaled to a machine on which one kernel call takes ``REFERENCE_S``:

    scaled = raw * REFERENCE_S / median(samples before and after the task)

Over 90 s of a stretchy machine, six-second medians of a sparse scan's raw
time spread 0.30 (quartile distance over median); scaled, 0.04.  Single task
times of six library calls, each run 35 times, spread 0.35 raw and 0.11
scaled with five samples on each side (0.13 with three; 0.21 with a kernel of
large integers and fractions; worse again when the samples of neighbouring
tasks are pooled, because the speed changes from one task to the next).
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.004  # one kernel call on the machine the benchmark was sized on, in a fast stretch
SAMPLES = 5


def kernel() -> int:
    s = 0
    x = 3**200
    for i in range(20000):
        s += (x * i) % 1000003 + i * i % 7
    return s


def probe(n: int = SAMPLES) -> list[float]:
    """Times of ``n`` kernel calls."""
    samples = []
    for _ in range(n):
        start = time.perf_counter()
        kernel()
        samples.append(time.perf_counter() - start)
    return samples


def scale(records: list[dict], tail: list[float]) -> None:
    """Set ``speed`` and ``scaled`` on records that carry the kernel times
    taken before them in ``cal``; ``tail`` is the probe after the last one."""
    after = [r["cal"] for r in records[1:]] + [tail]
    for record, later in zip(records, after):
        record["speed"] = REFERENCE_S / statistics.median(record["cal"] + later)
        record["scaled"] = record["latency"] * record["speed"]
