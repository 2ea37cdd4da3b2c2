"""Timings at a reference machine speed, from a kernel sampled during the work.

The benchmark's host is shared, and other work on it slows a run in phases
of one to twenty seconds by up to half; process CPU time slows with it.  So
while a timed part runs, a SIGALRM handler times a fixed kernel every
``INTERVAL_S`` seconds: a pure-Python loop, then one pass over a slice of a
buffer that lives in the shared L3, since the neighbours slow interpreter
work and large-table scans by different amounts.  The part's time, less the
kernel's own, is scaled by the mean of ``REFERENCE_S / kernel time`` over the
samples: it then reads as seconds on a machine where the kernel takes
``REFERENCE_S``.  The kernel touches no permlp code, so a change to the
program moves the scaled timings fully.  Python runs the handler between
bytecodes, so a sample due during a long C call waits for the call to
return.

Over 50 s of repeated identical rounds on a shared 2-core Xeon, the quartile
spread of the round times was 4-19% as measured, 7-17% scaled by the loop
alone and 4-12% scaled by this kernel (ensemble_n10 19%, 17%, 10%;
ml_codebook_n9 4%, 13%, 4%; lp_awgn 13%, 7%, 4%; vertex_geometry 21%, 17%,
12%).
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02
KERNEL_ITERATIONS = 3000
# Samples taken right before and right after every timed part.  Python
# defers the handler while one C call runs, so a part spent in a single long
# call (the n=10 table build) is scaled by these alone.
EDGE_SAMPLES = 10
# The kernel's memory pass: a slice of a buffer four times the L2 of the
# shared 2-core Xeon, so each pass reads from the shared L3 as the large
# tables do.  Workers subtract the buffer from their peak memory.
BUFFER_BYTES = 8 * 2**20
SLICE_BYTES = 2**20
_BUFFER = np.ones(BUFFER_BYTES, dtype=np.int8)
_offset = 0
# Kernel seconds in the host's fast phases (shared 2-core Xeon); a fixed
# constant, so that scaled timings keep the unit of seconds.
REFERENCE_S = 0.0007


def kernel_seconds(iterations: int = KERNEL_ITERATIONS) -> float:
    """Seconds taken by a fixed loop of integer, float and dict operations,
    then by one pass over the next slice of a buffer larger than the L2."""
    global _offset
    t0 = time.perf_counter()
    counts, acc = {}, 0.0
    for i in range(iterations):
        k = (i * 7) % 97
        counts[k] = counts.get(k, 0) + 1
        acc += (i * 0.5) % 3.0
    np.count_nonzero(_BUFFER[_offset : _offset + SLICE_BYTES])
    _offset = (_offset + SLICE_BYTES) % BUFFER_BYTES
    return time.perf_counter() - t0


def speed(samples) -> float:
    """Mean speed relative to the reference over kernel samples."""
    return statistics.fmean(REFERENCE_S / k for k in samples)


@contextlib.contextmanager
def timed(record: dict):
    """Time the block into ``record`` while sampling the kernel.

    Sets ``seconds`` (wall time, kernel samples excluded), ``speed`` and
    ``kernel_samples``.
    """
    samples = [kernel_seconds() for _ in range(EDGE_SAMPLES)]
    edge = sum(samples)

    def handler(signum, frame):
        samples.append(kernel_seconds())

    previous = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    t0 = time.perf_counter()
    try:
        yield record
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        elapsed = time.perf_counter() - t0
        signal.signal(signal.SIGALRM, previous)
        inside = sum(samples) - edge
        samples += [kernel_seconds() for _ in range(EDGE_SAMPLES)]
        record.update(seconds=elapsed - inside, speed=speed(samples),
                      kernel_samples=len(samples))


def scaled(record: dict) -> float:
    """A timed record's seconds at reference speed."""
    return record["seconds"] * record["speed"]
