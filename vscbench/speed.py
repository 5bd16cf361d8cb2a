"""A fixed measure of the machine's speed, to scale timings by.

The benchmark host lends its cores to other tenants.  Its speed switches
every few seconds between a fast and a slow state, up to 60% apart, and
the share of time spent in each drifts over minutes.  A median latency
moves with that share, by up to 50% between runs of the same code.

A fixed probe that never touches the program slows down in the same
states.  Right after each timed call the probe runs a few times, and the
call's time is reported at the speed the probe shows on the reference
machine:

    scaled = measured * REFERENCE_S / median(probe times right after it)

A faster program gives proportionally smaller scaled times; a slow state
of the machine slows the probe too and largely cancels out.  The probe is
half interpreted Python and half numpy over a 1 MB array, because the
slow states hit the two kinds of work differently: a Python-only probe
tracked the paper and protocol workloads but overcorrected the
numpy-bound stochastic one.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median time of one probe on the reference machine (2-vCPU VM, CPython
# 3.11.7, see README.md); a scaled time is in that machine's seconds.
REFERENCE_S = 600e-6
MIN_PROBES = 5
PROBE_SHARE = 0.05  # probe for at least this share of the timed call


_IN = np.linspace(0.0, 1.0, 1 << 17)
_OUT = np.empty_like(_IN)


def probe() -> float:
    """Seconds taken by a fixed loop of Python arithmetic and small
    objects, and a fixed numpy pass over a 1 MB array, about equal halves."""
    start = time.perf_counter()
    acc = 0
    for i in range(240):
        acc += i * i % 7
        acc += len(f"{i},{acc * 0.5}".split(","))
    np.multiply(_IN, 1.0001, out=_OUT)
    np.sqrt(_OUT, out=_OUT)
    _OUT.sum()
    return time.perf_counter() - start


def scaled(seconds: float) -> float:
    """`seconds`, just measured, at the reference machine's speed."""
    samples = [probe() for _ in range(MIN_PROBES)]
    while sum(samples) < PROBE_SHARE * seconds:
        samples.append(probe())
    return seconds * REFERENCE_S / statistics.median(samples)
