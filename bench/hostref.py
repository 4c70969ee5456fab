"""Host reference: a fixed pure-Python exact-arithmetic kernel, timed in
every run, so that a change in host speed can be told apart from a change
in qid.  It shares no code with qid, but does the same kind of work: a
truncated power series with Fraction coefficients whose denominators grow."""

from __future__ import annotations

import time
from fractions import Fraction


def _kernel() -> Fraction:
    # prod_{k=1}^{10} 1/(1 - q^k/k), coefficients through q^300
    n = 300
    c = [Fraction(0)] * (n + 1)
    c[0] = Fraction(1)
    for k in range(1, 11):
        f = Fraction(1, k)
        for i in range(k, n + 1):
            c[i] += c[i - k] * f
    return c[-1]


def host_ref_s(repeats: int) -> float:
    """Median time of one kernel call, in seconds."""
    times = []
    check = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = _kernel()
        times.append(time.perf_counter() - t0)
        if check is not None and value != check:
            raise RuntimeError("host reference kernel is not deterministic")
        check = value
    times.sort()
    return times[len(times) // 2]
