"""Rank-based comparison statistics for the benchmark harness.

Mann-Whitney U with midranks, tie-corrected normal approximation, and a
continuity correction; chosen over parametric tests because per-seed final
objective values are rarely normal. No winner is declared, only statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple


def _midranks(values: Sequence[float]) -> Tuple[List[float], float]:
    """The midrank of each value, and the tie term sum(t^3 - t) over the
    groups of t equal values."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    tie_term = 0.0
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mid = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = mid
        t = j - i + 1
        tie_term += t ** 3 - t
        i = j + 1
    return ranks, tie_term


def _ndtr(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


@dataclass(frozen=True)
class MannWhitneyResult:
    u: float  # min(U1, U2)
    u1: float
    p: float  # two-sided, normal approximation with tie correction


def mann_whitney_u(a: Sequence[float], b: Sequence[float]) -> MannWhitneyResult:
    n1, n2 = len(a), len(b)
    if n1 == 0 or n2 == 0:
        raise ValueError("both groups must be nonempty")
    ranks, tie_term = _midranks(list(a) + list(b))
    r1 = sum(ranks[:n1])
    u1 = r1 - n1 * (n1 + 1) / 2.0
    u2 = n1 * n2 - u1
    u = min(u1, u2)
    n = n1 + n2
    mu = n1 * n2 / 2.0
    if n > 1:
        var = (n1 * n2 / 12.0) * ((n + 1) - tie_term / (n * (n - 1)))
    else:
        var = 0.0
    if var <= 0.0:
        return MannWhitneyResult(u=u, u1=u1, p=1.0)
    z = min(0.0, (u - mu + 0.5) / math.sqrt(var))
    p = min(1.0, 2.0 * _ndtr(z))
    return MannWhitneyResult(u=u, u1=u1, p=p)


def median(values: Sequence[float]) -> float:
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("empty sample")
    mid = n // 2
    return xs[mid] if n % 2 else (xs[mid - 1] + xs[mid]) / 2.0


def interquartile_range(values: Sequence[float]) -> float:
    xs = sorted(values)
    n = len(xs)
    if n < 2:
        return 0.0

    def quantile(q: float) -> float:
        # inclusive (type-7) linear interpolation
        pos = q * (n - 1)
        lo = int(math.floor(pos))
        hi = min(lo + 1, n - 1)
        frac = pos - lo
        return xs[lo] * (1 - frac) + xs[hi] * frac

    return quantile(0.75) - quantile(0.25)
