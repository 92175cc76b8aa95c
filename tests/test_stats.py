"""`mann_whitney_u` against the version that sorted and walked the pooled
sample a second time for its tie term."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from metafold.stats import MannWhitneyResult, _midranks, _ndtr, mann_whitney_u


def ref_midranks(values):
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mid = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = mid
        i = j + 1
    return ranks


def ref_mann_whitney_u(a, b):
    n1, n2 = len(a), len(b)
    if n1 == 0 or n2 == 0:
        raise ValueError("both groups must be nonempty")
    combined = list(a) + list(b)
    ranks = ref_midranks(combined)
    r1 = sum(ranks[:n1])
    u1 = r1 - n1 * (n1 + 1) / 2.0
    u2 = n1 * n2 - u1
    u = min(u1, u2)
    n = n1 + n2
    tie_term = 0.0
    i = 0
    values = sorted(combined)
    while i < n:
        j = i
        while j + 1 < n and values[j + 1] == values[i]:
            j += 1
        t = j - i + 1
        tie_term += t ** 3 - t
        i = j + 1
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


# few distinct values, so that ties are common; NaN too, which compares
# unequal to everything and leaves the sort order to the input order
samples = st.lists(
    st.one_of(st.integers(-3, 3).map(float), st.floats(allow_nan=True, allow_infinity=True)),
    min_size=1, max_size=30,
)


@settings(max_examples=500, deadline=None)
@given(a=samples, b=samples)
def test_one_walk_gives_what_two_walks_gave(a, b):
    assert repr(mann_whitney_u(a, b)) == repr(ref_mann_whitney_u(a, b))


def test_tie_term_counts_every_group():
    # groups of 3, 2 and 1 equal values: (27 - 3) + (8 - 2) + 0 = 30
    ranks, tie_term = _midranks([1.0, 1.0, 2.0, 1.0, 2.0, 5.0])
    assert ranks == [2.0, 2.0, 4.5, 2.0, 4.5, 6.0] and tie_term == 30.0
