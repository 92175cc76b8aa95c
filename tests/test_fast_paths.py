"""The hot-path implementations against the plain formulas they replaced.

Each reference below is the straightforward version of a step that the
library now computes faster; the fast version must agree with it exactly,
RNG counter included, or replay would change.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TrackingEnvironment, tracking_env
from metafold.components import perturb_bitflip
from metafold.env import (
    EnvKey,
    EnvValue,
    Environment,
    RngState,
    _raw64,
    env_new,
    rng_below,
    rng_below_many,
    rng_uniform,
)
from metafold.problems import parse_dimacs_cnf
from metafold.solutions import BitVector

seeds = st.integers(min_value=0, max_value=(1 << 64) - 1)
counters = st.integers(min_value=0, max_value=1 << 62)


def ref_rng_below(env, n):
    limit = (1 << 64) - ((1 << 64) % n)
    counter = env.rng.counter
    while True:
        raw = _raw64(env.rng.seed, counter)
        counter += 1
        if raw < limit:
            return raw % n, Environment(env.entries, RngState(env.rng.seed, counter))


def ref_below_loop(env, n, count):
    values = []
    for _ in range(count):
        v, env = ref_rng_below(env, n)
        values.append(v)
    return values, env


@settings(max_examples=60, deadline=None)
@given(
    seed=seeds,
    counter=counters,
    n=st.sampled_from([2, 3, 2**63 + 1]),
    count=st.integers(min_value=0, max_value=40),
)
def test_rng_below_many_equals_rng_below_loop(seed, counter, n, count):
    env = Environment(entries={}, rng=RngState(seed, counter))
    values, out = rng_below_many(env, n, count)
    ref_values, ref_out = ref_below_loop(env, n, count)
    assert values == ref_values
    assert out.rng == ref_out.rng
    looped = []
    for _ in range(count):
        v, env = rng_below(env, n)
        looped.append(v)
    assert looped == ref_values
    assert env.rng == ref_out.rng


def test_rng_below_many_counts_rejections():
    # n = 2**63 + 1 rejects almost half of all raw draws, so 64 values must
    # consume more than 64 counter steps, exactly as the loop does.
    env = env_new(5)
    _, out = rng_below_many(env, 2**63 + 1, 64)
    _, ref_out = ref_below_loop(env, 2**63 + 1, 64)
    assert out.rng.counter == ref_out.rng.counter > 64


def test_rng_below_many_rejects_bad_arguments():
    with pytest.raises(ValueError):
        rng_below_many(env_new(1), 0, 3)
    with pytest.raises(ValueError):
        rng_below_many(env_new(1), 2, -1)


def test_copies_keep_subclass_and_its_fields():
    env = tracking_env(3)
    key = EnvKey("a", "b")
    derived = [
        env.put(key, EnvValue.of_int(1)),
        env.put_many({key: EnvValue.of_int(2)}),
        rng_uniform(env)[1],
        rng_below(env, 5)[1],
        rng_below_many(env, 5, 4)[1],
    ]
    for out in derived:
        assert isinstance(out, TrackingEnvironment)
        assert out.log is env.log
    assert env.entries == {}  # the source is never mutated


def test_put_many_equals_successive_puts():
    a, b = EnvKey("x", "a"), EnvKey("x", "b")
    env = env_new(2).put(a, EnvValue.of_int(0))
    updates = {a: EnvValue.of_real(1.5), b: EnvValue.of_bool(True)}
    one = env.put_many(updates)
    two = env.put(a, updates[a]).put(b, updates[b])
    assert one == two
    assert list(one.entries) == list(two.entries)


def ref_maxsat(clauses, bits):
    unsat = 0
    for clause in clauses:
        for lit in clause:
            bit = bits[abs(lit) - 1]
            if (lit > 0 and bit) or (lit < 0 and not bit):
                break
        else:
            unsat += 1
    return unsat


@st.composite
def cnf_and_assignment(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    literal = st.integers(min_value=1, max_value=n).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    clauses = draw(st.lists(st.lists(literal, max_size=5), max_size=30))
    bits = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return n, clauses, bits


@settings(max_examples=100, deadline=None)
@given(cnf_and_assignment())
def test_compiled_maxsat_equals_clause_loop(case):
    n, clauses, bits = case
    text = "\n".join(
        [f"p cnf {n} {len(clauses)}"] + [" ".join(map(str, c + [0])) for c in clauses]
    )
    problem = parse_dimacs_cnf(text)
    value, _ = problem.evaluate(BitVector.of(bits), env_new(0))
    assert value == ref_maxsat(problem.metadata["clauses"], bits)


def ref_bitflip(k, sol, env):
    n = len(sol)
    chosen = set()
    while len(chosen) < k:
        idx, env = rng_below(env, n)
        chosen.add(idx)
    return BitVector(tuple(b ^ 1 if i in chosen else b for i, b in enumerate(sol.bits))), env


@settings(max_examples=60, deadline=None)
@given(
    k=st.sampled_from([1, 3, 8]),
    bits=st.lists(st.integers(0, 1), min_size=8, max_size=64),
    seed=seeds,
)
def test_bitflip_equals_tuple_rebuild(k, bits, seed):
    sol, env = BitVector.of(bits), env_new(seed)
    out, out_env = perturb_bitflip(k)(sol, env)
    ref, ref_env = ref_bitflip(k, sol, env)
    assert out == ref
    assert out_env == ref_env


@pytest.mark.parametrize("bits", [(), (2,), (0, -1)])
def test_bitvector_still_rejects(bits):
    with pytest.raises(ValueError):
        BitVector(bits)


def ref_bits_valid(bits):
    return len(bits) >= 1 and not any(b not in (0, 1) for b in bits)


@given(
    st.lists(
        st.one_of(st.integers(-2, 3), st.booleans(), st.floats(allow_nan=True)),
        max_size=6,
    ).map(tuple)
)
def test_bitvector_accepts_what_the_membership_check_accepted(bits):
    try:
        BitVector(bits)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == ref_bits_valid(bits)
