"""Draws read their raw words from blocks of 64, mixed at once and cached.

Every check here compares against the scalar definition, `_raw64`, one
draw at a time: the blocks change how a raw word is computed, never which
word a counter gets, and the sites that thread a counter through several
draws give what a draw-by-draw chain of Environments gives.
"""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metafold import whitebox
from metafold.components import perturb_bitflip
from metafold.env import (
    Environment,
    RngState,
    _raw64,
    _raw_block,
    env_new,
    rng_below,
    rng_uniform,
)
from metafold.frameworks import genetic_algorithm
from metafold.solutions import Assignment, BitVector, _two_cuts
from metafold.whitebox import ModelDescription, Variable

MASK64 = (1 << 64) - 1


def ref_below(env, n):
    limit = (1 << 64) - ((1 << 64) % n)
    seed, counter = env.rng
    while True:
        raw = _raw64(seed, counter)
        counter += 1
        if raw < limit:
            return raw % n, Environment(env.entries, RngState(seed, counter))


def ref_uniform(env):
    seed, counter = env.rng
    value = (_raw64(seed, counter) >> 11) * (2.0 ** -53)
    return value, Environment(env.entries, RngState(seed, counter + 1))


def run_chain(below, uniform, env, draws):
    """The values and counters of `draws` ("u" or a bound n) from `env`, and
    the ValueError's text if the chain runs past the stream's end."""
    out = []
    try:
        for n in draws:
            value, env = uniform(env) if n == "u" else below(env, n)
            out.append((value, env.rng.counter))
    except ValueError as exc:
        out.append(str(exc))
    return out


def test_the_cache_holds_64_blocks():
    # 64 blocks of 64 words, about 62 KB: the bound on the cache's memory
    assert _raw_block.cache_info().maxsize == 64


seeds = st.integers(min_value=0, max_value=MASK64)
# a start within 200 counters of a block boundary, or of the stream's end
near_a_boundary = st.builds(
    lambda block, offset: min(max(block * 64 + offset, 0), MASK64),
    st.integers(min_value=0, max_value=1 << 58),
    st.integers(min_value=-200, max_value=200),
)
near_the_end = st.integers(min_value=0, max_value=200).map(lambda to_end: MASK64 - to_end)
# small bounds, and bounds just above a power of two, which reject nearly
# half the raw draws and so cross block boundaries within one draw
bounds = st.one_of(
    st.integers(min_value=1, max_value=1000),
    st.integers(min_value=1, max_value=64).map(lambda e: (1 << e) // 2 + 1),
    st.just(1 << 64),
)
draws = st.lists(st.one_of(st.just("u"), bounds), max_size=300)


@settings(max_examples=150, deadline=None)
@given(seed=seeds, counter=st.one_of(near_a_boundary, near_the_end), chain=draws)
def test_a_chain_of_draws_equals_the_scalar_reference(seed, counter, chain):
    env = Environment({}, RngState(seed, counter))
    assert run_chain(rng_below, rng_uniform, env, chain) == run_chain(
        ref_below, ref_uniform, env, chain
    )


def test_round_robin_over_more_streams_than_the_cache_holds():
    # 70 streams drawn one draw each in turn evict each other's blocks
    envs = {seed: env_new(seed) for seed in range(70)}
    refs = dict(envs)
    for i in range(150):
        n = "u" if i % 3 == 0 else 1000 + i
        for seed in envs:
            got, envs[seed] = (
                rng_uniform(envs[seed]) if n == "u" else rng_below(envs[seed], n)
            )
            want, refs[seed] = ref_uniform(refs[seed]) if n == "u" else ref_below(refs[seed], n)
            assert got == want
            assert envs[seed] == refs[seed]


def test_threads_drawing_on_their_own_seeds_get_the_serial_values():
    def chain(seed, out):
        env, values = env_new(seed), []
        for i in range(2000):
            value, env = rng_below(env, 3 + i % 50)
            values.append(value)
        out[seed] = (values, env)

    threaded = {}
    threads = [threading.Thread(target=chain, args=(seed, threaded)) for seed in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    serial = {}
    for seed in range(8):
        chain(seed, serial)
    assert threaded == serial


# The sites that draw several times per call thread the counter through
# them and build one Environment: each equals a draw-by-draw reference.


@pytest.mark.parametrize("seed, counter", [(1, 0), (2, 62), (3, 63), (MASK64, 1 << 40)])
@pytest.mark.parametrize("n", [2, 3, 100])
def test_two_cuts_equals_draw_by_draw(seed, counter, n):
    env = Environment({}, RngState(seed, counter))
    i, ref = ref_below(env, n)
    j, ref = ref_below(ref, n - 1)
    assert _two_cuts(env, n) == (((i, j + 1) if j >= i else (j, i)), ref)


def test_two_cuts_past_the_stream_end_raises():
    with pytest.raises(ValueError, match="64-bit unsigned"):
        _two_cuts(Environment({}, RngState(5, MASK64)), 10)


@pytest.mark.parametrize("seed, counter", [(1, 0), (9, 60), (MASK64, 123)])
def test_bitflip_of_8_equals_draw_by_draw(seed, counter):
    sol = BitVector([i % 3 == 0 for i in range(20)])
    env = Environment({}, RngState(seed, counter))
    chosen, ref = set(), env
    while len(chosen) < 8:
        idx, ref = ref_below(ref, 20)
        chosen.add(idx)
    want = bytearray(sol.packed)
    for i in chosen:
        want[i] ^= 1
    out, got = perturb_bitflip(8)(sol, env)
    assert (out.packed, got) == (bytes(want), ref)


def test_reassign_equals_draw_by_draw(monkeypatch):
    variables = (Variable("a", 0, 1), Variable("b", -3, 3), Variable("c", 5, 104))
    model = ModelDescription(variables, (), None)
    captured = []
    # generic_solve hands its reassign move to `_solve`, which here keeps it
    monkeypatch.setattr(
        whitebox, "_solve", lambda model, problem, perturb, *rest: captured.append(perturb)
    )
    whitebox.generic_solve(model, 10, env_new(0))
    (reassign,) = captured
    env = Environment({}, RngState(4, 61))
    parent = Assignment({"a": 0, "b": 0, "c": 5})
    for _ in range(50):
        idx, ref = ref_below(env, len(variables))
        v = variables[idx]
        offset, ref = ref_below(ref, v.hi - v.lo + 1)
        child, env = reassign(parent, env)
        assert (dict(child), env) == ({**parent, v.name: v.lo + offset}, ref)
        parent = child


def test_tournament_equals_draw_by_draw():
    pop_size, size = 7, 3
    population = [BitVector.from_string(format(i, "03b")) for i in range(pop_size)]
    values = [float(i % 4) for i in range(pop_size)]  # ties go to the first drawn
    starts = iter(population)
    terminate_envs, crossed = [], []

    def terminate(sol, env):
        terminate_envs.append(env)
        return len(terminate_envs) > 1, env

    def crossover(pair, env):
        crossed.append((pair, env))
        return pair, env

    genetic_algorithm(
        pop_size, lambda env: (next(starts), env),
        lambda sol, env: (values[population.index(sol)], env),
        size, crossover, lambda sol, env: (sol, env), terminate,
        Environment({}, RngState(6, 50)),
    )

    def tournament(env):
        winner = None
        for _ in range(size):
            idx, env = ref_below(env, pop_size)
            if winner is None or values[idx] < values[winner]:
                winner = idx
        return winner, env

    # neither crossover nor mutate draws, so each pair's tournaments start
    # where the last pair's ended, the first where terminate left the env
    ref = terminate_envs[0]
    assert len(crossed) == (pop_size + 1) // 2
    for (a, b), env in crossed:
        p1, ref = tournament(ref)
        p2, ref = tournament(ref)
        assert (a, b) == (population[p1], population[p2])
        assert env == ref
