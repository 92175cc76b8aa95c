"""The hot-path implementations against the plain formulas they replaced.

Each reference below is the straightforward version of a step that the
library now computes faster; the fast version must agree with it exactly,
RNG counter included, or replay would change.
"""

import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metafold.components import (
    FRAMEWORK_KEYS,
    K_EVALUATIONS,
    perturb_bitflip,
    perturb_swap,
    perturb_two_opt,
)
from metafold.env import (
    EnvKey,
    EnvValue,
    Environment,
    RngState,
    _raw64,
    env_new,
    rng_below,
    rng_bits,
    rng_uniform,
)
from metafold.problems import parse_dimacs_cnf, trap
from metafold.solutions import (
    BitVector,
    Permutation,
    SolutionFormatError,
    _two_cuts,
    crossover_one_point,
    sample_bits,
    sample_permutation,
    solution_digest,
    solution_from_json,
    solution_to_json,
)
from metafold.whitebox import (
    DEFAULT_PENALTY,
    Constraint,
    ModelDescription,
    Objective,
    SolveResult,
    Variable,
    count_violations,
    generic_solve,
    objective_value,
)

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


near_the_end = st.integers(min_value=0, max_value=4200).map(lambda to_end: (1 << 64) - 1 - to_end)


@settings(max_examples=80, deadline=None)
@given(
    seed=seeds,
    counter=st.one_of(counters, near_the_end),
    count=st.integers(min_value=0, max_value=4096),
)
def test_rng_bits_equals_rng_below_loop_of_two(seed, counter, count):
    # near the end of the stream both raise the same ValueError, or neither does
    env = Environment(entries={}, rng=RngState(seed, counter))
    expected = outcome(ref_below_loop, env, 2, count)
    got = outcome(rng_bits, env, count)
    if expected is ValueError:
        assert got is ValueError
    else:
        assert got[0] == bytes(expected[0]) and got[1].rng == expected[1].rng


@pytest.mark.parametrize("counter", [0, 12345, (1 << 64) - 2**20, (1 << 64) - 2**20 + 1])
def test_rng_bits_equals_rng_below_loop_of_two_past_the_cached_counts(counter):
    env = Environment(entries={}, rng=RngState(99, counter))
    expected = outcome(ref_below_loop, env, 2, 2**20)
    got = outcome(rng_bits, env, 2**20)
    if expected is ValueError:
        assert got is ValueError and counter > (1 << 64) - 1 - 2**20
    else:
        assert got[0] == bytes(expected[0]) and got[1].rng == expected[1].rng


def test_rng_bits_keeps_its_cache_under_its_byte_cap():
    # up to 8 counts of at most 4096 bits stay cached, three ints of 16
    # bytes a bit each, which an int stores 30 bits to 4 bytes: 1.6 MiB at
    # most, however many counts are drawn
    cap = 8 * 3 * (16 * 4096 * 32 // 30 + 64)
    env = env_new(1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for count in [*range(4096, 4000, -1), 5000, 9000, 2**16]:
            rng_bits(env, count)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # most of the last 8 counts drawn are held (a test before may have drawn one)
    assert 6 * 3 * 16 * 4001 < held <= cap


def test_rng_bits_rejects_a_negative_count():
    with pytest.raises(ValueError):
        rng_bits(env_new(1), -1)


def test_every_put_and_draw_returns_an_environment_and_keeps_the_source():
    key = EnvKey("a", "b")
    env = env_new(3).put(key, EnvValue.of_int(0))
    entries, before = env.entries, dict(env.entries)
    derived = [
        env.put(key, EnvValue.of_int(1)),
        env.put_many({key: EnvValue.of_int(2)}),
        rng_uniform(env)[1],
        rng_below(env, 5)[1],
        rng_bits(env, 4)[1],
    ]
    for out in derived:
        assert type(out) is Environment
    assert env.entries is entries and entries == before
    assert env.rng == RngState(3, 0)


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
    value, _ = problem.evaluate(BitVector(bits), env_new(0))
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
    sol, env = BitVector(bits), env_new(seed)
    out, out_env = perturb_bitflip(k)(sol, env)
    ref, ref_env = ref_bitflip(k, sol, env)
    assert out == ref
    assert out_env == ref_env


def ref_two_cuts(env, n):
    i, env = rng_below(env, n)
    j, env = rng_below(env, n - 1)
    if j >= i:
        j += 1
    if i > j:
        i, j = j, i
    return (i, j), env


@settings(max_examples=150, deadline=None)
@given(
    n=st.one_of(st.integers(min_value=2, max_value=64), st.sampled_from([2**32, 2**63 + 1, 2**64])),
    seed=seeds,
    counter=counters,
)
def test_two_cuts_equals_the_inline_draw(n, seed, counter):
    env = Environment(entries={}, rng=RngState(seed, counter))
    (i, j), out = _two_cuts(env, n)
    (ref_i, ref_j), ref_out = ref_two_cuts(env, n)
    assert (i, j) == (ref_i, ref_j) and 0 <= i < j < n
    assert out.rng == ref_out.rng
    if n <= 64:  # swap exchanges the drawn pair, in either order
        order = list(range(n))
        order[i], order[j] = order[j], order[i]
        child, swap_env = perturb_swap()(Permutation(range(n)), env)
        assert child.order == tuple(order) and swap_env.rng == ref_out.rng


@pytest.mark.parametrize("bits", [(), (2,), (0, -1), "01"])
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


def ref_bits_to_text(bits):
    return "".join(str(b) for b in bits)


def ref_text_to_bitvector(text):
    return BitVector(tuple(int(c) for c in text))


def ref_digest(text):
    data = json.dumps({"t": "bits", "v": text}, sort_keys=True, separators=(",", ":"))
    h = 0xCBF29CE484222325
    for byte in data.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & ((1 << 64) - 1)
    return h


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=2100))
def test_bit_codec_equals_genexpr_codec(bits):
    sol = BitVector(tuple(bits))
    text = ref_bits_to_text(sol.bits)
    assert solution_to_json(sol) == {"t": "bits", "v": text}
    assert solution_from_json({"t": "bits", "v": text}) == ref_text_to_bitvector(text) == sol
    assert solution_digest(sol) == ref_digest(text)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=2100).flatmap(
        lambda n: st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)
    ),
    st.sampled_from([bool, float]),
)
def test_bit_digest_of_bool_and_float_bits_equals_byte_loop(bits, kind):
    # lengths 1-2100 cross every remainder mod 8 of the 8-character steps
    sol = BitVector(tuple(map(kind, bits)))
    assert solution_digest(sol) == ref_digest(ref_bits_to_text(bits))


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return ValueError


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet=st.characters(max_codepoint=127), max_size=12))
def test_bit_parser_accepts_what_the_genexpr_parser_accepted(text):
    # ASCII only: int() also reads non-ASCII digits, which the wire form
    # never contains and the parser now rejects.
    assert outcome(BitVector.from_string, text) == outcome(ref_text_to_bitvector, text)


def ref_trap(n, b, bits):
    total = 0
    for i in range(0, n, b):
        ones = sum(bits[i : i + b])
        score = b if ones == b else (b - 1 - ones)
        total += b - score
    return total


@st.composite
def trap_case(draw):
    b = draw(st.integers(min_value=1, max_value=6))
    n = b * draw(st.integers(min_value=1, max_value=12))
    value = st.one_of(st.integers(0, 1), st.booleans(), st.sampled_from([0.0, 1.0]))
    bits = draw(st.lists(value, min_size=n, max_size=n))
    return n, b, tuple(bits)


@settings(max_examples=100, deadline=None)
@given(trap_case())
def test_zip_chunked_trap_equals_block_loop(case):
    n, b, bits = case
    value, _ = trap(n, b).evaluate(BitVector(bits), env_new(0))
    assert value == float(ref_trap(n, b, bits))


def ref_count_violations(model, assignment):
    violations = 0
    for con in model.constraints:
        values = [assignment[v] for v in con.vars]
        if con.type == "all_different":
            for i in range(len(values)):
                for j in range(i + 1, len(values)):
                    if values[i] == values[j]:
                        violations += 1
        else:
            if tuple(values) not in con.tuples:
                violations += 1
    return violations


@st.composite
def model_and_assignment(draw):
    names = [f"x{i}" for i in range(draw(st.integers(min_value=1, max_value=10)))]
    domain = st.integers(min_value=-2, max_value=3)
    scope = st.lists(st.sampled_from(names), min_size=1, max_size=8).map(tuple)
    constraints = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        vs = draw(scope)
        if draw(st.booleans()):
            constraints.append(Constraint("all_different", vs))
        else:
            row = st.lists(domain, min_size=len(vs), max_size=len(vs)).map(tuple)
            constraints.append(Constraint("table", vs, tuple(draw(st.lists(row, max_size=8)))))
    coeffs = tuple(draw(st.lists(st.floats(-1e3, 1e3), min_size=len(names), max_size=len(names))))
    model = ModelDescription(
        tuple(Variable(v, -2, 3) for v in names),
        tuple(constraints),
        Objective("linear_sum", tuple(names), coeffs=coeffs),
    )
    assignment = {v: draw(domain) for v in names}
    return model, assignment


@settings(max_examples=150, deadline=None)
@given(model_and_assignment())
def test_count_violations_equals_pairwise_and_linear_scan(case):
    model, assignment = case
    assert count_violations(model, assignment) == ref_count_violations(model, assignment)
    obj = model.objective
    ref_value = float(sum(c * assignment[v] for c, v in zip(obj.coeffs, obj.vars)))
    assert objective_value(model, assignment) == ref_value


def test_table_set_is_derived_not_compared():
    a = Constraint("table", ("x", "y"), ((0, 1), (1, 0)))
    assert a.allowed == {(0, 1), (1, 0)}
    assert a == Constraint("table", ("x", "y"), ((0, 1), (1, 0)))
    assert "allowed" not in repr(a)


def ref_generic_solve(model, budget, env, penalty=DEFAULT_PENALTY):
    """The generic route's own search loop, as it was before it ran on
    `local_search`."""
    if budget <= 0:
        raise ValueError("budget must be positive")
    names = [v.name for v in model.variables]
    domains = {v.name: (v.lo, v.hi) for v in model.variables}

    def sample(env):
        assignment = {}
        for name in names:
            lo, hi = domains[name]
            offset, env = rng_below(env, hi - lo + 1)
            assignment[name] = lo + offset
        return assignment, env

    def score(assignment) -> float:
        return objective_value(model, assignment) + penalty * count_violations(
            model, assignment
        )

    current, env = sample(env)
    current_score = score(current)
    best, best_score = dict(current), current_score
    evaluations = 1
    while evaluations < budget:
        idx, env = rng_below(env, len(names))
        name = names[idx]
        lo, hi = domains[name]
        offset, env = rng_below(env, hi - lo + 1)
        candidate = dict(current)
        candidate[name] = lo + offset
        candidate_score = score(candidate)
        evaluations += 1
        if candidate_score <= current_score:
            current, current_score = candidate, candidate_score
        if current_score < best_score:
            best, best_score = dict(current), current_score
    result = SolveResult(
        assignment=best,
        value=objective_value(model, best),
        violations=count_violations(model, best),
        route="generic",
    )
    return result, env


@st.composite
def small_model(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    variables = []
    for i in range(n):
        lo = draw(st.integers(min_value=-2, max_value=2))
        variables.append(Variable(f"x{i}", lo, lo + draw(st.integers(min_value=0, max_value=4))))
    names = [v.name for v in variables]
    scope = st.lists(st.sampled_from(names), min_size=1, max_size=n).map(tuple)
    constraints = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        vs = draw(scope)
        if draw(st.booleans()):
            constraints.append(Constraint("all_different", vs))
        else:
            row = st.lists(st.integers(-2, 6), min_size=len(vs), max_size=len(vs)).map(tuple)
            constraints.append(Constraint("table", vs, tuple(draw(st.lists(row, max_size=6)))))
    objective = None
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-9, 9).map(float), min_size=n, max_size=n))
        objective = Objective("linear_sum", tuple(names), coeffs=tuple(coeffs))
    return ModelDescription(tuple(variables), tuple(constraints), objective)


@settings(max_examples=200, deadline=None)
@given(model=small_model(), budget=st.integers(min_value=1, max_value=80), seed=seeds)
def test_generic_route_on_local_search_equals_its_own_loop(model, budget, seed):
    solved, env = generic_solve(model, budget, env_new(seed))
    ref, ref_env = ref_generic_solve(model, budget, env_new(seed))
    assert solved == ref
    assert env.rng == ref_env.rng
    # The loop kept its counters outside the Environment; local_search
    # publishes them, so the final env also carries the framework.* keys,
    # as the TSP route's already did.
    assert ref_env.entries == {}
    assert K_EVALUATIONS in env.entries and set(env.entries) <= FRAMEWORK_KEYS


@pytest.mark.parametrize("vars_", [(), ("x",)])
def test_constraint_over_fewer_than_two_variables_reads_a_tuple(vars_):
    con = Constraint("table", vars_, (tuple(range(len(vars_))),))
    assert con.values_of({"x": 0, "y": 1}) == tuple(range(len(vars_)))


def checked(sol):
    """The same vector through its public, checked constructor."""
    return BitVector(sol.bits) if isinstance(sol, BitVector) else Permutation(sol.order)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=2, max_value=64), seed=seeds, k=st.sampled_from([1, 3]))
def test_unchecked_producers_build_what_the_checked_constructor_builds(n, seed, k):
    env = env_new(seed)
    bits, env = sample_bits(n)(env)
    other, env = sample_bits(n)(env)
    order, env = sample_permutation(n)(env)
    outputs = [bits, other, order]
    outputs.append(perturb_bitflip(min(k, n))(bits, env)[0])
    outputs.extend(crossover_one_point()((bits, other), env)[0])
    outputs.append(perturb_swap()(order, env)[0])
    outputs.append(perturb_two_opt()(order, env)[0])
    for sol in outputs:
        assert type(sol) is type(checked(sol))
        assert sol == checked(sol) and hash(sol) == hash(checked(sol))


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: BitVector([0, 2]), ValueError),
        (lambda: BitVector.from_string("012"), ValueError),
        (lambda: Permutation((0, 0, 1)), ValueError),
        (lambda: Permutation([1, 2]), ValueError),
        (lambda: solution_from_json({"t": "perm", "v": [0, 2]}), SolutionFormatError),
        (lambda: solution_from_json({"t": "bits", "v": "2"}), SolutionFormatError),
    ],
)
def test_public_constructors_still_check(build, error):
    with pytest.raises(error):
        build()
