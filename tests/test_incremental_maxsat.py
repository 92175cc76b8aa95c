"""MAX-SAT's incremental scoring of bit-flip children against the full path.

`perturb_bitflip` records (the parent's memo, flipped indices) on the
child of a scored parent, and MAX-SAT scores such a child from the clause
counts that memo holds. Either path must give the same integer as the plain
clause loop, or replay would change; the provenance must stay invisible to
equality, hashing and every serialization, and must keep no chain of
ancestors alive.
"""

import copy
import gc
import pickle
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metafold import problems
from metafold.components import accept_improving, perturb_bitflip, terminate_iterations
from metafold.env import env_new
from metafold.frameworks import local_search
from metafold.problems import onemax, parse_dimacs_cnf, trap
from metafold.solutions import (
    BitVector,
    serialize_solution,
    solution_digest,
    solution_from_json,
    solution_to_json,
)


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


def cnf(n, clauses):
    return parse_dimacs_cnf(
        "\n".join([f"p cnf {n} {len(clauses)}"] + [" ".join(map(str, c + [0])) for c in clauses])
    )


def score(problem, sol):
    value, _ = problem.evaluate(sol, env_new(0))
    return value


def full_path(problem, sol):
    """The value of a vector equal to `sol` that has no provenance."""
    return score(problem, BitVector(sol.packed))


@pytest.fixture
def counted(monkeypatch):
    """The arguments of each call of the full path's `_clause_counts`."""
    calls, clause_counts = [], problems._clause_counts
    monkeypatch.setattr(
        problems, "_clause_counts", lambda *args: calls.append(args) or clause_counts(*args)
    )
    return calls


def scored(counted, problem, sol):
    """The score of `sol`, and whether it took the delta: a child scored
    from its parent's counts makes no `_clause_counts` call, the full path
    one."""
    calls = len(counted)
    value = score(problem, sol)
    assert len(counted) - calls in (0, 1)
    return value, len(counted) == calls


@st.composite
def cnf_and_walk(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    var = st.integers(min_value=1, max_value=n)
    literal = var.flatmap(lambda v: st.sampled_from([v, -v]))
    clause = st.one_of(
        st.lists(literal, max_size=5),  # the empty clause included
        literal.map(lambda lit: [lit, lit]),  # a repeated literal
        var.map(lambda v: [v, -v]),  # a tautology
        literal.map(lambda lit: [lit, -lit, lit]),
    )
    clauses = draw(st.lists(clause, max_size=30))
    bits = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    # each step: k, keep the child, drop the parent before scoring the child
    steps = draw(st.lists(
        st.tuples(st.integers(1, n), st.booleans(), st.booleans()), min_size=1, max_size=40
    ))
    return n, clauses, bits, steps, draw(st.integers(0, 2**32))


@settings(max_examples=150, deadline=None)
@given(cnf_and_walk())
def test_every_child_scores_as_the_full_path_and_the_clause_loop(case):
    n, clauses, bits, steps, seed = case
    problem = cnf(n, clauses)
    env = env_new(seed)
    current = BitVector(bits)
    assert score(problem, current) == ref_maxsat(clauses, bits)
    for k, keep, orphan in steps:
        child, env = perturb_bitflip(k)(current, env)
        if orphan:  # the parent is gone before the child is scored
            current = None
        value = score(problem, child)
        assert value == full_path(problem, child) == ref_maxsat(clauses, child.bits)
        if keep or orphan:
            current = child


def test_a_walk_of_single_flips_takes_the_delta_after_the_start(counted):
    problem = cnf(3, [[1, -2], [2, 3], [-1, -3], [1, 2, 3]])
    env = env_new(4)
    current = BitVector([0, 0, 0])
    assert scored(counted, problem, current) == (ref_maxsat(problem.metadata["clauses"], current.bits), False)
    for _ in range(20):
        child, env = perturb_bitflip(1)(current, env)
        assert scored(counted, problem, child) == (ref_maxsat(problem.metadata["clauses"], child.bits), True)
        current = child


def test_two_problems_of_one_size_share_no_memo(counted):
    a = cnf(3, [[1], [2], [3]])
    b = cnf(3, [[-1], [-2], [-3], [-1, -2]])
    parent = BitVector([1, 0, 1])
    env = env_new(5)
    warm, env = perturb_bitflip(1)(parent, env)  # of an unscored parent: no provenance
    score(a, parent), score(a, warm)
    child, env = perturb_bitflip(2)(parent, env)
    # the parent's memo is a's
    assert scored(counted, b, child) == (ref_maxsat(b.metadata["clauses"], child.bits), False)
    assert scored(counted, a, child) == (ref_maxsat(a.metadata["clauses"], child.bits), True)
    score(b, parent)  # the parent's memo is b's now
    other, env = perturb_bitflip(1)(parent, env)
    assert scored(counted, a, other) == (ref_maxsat(a.metadata["clauses"], other.bits), False)


def test_a_child_of_an_unscored_parent_takes_the_full_path(counted):
    problem = cnf(4, [[1, 2], [-3], [4, -1]])
    child, _ = perturb_bitflip(2)(BitVector([1, 1, 0, 0]), env_new(6))
    assert scored(counted, problem, child) == (ref_maxsat(problem.metadata["clauses"], child.bits), False)


def test_a_decoded_child_takes_the_full_path(counted):
    problem = cnf(4, [[1, 2], [-3], [4, -1]])
    parent = BitVector([1, 1, 0, 0])
    env = env_new(7)
    warm, env = perturb_bitflip(1)(parent, env)
    score(problem, parent), score(problem, warm)
    child, _ = perturb_bitflip(1)(parent, env)
    decoded = solution_from_json(solution_to_json(child))
    assert decoded._provenance is None
    decoded_value, decoded_took_the_delta = scored(counted, problem, decoded)
    value, took_the_delta = scored(counted, problem, child)
    assert decoded_value == value and not decoded_took_the_delta and took_the_delta


def test_provenance_and_memo_are_invisible():
    problem = cnf(5, [[1, -2], [3], [-4, 5]])
    parent = BitVector([1, 0, 1, 0, 1])
    score(problem, parent)
    child, _ = perturb_bitflip(2)(parent, env_new(8))
    score(problem, child)
    plain = BitVector(child.packed)
    assert child._provenance is not None and plain._provenance is None
    assert child == plain and hash(child) == hash(plain) and repr(child) == repr(plain)
    assert solution_to_json(child) == solution_to_json(plain)
    assert serialize_solution(child) == serialize_solution(plain)
    assert solution_digest(child) == solution_digest(plain)
    for copied in (pickle.loads(pickle.dumps(child)), copy.copy(child), copy.deepcopy(child)):
        assert copied == child
        assert copied._provenance is None and copied._memo is None


def test_a_child_of_a_fully_scored_parent_leaves_the_parent_as_it_was(counted):
    problem = cnf(4, [[1, 2], [-3], [4, -1], [2, 3, -4]])
    parent = BitVector([1, 0, 1, 0])
    assert scored(counted, problem, parent) == (ref_maxsat(problem.metadata["clauses"], parent.bits), False)
    memo = parent._memo
    child, _ = perturb_bitflip(2)(parent, env_new(11))
    assert scored(counted, problem, child) == (ref_maxsat(problem.metadata["clauses"], child.bits), True)
    assert parent._memo is memo


def test_only_a_child_of_a_maxsat_scored_parent_carries_provenance():
    for problem, carries in ((onemax(8), False), (trap(8, 4), False), (cnf(8, [[1, -2]]), True)):
        parent = BitVector([0, 1] * 4)
        score(problem, parent)
        child, _ = perturb_bitflip(2)(parent, env_new(12))
        assert (child._provenance is not None) is carries


def evaluator_closure(problem):
    """The `value` function that the problem's evaluate step calls."""
    return next(
        cell.cell_contents for cell in problem.evaluate.step.__closure__
        if getattr(cell.cell_contents, "__name__", None) == "value"
    )


def test_no_evaluator_outlives_its_problem():
    problem = cnf(3, [[1, -2], [2, 3], [-1, -3]])
    parent = BitVector([1, 0, 1])
    score(problem, parent)
    child, _ = perturb_bitflip(1)(parent, env_new(13))
    score(problem, child)
    value = weakref.ref(evaluator_closure(problem))
    gc.disable()
    try:
        del problem  # the scored parent and child stay alive
        assert value() is None
    finally:
        gc.enable()


def live_bitvectors():
    gc.collect()
    return sum(isinstance(o, BitVector) for o in gc.get_objects())


def test_a_long_search_keeps_no_chain_of_ancestors():
    sat = cnf(30, [[v, -(v % 30 + 1), (v * 7) % 30 + 1] for v in range(1, 31)])
    for problem, steps in ((onemax(256), 20_000), (sat, 5_000)):
        before = live_bitvectors()
        start, env = problem.sample_initial(env_new(9))
        result = local_search(
            start, problem.evaluate, perturb_bitflip(1), accept_improving(),
            terminate_iterations(steps), env,
        )
        assert len(result.trace) == steps
        # the start, the best and the final incumbent, give or take a few
        assert live_bitvectors() - before <= 8
