"""The TSP route's incremental scoring of 2-opt children against the full path.

`perturb_two_opt` records (the parent's memo, (i, j)) on the child of a
scored parent, and the `circuit_sum` evaluator of `rewrite_to_tsp` scores
such a child from the tour length that memo holds. Either path must give
the same integer as `circuit_sum`, or replay would change, for symmetric
and asymmetric weights alike; the provenance must stay invisible to
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

from metafold.components import accept_improving, perturb_swap, perturb_two_opt, terminate_iterations
from metafold.env import env_new
from metafold.frameworks import local_search
from metafold import whitebox
from metafold.solutions import (
    Permutation,
    _child,
    serialize_solution,
    solution_digest,
    solution_from_json,
    solution_to_json,
)
from metafold.whitebox import TspMatch, circuit_sum, rewrite_to_tsp


def tsp(weights):
    n = len(weights)
    return rewrite_to_tsp(TspMatch(n, tuple(map(tuple, weights)), tuple(f"x{k}" for k in range(n))))


def score(problem, sol):
    value, _ = problem.evaluate(sol, env_new(0))
    return value


def ref_length(weights, order):
    n = len(order)
    return sum(weights[order[k]][order[(k + 1) % n]] for k in range(n))


@pytest.fixture
def full_scores(monkeypatch):
    """The tours that the TSP evaluators score with `circuit_sum`."""
    scored = []

    def counted(weights, order):
        scored.append(order)
        return circuit_sum(weights, order)

    monkeypatch.setattr(whitebox, "circuit_sum", counted)
    return scored


@st.composite
def weights_and_walk(draw):
    n = draw(st.sampled_from([2, 3]) | st.integers(min_value=2, max_value=12))
    entry = st.integers(0, 3) | st.integers(0, 2**40)  # zeros and ties, and wide values
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):  # a symmetric matrix
        rows = [[rows[min(a, b)][max(a, b)] for b in range(n)] for a in range(n)]
    # each step: keep the child, drop the parent before scoring the child
    steps = draw(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=40))
    return rows, steps, draw(st.integers(0, 2**32))


@settings(max_examples=200, deadline=None)
@given(weights_and_walk())
def test_every_child_scores_as_circuit_sum(case):
    weights, steps, seed = case
    problem = tsp(weights)
    two_opt = perturb_two_opt()
    env = env_new(seed)
    current, env = problem.sample_initial(env)
    assert score(problem, current) == ref_length(weights, current.order)
    for keep, orphan in steps:
        child, env = two_opt(current, env)
        if orphan:  # the parent is gone before the child is scored
            current = None
        value = score(problem, child)
        assert value == circuit_sum(weights, child.order) == ref_length(weights, child.order)
        assert value == score(problem, Permutation(child.order))
        if keep or orphan:
            current = child


ASYMMETRIC = [[0, 1, 9, 4, 7], [3, 0, 2, 8, 1], [6, 5, 0, 1, 9], [2, 7, 3, 0, 4], [8, 2, 6, 5, 0]]
SYMMETRIC = [[0, 3, 4, 2, 7], [3, 0, 4, 6, 3], [4, 4, 0, 5, 8], [2, 6, 5, 0, 6], [7, 3, 8, 6, 0]]


def test_a_walk_of_children_takes_the_delta_after_the_start(full_scores):
    for weights in (SYMMETRIC, ASYMMETRIC):
        problem = tsp(weights)
        current, env = Permutation((3, 0, 4, 1, 2)), env_new(4)
        score(problem, current)
        for _ in range(40):
            full_scores.clear()
            child, env = perturb_two_opt()(current, env)
            assert score(problem, child) == ref_length(weights, child.order)
            # only a whole-tour reversal of an asymmetric W is scored in full
            whole = child._provenance[1] == (0, 4)
            assert full_scores == ([child.order] if whole and weights is ASYMMETRIC else [])
            current = child


def test_a_whole_tour_reversal_scores_as_circuit_sum():
    for weights in (SYMMETRIC, ASYMMETRIC, [[0, 5], [1, 0]], [[0, 7], [7, 0]], [[0, 0], [0, 0]]):
        problem = tsp(weights)
        n = len(weights)
        parent = Permutation(range(n))
        score(problem, parent)
        child = _child(parent, parent.order[::-1], (0, n - 1))
        assert score(problem, child) == ref_length(weights, child.order)


def test_two_problems_of_one_size_share_no_memo(full_scores):
    a, b = tsp(SYMMETRIC), tsp(ASYMMETRIC)
    parent = Permutation((0, 1, 2, 3, 4))
    score(a, parent)
    child, _ = perturb_two_opt()(parent, env_new(5))
    full_scores.clear()
    assert score(b, child) == ref_length(ASYMMETRIC, child.order)
    assert full_scores == [child.order]  # the parent's memo is a's
    score(a, parent)
    full_scores.clear()
    assert score(a, child) == ref_length(SYMMETRIC, child.order)
    assert full_scores == []


def test_other_tours_take_the_full_path(full_scores):
    problem = tsp(ASYMMETRIC)
    parent = Permutation((4, 2, 0, 3, 1))
    env = env_new(7)
    unscored, env = perturb_two_opt()(parent, env)
    full_scores.clear()
    assert score(problem, unscored) == ref_length(ASYMMETRIC, unscored.order)
    assert full_scores == [unscored.order]  # its parent had no memo yet
    score(problem, parent)
    swapped, env = perturb_swap()(parent, env)
    child, env = perturb_two_opt()(parent, env)
    decoded = solution_from_json(solution_to_json(child))
    copies = [pickle.loads(pickle.dumps(child)), copy.copy(child), copy.deepcopy(child)]
    for sol in [decoded] + copies:
        assert sol == child and sol._provenance is None and sol._memo is None
    assert swapped._provenance is None
    others = [swapped, decoded] + copies
    full_scores.clear()
    for sol in others:
        assert score(problem, sol) == ref_length(ASYMMETRIC, sol.order)
    assert full_scores == [sol.order for sol in others]
    full_scores.clear()
    assert score(problem, child) == ref_length(ASYMMETRIC, child.order)
    assert full_scores == []


def test_a_child_of_a_collected_parent_takes_the_delta(full_scores):
    for weights in (SYMMETRIC, ASYMMETRIC):
        problem = tsp(weights)
        parent = Permutation((1, 0, 2, 3, 4))
        score(problem, parent)
        child, _ = perturb_two_opt()(parent, env_new(7))
        assert child._provenance[1] != (0, 4)  # not a whole-tour reversal
        gone = weakref.ref(parent)
        del parent
        gc.collect()
        assert gone() is None
        full_scores.clear()
        assert score(problem, child) == ref_length(weights, child.order)
        assert full_scores == []


def evaluator_closure(problem):
    """The `value` function that the problem's evaluate step calls."""
    return next(
        cell.cell_contents for cell in problem.evaluate.step.__closure__
        if getattr(cell.cell_contents, "__name__", None) == "value"
    )


def test_no_evaluator_outlives_its_problem():
    problem = tsp(ASYMMETRIC)
    parent = Permutation((4, 2, 0, 3, 1))
    score(problem, parent)
    child, _ = perturb_two_opt()(parent, env_new(13))
    score(problem, child)
    value = weakref.ref(evaluator_closure(problem))
    gc.disable()
    try:
        del problem  # the scored parent and child stay alive
        assert value() is None
    finally:
        gc.enable()


def test_provenance_and_memo_are_invisible():
    problem = tsp(SYMMETRIC)
    parent = Permutation((2, 4, 1, 0, 3))
    score(problem, parent)
    child, _ = perturb_two_opt()(parent, env_new(8))
    score(problem, child)
    plain = Permutation(child.order)
    assert child._provenance is not None and child._memo is not None
    assert plain._provenance is None and plain._memo is None
    assert child == plain and hash(child) == hash(plain) and repr(child) == repr(plain)
    assert solution_to_json(child) == solution_to_json(plain)
    assert serialize_solution(child) == serialize_solution(plain)
    assert solution_digest(child) == solution_digest(plain)
    for copied in (pickle.loads(pickle.dumps(child)), copy.copy(child), copy.deepcopy(child)):
        assert copied == child
        assert copied._provenance is None and copied._memo is None


def live_permutations():
    gc.collect()
    return sum(isinstance(o, Permutation) for o in gc.get_objects())


def test_a_long_search_keeps_no_chain_of_ancestors():
    n = 30
    problem = tsp([[(a * 7 + b * 3) % 11 + (a != b) for b in range(n)] for a in range(n)])
    before = live_permutations()
    start, env = problem.sample_initial(env_new(9))
    result = local_search(
        start, problem.evaluate, perturb_two_opt(), accept_improving(),
        terminate_iterations(20_000), env,
    )
    assert len(result.trace) == 20_000
    # the start, the best and the final incumbent, give or take a few
    assert live_permutations() - before <= 8
