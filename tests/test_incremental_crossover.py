"""One-point crossover children on MAX-SAT's delta path, against the full path.

When a parent was scored, `crossover_one_point` builds each child from its
nearer parent with `_child`, whose move is the positions where the child
differs from that parent. A bit-flip mutant of such an unscored child
composes the two moves. Every child and mutant must score as the full
evaluation of an equal vector that carries no provenance, or replay would
change.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from metafold.components import Component, perturb_bitflip, perturb_two_opt, terminate_evaluations
from metafold.env import env_new
from metafold.frameworks import genetic_algorithm
from metafold.problems import onemax, parse_dimacs_cnf
from metafold.solutions import Assignment, BitVector, Permutation, _child, crossover_one_point
from metafold.whitebox import TspMatch, rewrite_to_tsp


def cnf(n, clauses):
    return parse_dimacs_cnf(
        "\n".join([f"p cnf {n} {len(clauses)}"] + [" ".join(map(str, c + [0])) for c in clauses])
    )


def score(problem, sol):
    value, _ = problem.evaluate(sol, env_new(0))
    return value


def full(problem, sol):
    return score(problem, BitVector(sol.bits))


def moved(sol):
    """The positions where `sol` differs from the parent whose memo it carries."""
    return set(sol._provenance[1])


@st.composite
def crossover_case(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    var = st.integers(min_value=1, max_value=n)
    literal = var.flatmap(lambda v: st.sampled_from([v, -v]))
    clause = st.one_of(
        st.lists(literal, max_size=5),  # the empty clause included
        literal.map(lambda lit: [lit, lit]),  # a repeated literal
        var.map(lambda v: [v, -v]),  # a tautology
    )
    clauses = draw(st.lists(clause, max_size=25))
    if draw(st.booleans()):
        # a clause of 256 literals or more, one literal repeated: when it is
        # true, the clause's count is past a byte, so the counts are 64-bit
        clauses.append([draw(literal)] * draw(st.integers(256, 300)))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    parents = (draw(bits), draw(bits))
    scored = draw(st.sampled_from([(True, True), (True, False), (False, True)]))
    # mutate sizes, n included: a mutant of all n bits flips every position
    # that the crossover moved too
    ks = draw(st.lists(st.integers(1, n), min_size=1, max_size=3))
    return n, clauses, parents, scored, ks, draw(st.booleans()), draw(st.integers(0, 2**32))


@settings(max_examples=150, deadline=None)
@given(crossover_case())
def test_children_and_mutants_score_as_the_full_path(case):
    n, clauses, (bits_a, bits_b), scored, ks, child_first, seed = case
    problem = cnf(n, clauses)
    a, b = BitVector(bits_a), BitVector(bits_b)
    for parent, was_scored in zip((a, b), scored):
        if was_scored:
            score(problem, parent)
    env = env_new(seed)
    children, env = crossover_one_point()((a, b), env)
    for child in children:
        if child_first:  # then its mutants carry its own memo
            assert score(problem, child) == full(problem, child)
        mutant = child
        for k in ks:  # a mutant of a mutant, and so on, each left unscored
            mutant, env = perturb_bitflip(k)(mutant, env)
            if mutant._provenance is not None:
                memo, _ = mutant._provenance
                # the crossover's parent's memo, the moves composed, or the child's
                assert any(memo is m for m in (a._memo, b._memo, child._memo))
        assert score(problem, mutant) == full(problem, mutant)
        assert score(problem, child) == full(problem, child)


def test_a_position_that_crossover_and_mutate_both_flip_is_back_at_its_old_value():
    problem = cnf(6, [[1, 2], [-3, 4], [5, -6], [-1, -5], [2, 3, 6]])
    a, b = BitVector([0] * 6), BitVector([1] * 6)
    score(problem, a), score(problem, b)
    (c1, c2), env = crossover_one_point()((a, b), env_new(3))
    for child in (c1, c2):
        nearer = a if child._provenance[0] is a._memo else b
        assert moved(child) == {i for i in range(6) if child.packed[i] != nearer.packed[i]}
        # flip every bit: the crossover's positions return to the nearer parent's values
        mutant, env = perturb_bitflip(6)(child, env)
        assert mutant._provenance[0] is nearer._memo
        assert moved(mutant) == set(range(6)) - moved(child)
        assert moved(mutant) == {i for i in range(6) if mutant.packed[i] != nearer.packed[i]}
        assert score(problem, mutant) == full(problem, mutant)


def test_children_of_unscored_parents_carry_no_provenance():
    for problem in (onemax(8), None):
        a, b = BitVector([0, 1] * 4), BitVector([1, 1, 0, 0] * 2)
        if problem is not None:
            score(problem, a), score(problem, b)  # onemax keeps no memo
        children, _ = crossover_one_point()((a, b), env_new(4))
        assert all(c._provenance is None for c in children)


def test_each_child_takes_its_nearer_parent():
    # the parents differ everywhere, so a child is as far from each parent
    # as its cut is from either end
    a = BitVector([0, 0, 0, 0, 0, 0, 0, 0])
    b = BitVector([1, 1, 1, 1, 1, 1, 1, 1])
    problem = cnf(8, [[1, -2], [3, 4, -5], [6, 7, 8]])
    score(problem, a), score(problem, b)
    for seed in range(20):
        (c1, c2), _ = crossover_one_point()((a, b), env_new(seed))
        cut = c1.packed.index(1)  # c1 is a's bits up to the cut, then b's
        nearer_of_c1 = a if 8 - cut <= cut else b
        assert c1._provenance[0] is nearer_of_c1._memo
        assert c2._provenance[0] is (b if nearer_of_c1 is a else a)._memo
        assert len(moved(c1)) == len(moved(c2)) == min(cut, 8 - cut)


def test_only_bit_vector_moves_compose():
    # a two_opt child of an unscored two_opt child carries no provenance
    n = 6
    weights = [[abs(i - j) + (i * j) % 3 for j in range(n)] for i in range(n)]
    tsp = rewrite_to_tsp(TspMatch(n, tuple(map(tuple, weights)), tuple(f"x{k}" for k in range(n))))
    parent = Permutation(range(n))
    score(tsp, parent)
    child, env = perturb_two_opt()(parent, env_new(5))
    assert child._provenance is not None
    grandchild, _ = perturb_two_opt()(child, env)
    assert grandchild._provenance is None
    # nor does a reassign child of an unscored reassign child
    assignment = Assignment(x=1, y=2)
    assignment.__dict__["_memo"] = ("owner", "aux")
    step = _child(assignment, dict(assignment, x=3), ("x", 1))
    assert step._provenance is not None
    assert _child(step, dict(step, y=0), ("y", 2))._provenance is None


def random_3sat(num_vars, num_clauses, seed):
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        variables = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return cnf(num_vars, clauses)


def test_the_ga_scores_only_its_starts_and_first_generation_off_the_delta_path():
    problem = random_3sat(250, 1065, seed=2)
    pop_size, budget = 50, 500
    probe = BitVector([0] * 250)
    score(problem, probe)
    owner = probe._memo[0]  # the token of every memo this problem writes
    paths = []

    def step(sol, env):
        # the seam scores a child whose provenance holds this problem's memo
        # by the delta, and every other vector in full
        provenance = sol._provenance
        paths.append("delta" if provenance and provenance[0][0] is owner else "full")
        return problem.evaluate.step(sol, env)

    evaluate = Component(problem.evaluate.descriptor, step)
    result = genetic_algorithm(
        pop_size, problem.sample_initial, evaluate, 2, crossover_one_point(),
        perturb_bitflip(1), terminate_evaluations(budget), env_new(7),
    )
    assert result.evaluations == len(paths) == budget
    assert paths[:pop_size] == ["full"] * pop_size  # the starts
    assert paths.count("full") <= 2 * pop_size
    assert paths[2 * pop_size:] == ["delta"] * (budget - 2 * pop_size)
    assert result.best_value == full(problem, result.best)
