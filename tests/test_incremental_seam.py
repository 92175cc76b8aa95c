"""The incremental-scoring seam of `problems.problem_instance`.

An instance built with `delta` keeps `(owner, aux)` as the memo of each
solution it scores, with an owner made for that instance alone, and scores
a child by `delta` only when the child's parent was scored by that same
instance. So a second instance built from the same input (the same CNF
text, the same `TspMatch`, the same model) scores such a child in full,
and gets the value the first instance's delta gets.
"""

import pytest
from test_incremental_generic import generic_parts, score

from metafold import problems, whitebox
from metafold.components import perturb_bitflip, perturb_two_opt
from metafold.env import env_new
from metafold.problems import parse_dimacs_cnf, problem_instance
from metafold.solutions import Assignment, BitVector, Permutation, _child
from metafold.whitebox import Constraint, ModelDescription, Objective, TspMatch, Variable

CNF = "p cnf 4 5\n1 -2 0\n2 3 0\n-1 -3 4 0\n-4 0\n1 2 3 4 0\n"
# an asymmetric W, so only a whole-tour reversal is scored in full
TSP = TspMatch(
    5,
    ((0, 1, 9, 4, 7), (3, 0, 2, 8, 1), (6, 5, 0, 1, 9), (2, 7, 3, 0, 4), (8, 2, 6, 5, 0)),
    ("c0", "c1", "c2", "c3", "c4"),
)
MODEL = ModelDescription(
    (Variable("x", 0, 3), Variable("y", 0, 3), Variable("z", -1, 2)),
    (Constraint("all_different", ("x", "y", "z")), Constraint("table", ("x", "z"), ((0, 1), (2, 2)))),
    Objective("linear_sum", ("x", "y", "z"), coeffs=(0.5, -1.25, 3.0)),
)


# Each case: how to build an instance, a parent, a move, and `in_full`,
# which scores a solution on an instance and tells whether `value` scored it.


def maxsat_case(monkeypatch):
    counted, clause_counts = [], problems._clause_counts
    monkeypatch.setattr(
        problems, "_clause_counts", lambda *args: counted.append(clause_counts(*args)) or counted[-1]
    )

    def in_full(problem, sol):
        counted.clear()
        score(problem, sol)
        return len(counted) == 1 and sol._memo[1][1] is counted[0]

    return (lambda: parse_dimacs_cnf(CNF)), BitVector([1, 0, 1, 0]), perturb_bitflip(1), in_full


def tsp_case(monkeypatch):
    summed, circuit_sum = [], whitebox.circuit_sum
    monkeypatch.setattr(
        whitebox, "circuit_sum", lambda weights, order: summed.append(order) or circuit_sum(weights, order)
    )

    def in_full(problem, sol):
        summed.clear()
        score(problem, sol)
        return summed == [sol.order]

    return (lambda: whitebox.rewrite_to_tsp(TSP)), Permutation((3, 0, 4, 1, 2)), perturb_two_opt(), in_full


def generic_case(monkeypatch):
    tallied, tally = [], whitebox._tally
    monkeypatch.setattr(
        whitebox, "_tally", lambda constraints, a: tallied.append(dict(a)) or tally(constraints, a)
    )

    def in_full(problem, sol):
        tallied.clear()
        score(problem, sol)
        return tallied == [dict(sol)]

    _, reassign = generic_parts(MODEL)
    return (lambda: generic_parts(MODEL)[0]), Assignment({"x": 0, "y": 1, "z": 2}), reassign, in_full


@pytest.mark.parametrize("case", [maxsat_case, tsp_case, generic_case])
def test_a_child_of_another_instance_of_the_same_input_is_scored_in_full(case, monkeypatch):
    make, parent, move, in_full = case(monkeypatch)
    first, second = make(), make()
    assert in_full(first, parent)
    env = env_new(5)
    for _ in range(20):
        twin, _ = move(parent, env)  # the same child, for the first instance
        child, env = move(parent, env)
        assert child._provenance[0] is parent._memo is twin._provenance[0]
        assert in_full(second, child)
        assert child._memo[0] is not parent._memo[0]
        assert score(second, child) == score(first, twin)


def counting_toy(calls, representation="bits", size=4, **metadata):
    """A problem whose `value` and `delta` record each call and return an int score."""

    def value(sol):
        calls.append("value")
        return len(sol) - 1, "full"

    def delta(aux, move, sol):
        calls.append(("delta", aux, move))
        return len(sol) - 2, aux + "+" + move

    return problem_instance("toy", "toy", representation, size, value, delta=delta, **metadata)


def test_delta_runs_only_for_a_child_of_the_same_instance():
    calls = []
    toy, other = counting_toy(calls), counting_toy(calls)
    parent = BitVector([0, 1, 1, 0])
    unscored_child = _child(parent, parent.packed, "a")  # its parent has no memo yet
    assert unscored_child._provenance is None
    assert score(toy, parent) == 3.0 and calls == ["value"]
    assert parent._memo[1] == "full"
    child = _child(parent, parent.packed, "b")
    calls.clear()
    assert score(toy, child) == 2.0
    assert calls == [("delta", "full", "b")] and child._memo[1] == "full+b"
    grandchild = _child(child, child.packed, "c")
    calls.clear()
    assert score(toy, grandchild) == 2.0 and grandchild._memo[1] == "full+b+c"
    calls.clear()
    for sol in (_child(parent, parent.packed, "d"), unscored_child, BitVector(parent.packed)):
        assert score(other, sol) == 3.0 and sol._memo[1] == "full"
    assert calls == ["value"] * 3
    assert parent._memo[1] == "full"  # scoring a child leaves its parent as it was


def test_the_score_comes_back_as_a_float():
    calls = []
    toy = counting_toy(calls)
    parent = BitVector([1, 1, 1, 1])
    full = score(toy, parent)
    by_delta = score(toy, _child(parent, parent.packed, "m"))
    assert calls == ["value", ("delta", "full", "m")]
    assert type(full) is float and type(by_delta) is float


def test_a_plain_dict_is_left_with_no_memo():
    calls = []
    toy = counting_toy(calls, "assignment", 2, domains={"a": (0, 1), "b": (0, 1)})
    plain = {"a": 0, "b": 1}
    assert score(toy, plain) == 1.0
    assert type(plain) is dict and plain == {"a": 0, "b": 1}
    assert not hasattr(plain, "_memo")
    assignment = Assignment(plain)  # an Assignment keeps its memo
    assert score(toy, assignment) == 1.0 and assignment._memo[1] == "full"
    assert score(toy, _child(assignment, plain, "m")) == 0.0
    assert calls == ["value", "value", ("delta", "full", "m")]
