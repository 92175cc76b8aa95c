"""The generic route's incremental scoring of reassign children against the full path.

`generic_solve`'s reassign move records (the parent's memo, (name, old
value)) on the child of a scored assignment, and its `penalty_sum`
evaluator scores such a child from the per-constraint violation counts
that memo holds, counting again only the constraints that hold `name`.
Either path must give the very float of `objective_value + penalty *
count_violations`, or replay would change; the memo and provenance must
stay invisible to equality, `dict()` and JSON, and no copy carries them.
"""

import copy
import gc
import json
import pickle
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metafold import whitebox
from metafold.env import ComponentContractError, env_new
from metafold.solutions import Assignment, _child
from metafold.whitebox import (
    DEFAULT_PENALTY,
    Constraint,
    ModelDescription,
    Objective,
    Variable,
    count_violations,
    generic_solve,
    objective_value,
)


def generic_parts(model, penalty=DEFAULT_PENALTY):
    """The problem and the reassign move that `generic_solve` builds for `model`."""
    parts = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(whitebox, "_solve", lambda model, problem, move, *rest: parts.append((problem, move)))
        generic_solve(model, 1, env_new(1), penalty)
    return parts[0]


def score(problem, assignment):
    value, _ = problem.evaluate(assignment, env_new(0))
    return value


def full_value(model, assignment, penalty=DEFAULT_PENALTY):
    return objective_value(model, assignment) + penalty * count_violations(model, assignment)


def memo_content(memo):
    """A snapshot of `memo` that a later change to it would not follow."""
    owner, (violations, counts, total, objective) = memo
    return owner, violations, tuple(None if c is None else dict(c) for c in counts), total, objective


@pytest.fixture
def full_counts(monkeypatch):
    """The assignments that the generic evaluators count in full."""
    counted = []
    tally, count = whitebox._tally, whitebox.count_violations

    def counting_tally(constraints, assignment):
        counted.append(dict(assignment))
        return tally(constraints, assignment)

    def counting_count(model, assignment):
        counted.append(dict(assignment))
        return count(model, assignment)

    monkeypatch.setattr(whitebox, "_tally", counting_tally)
    monkeypatch.setattr(whitebox, "count_violations", counting_count)
    return counted


def draw_constraints(draw, names):
    """Up to 5 all_different and table constraints over `names`, whose
    scopes may repeat a variable and whose tables may be empty."""
    scope = st.lists(st.sampled_from(names), min_size=1, max_size=len(names) + 2).map(tuple)
    constraints = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        vs = draw(scope)
        if draw(st.booleans()):
            constraints.append(Constraint("all_different", vs))
        else:
            row = st.lists(st.integers(-3, 6), min_size=len(vs), max_size=len(vs)).map(tuple)
            constraints.append(Constraint("table", vs, tuple(draw(st.lists(row, max_size=6)))))
    return tuple(constraints)


@st.composite
def model_and_walk(draw):
    """A model like `test_fast_paths.small_model` (scopes that repeat a
    variable, negative domains, empty tables), with no objective, a
    linear_sum with non-integer coefficients or a circuit_sum, and a walk
    of moves from its start."""
    n = draw(st.integers(min_value=1, max_value=6))
    objective_type = draw(st.sampled_from([None, "linear_sum", "circuit_sum"]))
    variables = []
    for i in range(n):
        if objective_type == "circuit_sum":  # its values index the n x n weights
            lo = draw(st.integers(0, n - 1))
            hi = draw(st.integers(lo, n - 1))
        else:
            lo = draw(st.integers(min_value=-3, max_value=2))
            hi = lo + draw(st.integers(min_value=0, max_value=4))
        variables.append(Variable(f"x{i}", lo, hi))
    names = tuple(v.name for v in variables)
    constraints = draw_constraints(draw, names)
    objective = None
    if objective_type == "linear_sum":
        coeff = st.sampled_from([0.1, -0.7, 1e-3, 2.5, 1 / 3]) | st.integers(-9, 9).map(float)
        coeffs = draw(st.lists(coeff, min_size=n, max_size=n))
        objective = Objective("linear_sum", names, coeffs=tuple(coeffs))
    elif objective_type == "circuit_sum":
        rows = st.lists(st.integers(0, 20), min_size=n, max_size=n).map(tuple)
        objective = Objective("circuit_sum", names, tuple(draw(st.lists(rows, min_size=n, max_size=n))))
    model = ModelDescription(tuple(variables), constraints, objective)
    penalty = draw(st.sampled_from([DEFAULT_PENALTY, 0.0, 0.3, 7.0]))
    # each step: a reassign move or the child that keeps the moved value;
    # keep the child, drop the parent before scoring the child
    step = st.tuples(st.booleans(), st.sampled_from(names), st.booleans(), st.booleans())
    steps = draw(st.lists(step, min_size=1, max_size=40))
    return model, penalty, steps, draw(st.integers(0, 2**32))


@settings(max_examples=300, deadline=None)
@given(model_and_walk())
def test_every_child_scores_as_the_full_count(case):
    model, penalty, steps, seed = case
    problem, reassign = generic_parts(model, penalty)
    current, env = problem.sample_initial(env_new(seed))
    assert type(current) is Assignment
    assert score(problem, current) == full_value(model, current, penalty)
    for same, name, keep, orphan in steps:
        if same:  # old == new
            child = _child(current, dict(current), (name, current[name]))
        else:
            child, env = reassign(current, env)
        assert child._provenance[0] is current._memo
        memo = current._memo
        before = memo_content(memo)
        if orphan:  # the parent is gone before the child is scored
            current = None
        value = score(problem, child)
        assert value == full_value(model, child, penalty)
        assert value == score(problem, dict(child))
        assert child._memo[1][2] == count_violations(model, child)
        assert memo_content(memo) == before  # the parent's memo is as it was
        if keep or orphan:
            current = child
        else:
            assert current._memo is memo


# x0 appears twice in the all_different, and twice in the second table
REPEATS = ModelDescription(
    (Variable("x0", -2, 1), Variable("x1", -2, 1), Variable("x2", 0, 2)),
    (
        Constraint("all_different", ("x0", "x1", "x0", "x2")),
        Constraint("table", ("x1", "x2"), ((-1, 0), (1, 2))),
        Constraint("table", ("x0", "x2", "x0"), ()),
    ),
    Objective("linear_sum", ("x0", "x1", "x2"), coeffs=(0.1, 0.2, -0.3)),
)


def start(model):
    return Assignment({v.name: v.lo for v in model.variables})


def test_a_walk_of_children_takes_the_delta_after_the_start(full_counts):
    problem, reassign = generic_parts(REPEATS)
    current, env = start(REPEATS), env_new(3)
    score(problem, current)
    assert full_counts == [current]
    for _ in range(60):
        full_counts.clear()
        child, env = reassign(current, env)
        assert score(problem, child) == full_value(REPEATS, dict(child))
        assert full_counts == []
        current = child


def test_the_parent_and_its_memo_are_as_they_were_after_a_child_is_scored():
    problem, _ = generic_parts(REPEATS)
    parent = start(REPEATS)
    score(problem, parent)
    items, memo = dict(parent), parent._memo
    before = memo_content(memo)
    # ("x0", -2) and ("x2", 0) keep the start's value
    for name, new in [("x0", 1), ("x0", -2), ("x1", 1), ("x2", 0)]:
        moved = dict(parent)
        moved[name] = new
        child = _child(parent, moved, (name, parent[name]))
        assert score(problem, child) == full_value(REPEATS, moved)
        assert parent._memo is memo and memo_content(memo) == before
        assert parent == items and parent._provenance is None
        assert (child._memo[1] is memo[1]) is (new == parent[name])


def test_a_child_of_a_collected_parent_takes_the_delta(full_counts):
    problem, _ = generic_parts(REPEATS)
    parent = start(REPEATS)
    score(problem, parent)
    moved = dict(parent)
    moved["x2"] = 2
    child = _child(parent, moved, ("x2", parent["x2"]))
    gone = weakref.ref(parent)
    del parent
    gc.collect()
    assert gone() is None
    full_counts.clear()
    assert score(problem, child) == full_value(REPEATS, moved)
    assert full_counts == []


def test_other_assignments_take_the_full_path(full_counts):
    problem, reassign = generic_parts(REPEATS)
    other_problem, _ = generic_parts(ModelDescription(REPEATS.variables, REPEATS.constraints[:1], None))
    parent = start(REPEATS)
    unscored, env = reassign(parent, env_new(2))  # its parent has no memo yet
    assert unscored._provenance is None
    score(other_problem, parent)
    foreign, env = reassign(parent, env)  # its parent's memo is the other model's
    plain = dict(foreign)
    full_counts.clear()
    for sol in (unscored, foreign, plain):
        assert score(problem, sol) == full_value(REPEATS, dict(sol))
    assert full_counts == [unscored, foreign, plain]
    assert not hasattr(plain, "_memo")


def test_memo_and_provenance_are_invisible():
    problem, reassign = generic_parts(REPEATS)
    parent = start(REPEATS)
    score(problem, parent)
    child, _ = reassign(parent, env_new(8))
    score(problem, child)
    plain = dict(child)
    assert child._provenance is not None and child._memo is not None
    assert child == plain and plain == child and type(dict(child)) is dict
    assert dict(child) == plain and repr(child) == repr(plain)
    assert json.dumps(child) == json.dumps(plain)
    assert json.dumps({"assignment": child}, sort_keys=True) == json.dumps({"assignment": plain}, sort_keys=True)
    for copied in (pickle.loads(pickle.dumps(child)), copy.copy(child), copy.deepcopy(child)):
        assert type(copied) is Assignment and copied == child
        assert copied._provenance is None and copied._memo is None
        assert "_memo" not in vars(copied) and "_provenance" not in vars(copied)


def test_a_solve_prints_a_plain_assignment():
    result, _ = generic_solve(REPEATS, 50, env_new(4))
    assert type(result.assignment) is dict
    assert result.value == objective_value(REPEATS, result.assignment)
    assert result.violations == count_violations(REPEATS, result.assignment)


# a circuit_sum model that is no TSP (it has no all_different), domains 0..2
CIRCUIT = ModelDescription(
    tuple(Variable(name, 0, 2) for name in "abc"),
    (),
    Objective("circuit_sum", ("a", "b", "c"), ((0, 1, 2), (3, 0, 4), (5, 6, 0))),
)
PAIR = ModelDescription(
    (Variable("a", 0, 1), Variable("b", 0, 1)), (), Objective("linear_sum", ("a", "b"), coeffs=(1.0, 2.0))
)


@pytest.mark.parametrize(
    "model, assignment",
    [
        (CIRCUIT, {"a": 0, "b": 1, "c": -1}),  # below the domain: it read weights[-1]
        (CIRCUIT, {"a": 0, "b": 2, "c": True}),  # a bool: it was read as 1
        (PAIR, {"a": 0, "c": 1}),  # not the model's variables: it raised KeyError
        (CIRCUIT, Assignment({"a": 0, "b": 1, "c": 3})),  # above the domain
        (CIRCUIT, {"a": 0, "b": 1.0, "c": 2}),  # a float
    ],
)
def test_an_assignment_that_is_not_the_models_is_refused(model, assignment):
    problem, _ = generic_parts(model)
    with pytest.raises(ComponentContractError):
        score(problem, assignment)


def test_a_child_scored_by_another_constraint_free_model_is_still_checked():
    # both models have the one empty constraints tuple, so the memo's owner
    # must be something each solve makes for itself
    wide = ModelDescription(
        tuple(Variable(name, -1, 2) for name in "abc"),
        (),
        Objective("linear_sum", ("a", "b", "c"), coeffs=(1.0, 1.0, 1.0)),
    )
    assert wide.constraints is CIRCUIT.constraints
    wide_problem, _ = generic_parts(wide)
    circuit_problem, _ = generic_parts(CIRCUIT)
    parent = Assignment({"a": 0, "b": 1, "c": 2})
    score(wide_problem, parent)
    child = _child(parent, parent, ("c", 2))
    child["c"] = -1  # in wide's domain, not in CIRCUIT's
    with pytest.raises(ComponentContractError):
        score(circuit_problem, child)


EXACT = 2**53


@st.composite
def integral_model_and_walk(draw):
    """A model with negative domains, tables and all_different, whose
    linear_sum has integer coefficients and may list a variable more than
    once. One coefficient puts the bound, the sum of |coefficient| times
    the larger of |lo| and |hi|, just below 2^53 or at or just above it.
    Returns the model, whether the bound is below 2^53, and a walk: for
    each step, whether the child keeps the moved value."""
    n = draw(st.integers(min_value=1, max_value=6))
    variables = []
    for i in range(n):
        lo = draw(st.integers(min_value=-3, max_value=2))
        hi = lo + draw(st.integers(min_value=0, max_value=4))
        variables.append(Variable(f"x{i}", lo, hi or 1))  # no domain 0..0, so every reach is >= 1
    reach = {v.name: max(abs(v.lo), abs(v.hi)) for v in variables}
    names = tuple(reach)
    vs = tuple(draw(st.lists(st.sampled_from(names), min_size=1, max_size=n + 3)))
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=len(vs), max_size=len(vs)))
    big = draw(st.integers(0, len(vs) - 1))
    rest = sum(abs(c) * reach[name] for k, (c, name) in enumerate(zip(coeffs, vs)) if k != big)
    below = draw(st.booleans())
    r = reach[vs[big]]
    # the largest magnitude whose bound is below 2^53, or the least whose bound is not
    magnitude = (EXACT - 1 - rest) // r if below else -((rest - EXACT) // r)
    coeffs[big] = magnitude * draw(st.sampled_from([1, -1]))
    assert (rest + magnitude * r < EXACT) is below
    objective = Objective("linear_sum", vs, coeffs=tuple(map(float, coeffs)))
    model = ModelDescription(tuple(variables), draw_constraints(draw, names), objective)
    steps = draw(st.lists(st.booleans(), min_size=1, max_size=40))
    return model, below, steps, draw(st.integers(0, 2**32))


@settings(max_examples=300, deadline=None)
@given(integral_model_and_walk())
def test_an_integral_linear_sum_scores_every_child_as_the_full_path(case):
    model, below, steps, seed = case
    problem, reassign = generic_parts(model)
    current, env = problem.sample_initial(env_new(seed))
    obj = model.objective

    def exact(assignment):
        return sum(int(c) * assignment[name] for c, name in zip(obj.coeffs, obj.vars))

    assert score(problem, current) == full_value(model, current)
    for same in steps:
        if same:
            child = _child(current, dict(current), (obj.vars[0], current[obj.vars[0]]))
        else:
            child, env = reassign(current, env)
        value = score(problem, child)
        assert value == full_value(model, child)
        assert child._memo[1][3] == (exact(child) if below else None)
        current = child


def count_objective_calls(monkeypatch, model, moves=60):
    """The calls to objective_value while a start and `moves` reassign
    children of it are scored, each child from its parent."""
    problem, reassign = generic_parts(model)
    calls = []
    full = whitebox.objective_value

    def counting(model, assignment):
        calls.append(dict(assignment))
        return full(model, assignment)

    monkeypatch.setattr(whitebox, "objective_value", counting)
    current, env = start(model), env_new(5)
    score(problem, current)
    starts = len(calls)
    for _ in range(moves):
        child, env = reassign(current, env)
        assert score(problem, child) == full_value(model, dict(child))
        current = child
    return starts, len(calls) - starts


def with_objective(vs, coeffs, lo=-2, hi=1):
    """REPEATS' constraints with a linear_sum of `coeffs` over `vs`, each
    variable's domain lo..hi."""
    variables = tuple(Variable(v.name, lo, hi) for v in REPEATS.variables)
    return ModelDescription(variables, REPEATS.constraints, Objective("linear_sum", vs, coeffs=coeffs))


def test_an_integral_linear_sum_under_the_bound_is_computed_only_for_the_start(monkeypatch):
    model = with_objective(("x0", "x1", "x2", "x0"), (3.0, -2.0, 7.0, -1.0))
    assert count_objective_calls(monkeypatch, model) == (1, 0)


@pytest.mark.parametrize(
    "model",
    [
        # 2^50 over 0..10: the bound is 10 * 2^50, above 2^53
        with_objective(("x0", "x1", "x2"), (2.0**50, 1.0, 1.0), lo=0, hi=10),
        # one fractional coefficient
        with_objective(("x0", "x1", "x2", "x0"), (3.0, -2.0, 0.5, -1.0)),
        ModelDescription(REPEATS.variables, REPEATS.constraints, None),
        CIRCUIT,
    ],
    ids=["over-the-bound", "fractional", "no-objective", "circuit-sum"],
)
def test_any_other_objective_is_computed_for_every_child(monkeypatch, model):
    assert count_objective_calls(monkeypatch, model) == (1, 60)
