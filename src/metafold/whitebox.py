"""Declarative constraint models, TSP pattern matching, and analytic dispatch.

Models expose their structure (variables, constraints, objective) as data,
so the solver can recognize a TSP-shaped model and reroute it to the
dedicated permutation search; anything else falls back to a generic
penalty-based local search over full assignments.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter, mul
from typing import Callable, Dict, FrozenSet, Optional, Tuple

from .components import accept_improving, perturb_two_opt, terminate_evaluations
from .env import (
    ComponentContractError, Environment, ShapeError, _advanced, _below, _new, loads, read,
    read_variant,
)
from .frameworks import FRAMEWORKS
from .problems import ProblemInstance, problem_instance
from .solutions import Permutation, _child


class ModelError(ValueError):
    """Model text violates the schema; message carries the JSON path."""


@dataclass(frozen=True)
class Variable:
    name: str
    lo: int
    hi: int


@dataclass(frozen=True)
class Constraint:
    type: str  # "all_different" | "table"
    vars: Tuple[str, ...]
    tuples: Tuple[Tuple[int, ...], ...] = ()
    # The allowed tuples as a set, for O(1) membership tests.
    allowed: FrozenSet[Tuple[int, ...]] = field(init=False, compare=False, repr=False)
    # Reads the values of `vars` from an assignment, as a tuple.
    values_of: Callable[[Dict[str, int]], Tuple[int, ...]] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self):
        object.__setattr__(self, "allowed", frozenset(self.tuples))
        object.__setattr__(self, "values_of", _values_getter(self.vars))


def _values_getter(names: Tuple[str, ...]) -> Callable[[Dict[str, int]], Tuple[int, ...]]:
    """Reads the values of `names` from an assignment, as a tuple."""
    # itemgetter of one key returns the bare value, and of none it raises
    if len(names) >= 2:
        return itemgetter(*names)
    return lambda assignment: tuple(map(assignment.__getitem__, names))


@dataclass(frozen=True)
class Objective:
    type: str  # "circuit_sum" | "linear_sum"
    vars: Tuple[str, ...]
    weights: Tuple[Tuple[int, ...], ...] = ()
    coeffs: Tuple[float, ...] = ()
    # Reads the values of `vars` from an assignment, as a tuple.
    values_of: Callable[[Dict[str, int]], Tuple[int, ...]] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self):
        object.__setattr__(self, "values_of", _values_getter(self.vars))


@dataclass(frozen=True)
class ModelDescription:
    variables: Tuple[Variable, ...]
    constraints: Tuple[Constraint, ...]
    objective: Optional[Objective]

    def variable(self, name: str) -> Variable:
        for v in self.variables:
            if v.name == name:
                return v
        raise KeyError(name)


_INT64 = 1 << 63  # model integers are 64-bit signed, so a domain size fits one RNG draw


def _int64(x) -> bool:
    return type(x) is int and -_INT64 <= x < _INT64  # a bool is not an int here


def _integer_rows(rows, width: int, path: str) -> Tuple[Tuple[Tuple[int, ...], ...], int]:
    """`rows`, a list of lists of `width` 64-bit integers, as tuples, and
    the least of their entries (0 if there are none); raises ModelError
    naming the first row that is not one."""
    # The checks run at C level over all rows at once; the row loop below
    # runs only to name the first bad row.
    if set(map(type, rows)) <= {list} and set(map(len, rows)) <= {width}:
        flat = list(chain.from_iterable(rows))
        if set(map(type, flat)) <= {int}:  # a bool is not an int here
            low = min(flat, default=0)
            if -_INT64 <= low and max(flat, default=0) < _INT64:
                return tuple(map(tuple, rows)), low
    for j, row in enumerate(rows):
        if type(row) is not list or len(row) != width or not all(map(_int64, row)):
            raise ModelError(f"{path}[{j}] must be an array of {width} 64-bit integers")
    raise AssertionError("the row loop names every row the checks above refuse")


# A model file, as `read` takes it. A constraint's or an objective's shape
# is the one its "type" names. Domain bounds and coefficients are read by
# value checks, and the rows of tables and weights by `_integer_rows`.
_VARS = ("array of", "string")
_MODEL = {
    "variables": ("array of", {"name": "string", "lo": "any", "hi": "any"}),
    "constraints": ("optional", "array"),
    "objective": ("optional", "any"),
}
_CONSTRAINTS = {
    "all_different": {"type": "string", "vars": _VARS},
    "table": {"type": "string", "vars": _VARS, "tuples": "array"},
}
_OBJECTIVES = {
    "circuit_sum": {"type": "string", "vars": _VARS, "weights": "array"},
    "linear_sum": {"type": "string", "vars": _VARS, "coeffs": "array"},
}


def parse_model(text: str) -> ModelDescription:
    """The model that `text` describes; raises ModelError naming the JSON
    path of the first part that breaks the schema."""
    try:
        doc = loads(text)
    except (ValueError, RecursionError) as exc:
        raise ModelError(f"not valid JSON: {exc}") from exc
    try:
        return _model(doc)
    except ShapeError as exc:
        raise ModelError(str(exc)) from None


def _model(doc) -> ModelDescription:
    """The model of `doc`, a JSON value; raises ShapeError or ModelError."""
    declared = {}
    for i, v in enumerate(read(doc, _MODEL, "$")["variables"]):
        path = f"$.variables[{i}]"
        name, lo, hi = v["name"], v["lo"], v["hi"]
        if not _int64(lo) or not _int64(hi) or lo > hi:
            raise ModelError(f"bad domain at {path}: want 64-bit integers lo <= hi")
        if name in declared:
            raise ModelError(f"duplicate variable {name!r} at {path}")
        declared[name] = Variable(name, lo, hi)
    if not declared:
        raise ModelError("$.variables must not be empty")
    variables = tuple(declared.values())

    def read_vars(obj, path):
        vs = tuple(obj["vars"])
        for vn in vs:
            if vn not in declared:
                raise ModelError(f"dangling variable reference {vn!r} at {path}")
        return vs

    constraints = []
    for i, con in enumerate(doc.get("constraints", [])):
        path = f"$.constraints[{i}]"
        if read_variant(con, _CONSTRAINTS, "type", path) is None:
            raise ModelError(f"unknown constraint type {con['type']!r} at {path}")
        vs = read_vars(con, path)
        if con["type"] == "all_different":
            constraints.append(Constraint("all_different", vs))
        else:
            rows, _ = _integer_rows(con["tuples"], len(vs), f"{path}.tuples")
            constraints.append(Constraint("table", vs, rows))

    objective = None
    raw_obj = doc.get("objective")
    if raw_obj is not None:
        path = "$.objective"
        if read_variant(raw_obj, _OBJECTIVES, "type", path) is None:
            raise ModelError(f"unknown objective type {raw_obj['type']!r} at {path}")
        vs = read_vars(raw_obj, path)
        n = len(vs)
        if raw_obj["type"] == "circuit_sum":
            weights, lowest = _integer_rows(raw_obj["weights"], n, f"{path}.weights")
            if len(weights) != n:
                raise ModelError(f"weight matrix must be {n}x{n} at {path}.weights")
            if lowest < 0:
                raise ModelError(f"negative weight at {path}.weights")
            objective = Objective("circuit_sum", vs, weights)
        else:
            coeffs = raw_obj["coeffs"]
            if len(coeffs) != n:
                raise ModelError(f"coeffs/vars length mismatch at {path}")
            for k, x in enumerate(coeffs):
                if type(x) not in (int, float) or not abs(x) <= sys.float_info.max:
                    raise ModelError(f"{path}.coeffs[{k}] must be a finite number")
            coeffs = tuple(map(float, coeffs))
            # |objective| <= sum |coeff| * max(|lo|, |hi|), kept within half the
            # largest float so that no sum can overflow; each term is scaled
            # by that limit, so the bound cannot overflow either
            limit = sys.float_info.max / 2
            reach = (max(abs(declared[vn].lo), abs(declared[vn].hi)) for vn in vs)
            if sum(abs(c) / limit * r for c, r in zip(coeffs, reach)) > 1:
                raise ModelError(f"{path}: linear_sum may exceed {limit:g} in magnitude")
            objective = Objective("linear_sum", vs, coeffs=coeffs)
    return ModelDescription(variables, tuple(constraints), objective)


def _check_circuit_domains(model: ModelDescription) -> None:
    """Raise ModelError unless each circuit_sum variable's domain lies in
    0..n-1, as its values index the n x n weights. A well-formed model may
    break this: `match_tsp` must see such a model to refuse it."""
    obj = model.objective
    if obj is not None and obj.type == "circuit_sum":
        for vn in obj.vars:
            v = model.variable(vn)
            if v.lo < 0 or v.hi >= len(obj.vars):
                raise ModelError(f"domain of {vn!r} exceeds the rows of $.objective.weights")


# ---------------------------------------------------------------------------
# TSP recognition and rewrite


@dataclass(frozen=True)
class TspMatch:
    n: int
    weights: Tuple[Tuple[int, ...], ...]
    variables: Tuple[str, ...]


def match_tsp(model: ModelDescription) -> Optional[TspMatch]:
    """Structural match: n >= 2 variables (2-opt needs two cities), one
    all_different over all of them, every domain exactly 0..n-1, and a
    circuit_sum objective over the same variable list with an n x n matrix."""
    n = len(model.variables)
    if n < 2 or len(model.constraints) != 1:
        return None
    con = model.constraints[0]
    if con.type != "all_different" or set(con.vars) != {v.name for v in model.variables}:
        return None
    if len(con.vars) != n:
        return None
    if any(v.lo != 0 or v.hi != n - 1 for v in model.variables):
        return None
    obj = model.objective
    if obj is None or obj.type != "circuit_sum":
        return None
    if set(obj.vars) != set(con.vars) or len(obj.vars) != n:
        return None
    return TspMatch(n=n, weights=obj.weights, variables=obj.vars)


# Every audit's first line: `metafold solve` overwrites no file that lacks it.
AUDIT_FIRST_LINE = "NAME : rewritten"


def tsplib_explicit_text(match: TspMatch) -> str:
    lines = [
        AUDIT_FIRST_LINE,
        "TYPE : TSP",
        f"DIMENSION : {match.n}",
        "EDGE_WEIGHT_TYPE : EXPLICIT",
        "EDGE_WEIGHT_FORMAT : FULL_MATRIX",
        "EDGE_WEIGHT_SECTION",
    ]
    row_text = " ".join(["%d"] * match.n)  # one % formats a whole row
    lines.extend(row_text % tuple(row) for row in match.weights)
    lines.append("EOF")
    return "\n".join(lines) + "\n"


def circuit_sum(weights, order) -> int:
    """Length of the closed tour that visits `order` and returns to its start."""
    return sum(weights[a][b] for a, b in zip(order, order[1:] + order[:1]))


def rewrite_to_tsp(match: TspMatch) -> ProblemInstance:
    """Permutation problem whose objective is the circuit sum over W.

    A scored tour's aux is its length. A 2-opt child carries its cuts
    (i, j) and is scored from its parent's length and its own order: only
    the edges at the two cuts change, in O(1), and when W is asymmetric the
    segment i..j changes direction too, in O(j - i). A whole-tour reversal
    keeps the length of a symmetric W, and takes `circuit_sum` otherwise,
    as every other tour does. Both give the same integer.
    """
    W, n = match.weights, match.n
    symmetric = all(row == column for row, column in zip(W, zip(*W)))

    def value(sol: Permutation):
        length = circuit_sum(W, sol.order)
        return length, length

    def delta(length, cuts, sol: Permutation):
        i, j = cuts
        if j - i == n - 1:  # the whole tour reversed
            return (length, length) if symmetric else value(sol)
        o = sol.order  # the parent's cities at the cuts, b and c, swapped places
        a, c, b, d = o[i - 1], o[i], o[j], o[(j + 1) % n]
        length += W[a][c] + W[b][d] - W[a][b] - W[c][d]
        if not symmetric:  # the segment now runs the other way
            segment = o[i : j + 1]
            length += sum(W[x][y] - W[y][x] for x, y in zip(segment, segment[1:]))
        return length, length

    return problem_instance("circuit_sum", f"rewritten_tsp_{n}", "perm", n, value, delta=delta)


# ---------------------------------------------------------------------------
# Generic penalty-based fallback


DEFAULT_PENALTY = 1000.0


def count_violations(model: ModelDescription, assignment: Dict[str, int]) -> int:
    """all_different violations count duplicate pairs; table violations
    count assignments outside the allowed tuple set."""
    violations = 0
    for con in model.constraints:
        values = con.values_of(assignment)
        if con.type == "all_different":
            # A value taken c times makes c(c-1)/2 equal pairs, and
            # sum c = len(values), so the pairs are (sum c^2 - len) / 2.
            counts = Counter(values).values()
            violations += (sum(map(mul, counts, counts)) - len(values)) // 2
        elif values not in con.allowed:
            violations += 1
    return violations


def _tally(constraints, assignment):
    """Each constraint's violations, counted as count_violations counts them,
    and for an all_different the count of each value in its scope (None for
    a table)."""
    counts = tuple(
        dict(Counter(con.values_of(assignment))) if con.type == "all_different" else None
        for con in constraints
    )
    violations = tuple(
        int(con.values_of(assignment) not in con.allowed)
        if c is None
        else (sum(map(mul, c.values(), c.values())) - len(con.vars)) // 2
        for con, c in zip(constraints, counts)
    )
    return violations, counts


# A float holds every integer of magnitude up to 2^53 exactly.
_EXACT = 1 << 53


def _exact_coefficients(model: ModelDescription, domains) -> Optional[Dict[str, int]]:
    """Each variable's total coefficient in the objective, as an int, when
    the objective is a `linear_sum` that `objective_value` sums exactly: its
    coefficients are integers and the sum over its entries of |coefficient|
    times the larger of |lo| and |hi| is below 2^53, so each product and
    each partial sum is an integer a float holds exactly, in any order.
    None for any other objective."""
    obj = model.objective
    if obj is None or obj.type != "linear_sum":
        return None
    try:
        coeffs = [int(c) for c in obj.coeffs]
    except (OverflowError, ValueError):  # inf or nan
        return None
    if coeffs != list(obj.coeffs):  # a fractional coefficient
        return None
    reach = (max(abs(lo), abs(hi)) for lo, hi in map(domains.__getitem__, obj.vars))
    if sum(map(mul, map(abs, coeffs), reach)) >= _EXACT:
        return None
    total = dict.fromkeys(domains, 0)
    for name, c in zip(obj.vars, coeffs):  # a variable may repeat in vars
        total[name] += c
    return total


def objective_value(model: ModelDescription, assignment: Dict[str, int]) -> float:
    obj = model.objective
    if obj is None:
        return 0.0
    values = obj.values_of(assignment)
    if obj.type == "circuit_sum":
        return float(circuit_sum(obj.weights, values))
    return float(sum(map(mul, obj.coeffs, values)))


@dataclass(frozen=True)
class SolveResult:
    assignment: Dict[str, int]
    value: float
    violations: int
    route: str  # "tsp" | "generic"


def _solve(model, problem, move, budget: int, env: Environment, route: str, read):
    """Both routes' search: local search on `problem` keeping each `move`
    that is no worse, until `budget` evaluations are spent. `read` turns
    the best solution into an assignment, which the model itself scores."""
    if budget <= 0:
        raise ValueError("budget must be positive")
    parts = {"perturb": move, "accept": accept_improving(), "terminate": terminate_evaluations(budget)}
    result = FRAMEWORKS["local_search"].run(problem, parts, {}, env)
    best = read(result.best)
    value, violations = objective_value(model, best), count_violations(model, best)
    return SolveResult(best, value, violations, route), result.final_env


def generic_solve(
    model: ModelDescription,
    budget: int,
    env: Environment,
    penalty: float = DEFAULT_PENALTY,
) -> Tuple[SolveResult, Environment]:
    """Penalty local search over full assignments: each move reassigns one
    variable uniformly in its domain. An assignment scores
    `objective_value + penalty * count_violations`.

    A scored assignment's aux is `(violations, counts, total, objective)`:
    the violations of each constraint, the count of each value in each
    all_different's scope (None for a table), their sum, and the objective
    as an exact int, or None. A reassign child carries its move `(name,
    old value)` and is scored from its parent's aux: only the constraints
    that hold `name` are counted again. When the objective is a
    `linear_sum` with integer coefficients whose sum of |coefficient|
    times the larger of |lo| and |hi| is below 2^53, the objective moves
    by `name`'s coefficient times the change, and its float is the one
    `objective_value` gives; any other objective is computed in full by
    `objective_value`. Any other assignment, a start, a plain dict or a
    child scored in another call, is counted in full, and is first
    checked: its keys must be the model's variables and each value an int
    (not a bool) in its domain, or ComponentContractError is raised.
    """
    _check_circuit_domains(model)
    variables, constraints = model.variables, model.constraints
    domains = {v.name: (v.lo, v.hi) for v in variables}
    holding = {name: [] for name in domains}  # name -> [(constraint index, multiplicity)]
    for k, con in enumerate(constraints):
        for name, m in Counter(con.vars).items():
            holding[name].append((k, m))
    coefficient = _exact_coefficients(model, domains)

    def value(a):
        if a.keys() != domains.keys() or not all(
            type(a[name]) is int and lo <= a[name] <= hi for name, (lo, hi) in domains.items()
        ):
            raise ComponentContractError(f"penalty_sum: not an assignment of this model: {a!r}")
        violations, counts = _tally(constraints, a)
        total = sum(violations)
        objective = None
        if coefficient is not None:
            objective = sum(c * a[name] for name, c in coefficient.items())
        return objective_value(model, a) + penalty * total, (violations, counts, total, objective)

    def delta(aux, move, a):
        name, old = move
        new = a[name]
        violations, counts, total, objective = aux
        if new != old:  # else the child scores as its parent
            violations, counts = list(violations), list(counts)
            for k, m in holding[name]:
                c = counts[k]
                if c is None:  # a table: test the child's own tuple
                    con = constraints[k]
                    now = int(con.values_of(a) not in con.allowed)
                else:
                    # m occurrences move from old (x of them) to new (y);
                    # the c(c-1)/2 pair terms of x and y change by
                    # m(m+1-2x)/2 + m(m-1+2y)/2 = m(m+y-x) in all
                    x, y = c[old], c.get(new, 0)
                    now = violations[k] + m * (m + y - x)
                    c = counts[k] = dict(c)
                    if x == m:
                        del c[old]
                    else:
                        c[old] = x - m
                    c[new] = y + m
                total += now - violations[k]
                violations[k] = now
            if objective is not None:
                objective += coefficient[name] * (new - old)
            aux = (tuple(violations), tuple(counts), total, objective)
        score = objective_value(model, a) if objective is None else float(objective)
        return score + penalty * total, aux

    problem = problem_instance(
        "penalty_sum", f"model_{len(variables)}", "assignment", len(variables), value,
        delta=delta, domains=domains,
    )

    def reassign(assignment, env):
        seed, counter = env.rng
        idx, counter = _below(seed, counter, len(variables))
        v = variables[idx]
        offset, counter = _below(seed, counter, v.hi - v.lo + 1)
        child = _child(assignment, assignment, (v.name, assignment[v.name]))
        child[v.name] = v.lo + offset  # not yet scored, so still free to change
        return child, _new(Environment, (env.entries, _advanced(seed, counter)))

    return _solve(model, problem, reassign, budget, env, "generic", dict)


def dispatch_solve(
    model: ModelDescription,
    budget: int,
    env: Environment,
    penalty: float = DEFAULT_PENALTY,
) -> Tuple[SolveResult, Environment]:
    """Analytic route selection: TSP-shaped models get 2-opt local search
    on the rewritten instance, everything else the generic penalty search."""
    match = match_tsp(model)
    if match is None:
        return generic_solve(model, budget, env, penalty)
    return _solve(
        model, rewrite_to_tsp(match), perturb_two_opt(), budget, env, "tsp",
        lambda tour: dict(zip(match.variables, tour.order)),
    )
