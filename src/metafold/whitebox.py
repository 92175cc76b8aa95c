"""Declarative constraint models, TSP pattern matching, and analytic dispatch.

Models expose their structure (variables, constraints, objective) as data,
so the solver can recognize a TSP-shaped model and reroute it to the
dedicated permutation search; anything else falls back to a generic
penalty-based local search over full assignments.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from operator import mul
from typing import Dict, FrozenSet, Optional, Tuple

from .components import accept_improving, perturb_two_opt, terminate_evaluations
from .env import Environment, rng_below
from .frameworks import local_search
from .problems import ProblemInstance, _evaluator, sample_permutation
from .solutions import Permutation


class ModelError(Exception):
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

    def __post_init__(self):
        object.__setattr__(self, "allowed", frozenset(self.tuples))


@dataclass(frozen=True)
class Objective:
    type: str  # "circuit_sum" | "linear_sum"
    vars: Tuple[str, ...]
    weights: Tuple[Tuple[int, ...], ...] = ()
    coeffs: Tuple[float, ...] = ()


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


def _expect(obj, key, path):
    if not isinstance(obj, dict) or key not in obj:
        raise ModelError(f"missing {path}.{key}")
    return obj[key]


def parse_model(text: str) -> ModelDescription:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"not valid JSON: {exc}") from exc
    variables = []
    names = set()
    for i, v in enumerate(_expect(doc, "variables", "$")):
        path = f"$.variables[{i}]"
        name = _expect(v, "name", path)
        lo = _expect(v, "lo", path)
        hi = _expect(v, "hi", path)
        if not isinstance(lo, int) or not isinstance(hi, int) or lo > hi:
            raise ModelError(f"bad domain at {path}")
        if name in names:
            raise ModelError(f"duplicate variable {name!r} at {path}")
        names.add(name)
        variables.append(Variable(name, lo, hi))

    def check_vars(vs, path):
        for vn in vs:
            if vn not in names:
                raise ModelError(f"dangling variable reference {vn!r} at {path}")

    constraints = []
    for i, con in enumerate(doc.get("constraints", [])):
        path = f"$.constraints[{i}]"
        ctype = _expect(con, "type", path)
        vs = tuple(_expect(con, "vars", path))
        check_vars(vs, path)
        if ctype == "all_different":
            constraints.append(Constraint("all_different", vs))
        elif ctype == "table":
            rows = _expect(con, "tuples", path)
            for j, row in enumerate(rows):
                if len(row) != len(vs):
                    raise ModelError(f"ragged tuple at {path}.tuples[{j}]")
            constraints.append(
                Constraint("table", vs, tuple(tuple(int(x) for x in row) for row in rows))
            )
        else:
            raise ModelError(f"unknown constraint type {ctype!r} at {path}")

    objective = None
    raw_obj = doc.get("objective")
    if raw_obj is not None:
        path = "$.objective"
        otype = _expect(raw_obj, "type", path)
        vs = tuple(_expect(raw_obj, "vars", path))
        check_vars(vs, path)
        if otype == "circuit_sum":
            weights = _expect(raw_obj, "weights", path)
            n = len(vs)
            if len(weights) != n or any(len(row) != n for row in weights):
                raise ModelError(f"weight matrix must be {n}x{n} at {path}.weights")
            if any(w < 0 for row in weights for w in row):
                raise ModelError(f"negative weight at {path}.weights")
            objective = Objective(
                "circuit_sum", vs, tuple(tuple(int(w) for w in row) for row in weights)
            )
        elif otype == "linear_sum":
            coeffs = _expect(raw_obj, "coeffs", path)
            if len(coeffs) != len(vs):
                raise ModelError(f"coeffs/vars length mismatch at {path}")
            objective = Objective("linear_sum", vs, coeffs=tuple(float(x) for x in coeffs))
        else:
            raise ModelError(f"unknown objective type {otype!r} at {path}")
    return ModelDescription(tuple(variables), tuple(constraints), objective)


def serialize_model(model: ModelDescription) -> str:
    doc = {
        "variables": [{"name": v.name, "lo": v.lo, "hi": v.hi} for v in model.variables],
        "constraints": [
            {"type": c.type, "vars": list(c.vars)}
            if c.type == "all_different"
            else {"type": "table", "vars": list(c.vars), "tuples": [list(t) for t in c.tuples]}
            for c in model.constraints
        ],
        "objective": None,
    }
    if model.objective is not None:
        o = model.objective
        if o.type == "circuit_sum":
            doc["objective"] = {
                "type": "circuit_sum",
                "vars": list(o.vars),
                "weights": [list(row) for row in o.weights],
            }
        else:
            doc["objective"] = {
                "type": "linear_sum",
                "vars": list(o.vars),
                "coeffs": list(o.coeffs),
            }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# TSP recognition and rewrite


@dataclass(frozen=True)
class TspMatch:
    n: int
    weights: Tuple[Tuple[int, ...], ...]
    variables: Tuple[str, ...]


def match_tsp(model: ModelDescription) -> Optional[TspMatch]:
    """Structural match: one all_different over all n variables, every
    domain exactly 0..n-1, and a circuit_sum objective over the same
    variable list with an n x n matrix."""
    n = len(model.variables)
    if n == 0 or len(model.constraints) != 1:
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


def tsplib_explicit_text(match: TspMatch, name: str = "rewritten") -> str:
    lines = [
        f"NAME : {name}",
        "TYPE : TSP",
        f"DIMENSION : {match.n}",
        "EDGE_WEIGHT_TYPE : EXPLICIT",
        "EDGE_WEIGHT_FORMAT : FULL_MATRIX",
        "EDGE_WEIGHT_SECTION",
    ]
    lines.extend(" ".join(str(w) for w in row) for row in match.weights)
    lines.append("EOF")
    return "\n".join(lines) + "\n"


def circuit_sum(weights, order) -> int:
    """Length of the closed tour that visits `order` and returns to its start."""
    return sum(weights[a][b] for a, b in zip(order, order[1:] + order[:1]))


def rewrite_to_tsp(match: TspMatch) -> ProblemInstance:
    """Permutation problem whose objective is the circuit sum over W; the
    TSPLIB audit text rides along in metadata."""
    n = match.n
    W = match.weights
    return ProblemInstance(
        name=f"rewritten_tsp_{n}",
        representation="perm",
        evaluate=_evaluator("circuit_sum", Permutation, n, lambda s: circuit_sum(W, s.order)),
        sample_initial=sample_permutation(n),
        metadata={"n": n, "tsplib_text": tsplib_explicit_text(match)},
    )


# ---------------------------------------------------------------------------
# Generic penalty-based fallback


DEFAULT_PENALTY = 1000.0


def count_violations(model: ModelDescription, assignment: Dict[str, int]) -> int:
    """all_different violations count duplicate pairs; table violations
    count assignments outside the allowed tuple set."""
    violations = 0
    for con in model.constraints:
        values = tuple(map(assignment.__getitem__, con.vars))
        if con.type == "all_different":
            # A value taken c times makes c(c-1)/2 equal pairs, and
            # sum c = len(values), so the pairs are (sum c^2 - len) / 2.
            counts = Counter(values).values()
            violations += (sum(map(mul, counts, counts)) - len(values)) // 2
        elif values not in con.allowed:
            violations += 1
    return violations


def objective_value(model: ModelDescription, assignment: Dict[str, int]) -> float:
    obj = model.objective
    if obj is None:
        return 0.0
    values = [assignment[v] for v in obj.vars]
    if obj.type == "circuit_sum":
        return float(circuit_sum(obj.weights, values))
    return float(sum(map(mul, obj.coeffs, values)))


@dataclass(frozen=True)
class SolveResult:
    assignment: Dict[str, int]
    value: float
    violations: int
    route: str  # "tsp" | "generic"


def generic_solve(
    model: ModelDescription,
    budget: int,
    env: Environment,
    penalty: float = DEFAULT_PENALTY,
) -> Tuple[SolveResult, Environment]:
    """Penalty local search over full assignments: reassign one variable
    uniformly in its domain per move, improving acceptance."""
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


def dispatch_solve(
    model: ModelDescription,
    budget: int,
    env: Environment,
    penalty: float = DEFAULT_PENALTY,
) -> Tuple[SolveResult, Environment]:
    """Analytic route selection: TSP-shaped models get 2-opt local search
    on the rewritten instance, everything else the generic penalty search."""
    if budget <= 0:
        raise ValueError("budget must be positive")
    match = match_tsp(model)
    if match is None:
        return generic_solve(model, budget, env, penalty)
    problem = rewrite_to_tsp(match)
    start, env = problem.sample_initial(env)
    result = local_search(
        start,
        problem.evaluate,
        perturb_two_opt(),
        accept_improving(),
        terminate_evaluations(budget),
        env,
    )
    tour = result.best.order
    assignment = {name: tour[i] for i, name in enumerate(match.variables)}
    solved = SolveResult(
        assignment=assignment,
        value=result.best_value,
        violations=0,
        route="tsp",
    )
    return solved, result.final_env
