"""Seeded input generators, one per workload.

Every input is a pure function of (workload, size, slot), where the slot is
the benchmark seed reduced modulo SLOTS. Reducing the seed keeps the set of
operations finite, so the replay golden (golden.json) can hold one digest
for every operation the benchmark can ever run.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

SLOTS = 16

# Sizes. "full" is what the benchmark measures; "tiny" keeps the same shape
# at a size the benchmark's own tests (and the traced run's companion
# replays) can afford.
SIZES = {
    "full": {
        "sweep": {
            "onemax_n": 1024, "trap_n": 256, "cnf_vars": 250, "cnf_clauses": 1065,
            "pop_size": 50, "budget": 500, "stride": 10, "trial_seeds": 8,
        },
        "remote": {"n": 1024, "iterations": 300, "tenure": 50, "run_seeds": 5},
        "solve_tsp": {"cities": 100, "budget": 1000, "seeds": 24},
        "solve_generic": {"vars": 40, "tables": 20, "tuples": 160, "budget": 400, "seeds": 24},
    },
    "tiny": {
        "sweep": {
            "onemax_n": 64, "trap_n": 32, "cnf_vars": 20, "cnf_clauses": 85,
            "pop_size": 10, "budget": 60, "stride": 5, "trial_seeds": 2,
        },
        "remote": {"n": 64, "iterations": 40, "tenure": 50, "run_seeds": 2},
        "solve_tsp": {"cities": 12, "budget": 100, "seeds": 3},
        "solve_generic": {"vars": 8, "tables": 4, "tuples": 12, "budget": 60, "seeds": 3},
    },
}

WORKLOADS = ("sweep", "remote", "solve_tsp", "solve_generic")


def slot_of(seed: int) -> int:
    return seed % SLOTS


def _rng(workload: str, size: str, slot: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{size}:{slot}")


def op_seeds(slot: int, count: int):
    """Search seeds handed to the program: distinct per slot, never 0."""
    return [slot * 1000 + k + 1 for k in range(count)]


# ---------------------------------------------------------------------------
# sweep


def cnf_text(rng: random.Random, num_vars: int, num_clauses: int) -> str:
    """Uniform random 3-SAT in DIMACS form."""
    lines = ["c perfbench random 3-SAT", f"p cnf {num_vars} {num_clauses}"]
    for _ in range(num_clauses):
        chosen = rng.sample(range(1, num_vars + 1), 3)
        lines.append(" ".join(str(v if rng.random() < 0.5 else -v) for v in chosen) + " 0")
    return "\n".join(lines) + "\n"


SWEEP_REGISTRY = {
    "components": [
        {"name": "bitflip", "impl": "bitflip", "defaults": {"k": 1}},
        {"name": "kick", "impl": "bitflip", "defaults": {"k": 8}},
        {"name": "improving", "impl": "improving", "defaults": {}},
        {"name": "metropolis", "impl": "metropolis", "defaults": {"cooling": 0.99}},
        {"name": "tabu", "impl": "tabu", "defaults": {"tenure": 20}},
        {"name": "inner_steps", "impl": "max_iterations", "defaults": {"max": 50}},
        {"name": "unbounded", "impl": "max_iterations", "defaults": {"max": 1000000}},
    ]
}


def _slot(component, **params):
    return {"component": component, "params": params}


def sweep_configs(pop_size: int):
    """The five configurations: three local searches, ILS and a GA."""
    ls = lambda accept, **p: {
        "perturb": _slot("bitflip", k=1),
        "accept": _slot(accept, **p),
        "terminate": _slot("unbounded"),
    }
    return [
        {"framework": "local_search", "slots": ls("improving")},
        {
            "framework": "local_search",
            "slots": ls("metropolis", cooling=0.99),
            "initializers": [{"key": "sa.temperature", "value": {"t": "real", "v": 2.0}}],
        },
        {
            "framework": "local_search",
            "slots": ls("tabu", tenure=20),
            "initializers": [{"key": "tabu.list", "value": {"t": "dseq", "v": []}}],
        },
        {
            "framework": "ils",
            "slots": {
                "kick": _slot("kick", k=8),
                "inner_perturb": _slot("bitflip", k=1),
                "inner_accept": _slot("improving"),
                "inner_terminate": _slot("inner_steps", max=50),
                "outer_accept": _slot("improving"),
                "terminate": _slot("unbounded"),
            },
        },
        {
            "framework": "ga",
            "slots": {"mutate": _slot("bitflip", k=1), "terminate": _slot("unbounded")},
            "framework_params": {"pop_size": pop_size},
        },
    ]


def sweep_cnf_text(size: str, slot: int) -> str:
    p = SIZES[size]["sweep"]
    return cnf_text(_rng("sweep", size, slot), p["cnf_vars"], p["cnf_clauses"])


def sweep_inputs(size: str, slot: int, workdir: Path) -> dict:
    """Writes the CNF and the registry; returns the experiment template.

    The template lacks "seeds" and "out": each round of the sweep fills in
    one trial seed and its own output directory.
    """
    p = SIZES[size]["sweep"]
    cnf = workdir / "random3sat.cnf"
    cnf.write_text(sweep_cnf_text(size, slot))
    registry = workdir / "registry.json"
    registry.write_text(json.dumps(SWEEP_REGISTRY, indent=1))
    return {
        "problems": [
            {"kind": "onemax", "n": p["onemax_n"]},
            {"kind": "trap", "n": p["trap_n"], "b": 4},
            {"kind": "dimacs", "path": str(cnf)},
        ],
        "registry": str(registry),
        "configs": sweep_configs(p["pop_size"]),
        "budget": {"evaluations": p["budget"]},
        "trace_stride": p["stride"],
        "workers": 2,
    }


def sweep_trial_seeds(size: str, slot: int):
    return op_seeds(slot, SIZES[size]["sweep"]["trial_seeds"])


# ---------------------------------------------------------------------------
# remote


def remote_spec(size: str) -> dict:
    """Local search whose perturb and accept slots are served remotely."""
    p = SIZES[size]["remote"]
    return {
        "framework": "local_search",
        "slots": {
            "perturb": _slot("bitflip", k=1),
            "accept": _slot("tabu", tenure=p["tenure"]),
            "terminate": _slot("max_iterations", max=p["iterations"]),
        },
        "initializers": [{"key": "tabu.list", "value": {"t": "dseq", "v": []}}],
    }


def remote_run_seeds(size: str, slot: int):
    return op_seeds(slot, SIZES[size]["remote"]["run_seeds"])


# ---------------------------------------------------------------------------
# solve


def tsp_model(size: str, slot: int) -> dict:
    """A circuit_sum model over random planar cities: the tsp route."""
    n = SIZES[size]["solve_tsp"]["cities"]
    rng = _rng("solve_tsp", size, slot)
    pts = [(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(n)]
    names = [f"c{i}" for i in range(n)]
    weights = [
        [int(round(math.dist(a, b))) for b in pts] for a in pts
    ]
    return {
        "variables": [{"name": v, "lo": 0, "hi": n - 1} for v in names],
        "constraints": [{"type": "all_different", "vars": names}],
        "objective": {"type": "circuit_sum", "vars": names, "weights": weights},
    }


def generic_model(size: str, slot: int) -> dict:
    """all_different, binary tables and a linear objective: the generic route."""
    p = SIZES[size]["solve_generic"]
    n = p["vars"]
    rng = _rng("solve_generic", size, slot)
    names = [f"x{i}" for i in range(n)]
    pairs = rng.sample([(i, j) for i in range(n) for j in range(i + 1, n)], p["tables"])
    cells = [(a, b) for a in range(n) for b in range(n)]
    tables = [
        {
            "type": "table",
            "vars": [names[i], names[j]],
            "tuples": [list(t) for t in sorted(rng.sample(cells, p["tuples"]))],
        }
        for i, j in pairs
    ]
    return {
        "variables": [{"name": v, "lo": 0, "hi": n - 1} for v in names],
        "constraints": [{"type": "all_different", "vars": names}] + tables,
        "objective": {
            "type": "linear_sum",
            "vars": names,
            "coeffs": [rng.randint(-9, 9) for _ in names],
        },
    }


MODELS = {"solve_tsp": tsp_model, "solve_generic": generic_model}


def solve_inputs(workload: str, size: str, slot: int, workdir: Path) -> Path:
    path = workdir / f"{workload}.json"
    path.write_text(json.dumps(MODELS[workload](size, slot)))
    return path


def solve_seeds(workload: str, size: str, slot: int):
    return op_seeds(slot, SIZES[size][workload]["seeds"])
