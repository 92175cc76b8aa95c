"""Unit-cost probes: the cost of one call into one layer.

Each probe calls one public function on a fixed input in batches and
reports the median batch mean, so a short stall on the host moves one
batch, not the result. Inputs are fixed, except the CNF and the models,
which are the full-size ones of the run's slot.
"""

from __future__ import annotations

import json
import random
import statistics
from time import perf_counter

from metafold.assembly import ConfigurationSpec, enumerate_valid, instantiate, validate
from metafold.components import (
    K_BEST_VALUE,
    K_EVALUATIONS,
    K_INCOMING_VALUE,
    K_INCUMBENT_VALUE,
    K_ITERATION,
    K_TABU_LIST,
    K_TEMPERATURE,
    accept_improving,
    accept_metropolis,
    accept_tabu,
    perturb_bitflip,
    perturb_two_opt,
)
from metafold.env import EnvValue, Environment, env_new, rng_below, rng_uniform
from metafold.palette import default_registry, registry_from_json
from metafold.problems import onemax, parse_dimacs_cnf, trap
from metafold.solutions import (
    BitVector,
    Permutation,
    solution_digest,
    solution_from_json,
    solution_to_json,
)
from metafold.whitebox import count_violations, match_tsp, objective_value, parse_model, rewrite_to_tsp

from . import inputs

BATCHES = 5
BATCH_S = 0.008


def per_call_s(fn) -> float:
    """Median over BATCHES of the mean time of one call to `fn`."""
    n = 1
    while True:
        start = perf_counter()
        for _ in range(n):
            fn()
        if perf_counter() - start >= BATCH_S:
            break
        n *= 2
    means = []
    for _ in range(BATCHES):
        start = perf_counter()
        for _ in range(n):
            fn()
        means.append((perf_counter() - start) / n)
    return statistics.median(means)


def _framework_env(seed: int, tabu_len: int) -> Environment:
    """An Environment the size a local search with tabu or SA keeps."""
    rng = random.Random(seed)
    env = env_new(seed)
    env = env.put(K_ITERATION, EnvValue.of_int(100))
    env = env.put(K_EVALUATIONS, EnvValue.of_int(101))
    env = env.put(K_BEST_VALUE, EnvValue.of_real(17.0))
    env = env.put(K_INCUMBENT_VALUE, EnvValue.of_real(20.0))
    env = env.put(K_INCOMING_VALUE, EnvValue.of_real(21.0))
    env = env.put(K_TEMPERATURE, EnvValue.of_real(2.0))
    return env.put(K_TABU_LIST, EnvValue.of_dseq(rng.getrandbits(64) for _ in range(tabu_len)))


def _bits(rng, n):
    return BitVector(tuple(rng.randrange(2) for _ in range(n)))


def _perm(rng, n):
    order = list(range(n))
    rng.shuffle(order)
    return Permutation(tuple(order))


def probes(slot: int):
    """name -> zero-argument callable timing one call into one layer."""
    rng = random.Random("perfbench:probes")
    env = env_new(12345)
    fw_env = _framework_env(7, 20)
    wire_env = _framework_env(8, 50)
    wire_json = wire_env.to_json()
    bits = {n: _bits(rng, n) for n in (32, 256, 1024)}
    raw_bits = {n: bits[n].bits for n in bits}
    other_1024 = _bits(rng, 1024)
    perm = _perm(rng, 100)
    bits_json = solution_to_json(bits[1024])

    out = {
        "env.rng_below_us": lambda: rng_below(env, 1024),
        "env.rng_uniform_us": lambda: rng_uniform(env),
        "env.put_us": lambda: fw_env.put(K_ITERATION, EnvValue.of_int(101)),
        "env.to_json_us": wire_env.to_json,
        "env.from_json_us": lambda: Environment.from_json(wire_json),
    }
    for n in (32, 256, 1024):
        out[f"solutions.bitvector_new_us.n{n}"] = lambda t=raw_bits[n]: BitVector(t)
    out.update({
        "solutions.permutation_new_us.n100": lambda: Permutation(perm.order),
        "solutions.digest_us.n1024": lambda: solution_digest(bits[1024]),
        "solutions.to_json_us.n1024": lambda: solution_to_json(bits[1024]),
        "solutions.from_json_us.n1024": lambda: solution_from_json(bits_json),
    })
    bitflip = perturb_bitflip(1)
    for n in (32, 256, 1024):
        out[f"components.bitflip_us.n{n}"] = lambda s=bits[n]: bitflip(s, env)
    two_opt, improving = perturb_two_opt(), accept_improving()
    metropolis, tabu = accept_metropolis(0.99), accept_tabu(20)
    pair = (bits[1024], other_1024)
    out.update({
        "components.two_opt_us.n100": lambda: two_opt(perm, env),
        "components.improving_us": lambda: improving(pair, fw_env),
        "components.metropolis_us": lambda: metropolis(pair, fw_env),
        "components.tabu_us.n1024": lambda: tabu(pair, fw_env),
    })

    onemax_eval = onemax(1024).evaluate
    trap_eval = trap(256, 4).evaluate
    maxsat = parse_dimacs_cnf(inputs.sweep_cnf_text("full", slot))
    maxsat_bits = _bits(rng, maxsat.metadata["n"])
    out.update({
        "problems.onemax_us.n1024": lambda: onemax_eval(bits[1024], env),
        "problems.trap_us.n256": lambda: trap_eval(bits[256], env),
        "problems.maxsat_us": lambda: maxsat.evaluate(maxsat_bits, env),
    })

    registry = registry_from_json(inputs.SWEEP_REGISTRY)
    spec = ConfigurationSpec.from_json(inputs.sweep_configs(50)[2])  # tabu local search
    problem = onemax(1024)
    default = default_registry()
    out.update({
        "assembly.instantiate_us": lambda: instantiate(spec, registry, problem, 1),
        "assembly.validate_us": lambda: validate(spec, registry),
        "assembly.enumerate_ms": lambda: enumerate_valid(default, "local_search", {}),
    })

    tsp_text = json.dumps(inputs.tsp_model("full", slot))
    generic_text = json.dumps(inputs.generic_model("full", slot))
    generic = parse_model(generic_text)
    assignment = {v.name: rng.randint(v.lo, v.hi) for v in generic.variables}
    circuit = rewrite_to_tsp(match_tsp(parse_model(tsp_text))).evaluate
    out.update({
        "whitebox.parse_model_ms.tsp100": lambda: parse_model(tsp_text),
        "whitebox.parse_model_ms.generic40": lambda: parse_model(generic_text),
        "whitebox.count_violations_us": lambda: count_violations(generic, assignment),
        "whitebox.objective_value_us": lambda: objective_value(generic, assignment),
        "whitebox.circuit_eval_us": lambda: circuit(perm, env),
    })
    return out

