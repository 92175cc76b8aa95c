"""Composable metaheuristics: pure state-threaded components, automated
assembly, white-box problem dispatch, and a stateless RPC tier."""

import types

from .env import (
    ComponentContractError,
    ConfigurationError,
    EnvKey,
    EnvValue,
    Environment,
    RngState,
    env_new,
    rng_below,
    rng_uniform,
)
from .solutions import (
    BitVector,
    Permutation,
    RealVector,
    deserialize_solution,
    serialize_solution,
    solution_digest,
)
from .components import (
    Component,
    ComponentDescriptor,
    accept_improving,
    accept_metropolis,
    accept_tabu,
    perturb_bitflip,
    perturb_gaussian,
    perturb_swap,
    perturb_two_opt,
    terminate_evaluations,
    terminate_iterations,
    terminate_target,
)
from .problems import (
    ProblemInstance,
    checkerboard,
    hiff,
    magic_square,
    onemax,
    parse_dimacs_cnf,
    parse_tsplib,
    royal_road,
    sphere,
    trap,
)
from .frameworks import (
    RunResult,
    genetic_algorithm,
    iterated_local_search,
    local_search,
    simulated_annealing_preset,
)
from .assembly import (
    ConfigurationSpec,
    Registry,
    enumerate_valid,
    instantiate,
    register,
    validate,
)
from .palette import default_registry

# Every name imported above, each stated once: its import is its export.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
