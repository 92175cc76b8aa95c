"""Algorithm templates as higher-order compositions of components.

Each template threads one Environment lineage through every component call
and is one step function over the shared loop `_search`, which alone
maintains the framework counters (iteration, evaluations, best value) that
components may read. Templates return the best-so-far solution, not merely
the final incumbent, since acceptance rules like Metropolis or tabu may walk
away from the best.

`FRAMEWORKS` declares each template's slots and parameters once for
assembly. A template takes each part as the parameter named for its slot,
and each framework parameter by its name, so a slot is declared in its
`FRAMEWORKS` entry and nowhere else: a new template is one entry there and
one function whose parameters are its slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from .components import (
    Component,
    ComponentDescriptor,
    K_BEST_VALUE,
    K_EVALUATIONS,
    K_INCOMING_VALUE,
    K_INCUMBENT_VALUE,
    K_ITERATION,
    K_TEMPERATURE,
    Param,
    accept_metropolis,
)
from .env import EnvValue, Environment, _advanced, _below, _new
from .solutions import REPRESENTATIONS, Solution


@dataclass(frozen=True)
class RunResult:
    best: Solution
    best_value: float
    final_env: Environment
    trace: Tuple[Tuple[int, int, float], ...]  # (iteration, evaluations, best_value)
    evaluations: int  # spent in all, the start's included


# `_publish` and `_choose` copy the entries once and set their keys in
# place, building each value as `EnvValue.of_int` and `of_real` would,
# without the calls: the counters are ints already.
def _publish(env, iteration, evaluations, best_value):
    entries = dict(env.entries)
    entries[K_ITERATION] = _new(EnvValue, ("int", iteration))
    entries[K_EVALUATIONS] = _new(EnvValue, ("int", evaluations))
    entries[K_BEST_VALUE] = _new(EnvValue, ("real", float(best_value)))
    return _new(Environment, (entries, env.rng))


def _choose(accept, incumbent, value, incoming, incoming_value, env):
    """Publish both values, let `accept` pick, return the survivor and its value."""
    entries = dict(env.entries)
    entries[K_INCUMBENT_VALUE] = _new(EnvValue, ("real", float(value)))
    entries[K_INCOMING_VALUE] = _new(EnvValue, ("real", float(incoming_value)))
    env = _new(Environment, (entries, env.rng))
    chosen, env = accept((incumbent, incoming), env)
    if chosen is incoming or chosen == incoming:
        return incoming, incoming_value, env
    return incumbent, value, env


def _search(focus, value, evaluations, advance, terminate, env) -> RunResult:
    """The loop every template runs. It alone keeps the iteration and
    evaluation counters, publishes them, asks `terminate` about `focus`,
    tracks the best-so-far and records the trace.

    `advance(focus, value, env)` makes one step and returns the next
    `(focus, value, evaluations spent, env)`.
    """
    iteration = 0
    best, best_value = focus, value
    trace = []
    while True:
        env = _publish(env, iteration, evaluations, best_value)
        done, env = terminate(focus, env)
        if done:
            break
        focus, value, spent, env = advance(focus, value, env)
        evaluations += spent
        iteration += 1
        if value < best_value:
            best, best_value = focus, value
        trace.append((iteration, evaluations, best_value))
    return RunResult(best, best_value, env, tuple(trace), evaluations)


def local_search(
    incumbent: Solution,
    evaluate: Component,
    perturb: Component,
    accept: Component,
    terminate: Component,
    env: Environment,
) -> RunResult:
    """Until `terminate` says stop, perturb the incumbent, publish both
    objective values, and let the acceptance rule pick the survivor."""

    def advance(incumbent, value, env):
        incoming, env = perturb(incumbent, env)
        incoming_value, env = evaluate(incoming, env)
        incumbent, value, env = _choose(accept, incumbent, value, incoming, incoming_value, env)
        return incumbent, value, 1, env

    value, env = evaluate(incumbent, env)
    return _search(incumbent, value, 1, advance, terminate, env)


def simulated_annealing_preset(t0: float, cooling: float):
    """The initializer `(sa.temperature, t0)` and a Metropolis acceptance.
    The pair is what `ConfigurationSpec.make(initializers=...)` lists and
    `env.put(*pair)` writes."""
    if not t0 >= 0:  # NaN too: Metropolis would reject every worsening move
        raise ValueError("t0 must be nonnegative")
    return (K_TEMPERATURE, EnvValue.of_real(t0)), accept_metropolis(cooling)


def iterated_local_search(
    start: Solution,
    evaluate: Component,
    kick: Component,
    inner_perturb: Component,
    inner_accept: Component,
    inner_terminate: Component,
    outer_accept: Component,
    terminate: Component,
    env: Environment,
) -> RunResult:
    """Kick the current solution, descend with the inner local search, then
    apply the outer acceptance. Counters and trace live at outer granularity."""

    def advance(current, current_value, env):
        kicked, env = kick(current, env)
        inner = local_search(kicked, evaluate, inner_perturb, inner_accept, inner_terminate, env)
        current, current_value, env = _choose(
            outer_accept, current, current_value, inner.best, inner.best_value, inner.final_env
        )
        return current, current_value, inner.evaluations, env

    value, env = evaluate(start, env)
    return _search(start, value, 1, advance, terminate, env)


# ---------------------------------------------------------------------------
# Genetic algorithm


def _evaluate_all(evaluate, solutions, env):
    values = []
    for sol in solutions:
        v, env = evaluate(sol, env)
        values.append(v)
    return values, env


def genetic_algorithm(
    pop_size: int,
    init: Callable[[Environment], Tuple[Solution, Environment]],
    evaluate: Component,
    tournament_size: int,
    crossover,
    mutate: Component,
    terminate: Component,
    env: Environment,
) -> RunResult:
    """Generational GA with size-t tournaments and elitism of 1. Each
    generation breeds pairs of children until it has `pop_size`; an odd
    size drops the second child of the last pair.

    The search focus is the best-so-far, so that is what `terminate` sees."""
    if pop_size < 2:
        raise ValueError("pop_size must be at least 2")
    if tournament_size < 1:
        raise ValueError("tournament_size must be positive")

    population = []
    for _ in range(pop_size):
        sol, env = init(env)
        population.append(sol)
    values, env = _evaluate_all(evaluate, population, env)
    best_idx = min(range(pop_size), key=lambda i: values[i])

    def tournament(env):
        # ties go to the first-drawn contestant for replay determinism
        seed, counter = env.rng
        winner = None
        winner_value = None
        for _ in range(tournament_size):
            idx, counter = _below(seed, counter, pop_size)
            if winner is None or values[idx] < winner_value:
                winner, winner_value = idx, values[idx]
        return winner, _new(Environment, (env.entries, _advanced(seed, counter)))

    def advance(best, best_value, env):
        nonlocal population, values
        children = []
        for _ in range((pop_size + 1) // 2):
            p1, env = tournament(env)
            p2, env = tournament(env)
            (c1, c2), env = crossover((population[p1], population[p2]), env)
            c1, env = mutate(c1, env)
            c2, env = mutate(c2, env)
            children.extend((c1, c2))
        del children[pop_size:]
        child_values, env = _evaluate_all(evaluate, children, env)
        # elitism of 1: the best-so-far replaces the worst child verbatim
        worst = max(range(pop_size), key=lambda i: child_values[i])
        children[worst], child_values[worst] = best, best_value
        population, values = children, child_values
        gen_best = min(range(pop_size), key=lambda i: values[i])
        if values[gen_best] < best_value:
            return population[gen_best], values[gen_best], pop_size, env
        return best, best_value, pop_size, env

    return _search(
        population[best_idx], values[best_idx], pop_size, advance, terminate, env
    )


def terminate_any(*terminates: Component) -> Component:
    """True as soon as any constituent condition is true (budget caps)."""
    requires = frozenset().union(*(t.descriptor.requires for t in terminates))

    def step(sol, env):
        for t in terminates:
            done, env = t(sol, env)
            if done:
                return True, env
        return False, env

    desc = ComponentDescriptor("any_of", "terminate", requires=requires)
    return Component(desc, step)


# ---------------------------------------------------------------------------
# The template table: each framework's slots, its own parameters and how
# it runs a problem. Assembly validates, enumerates and instantiates from
# this table alone, and each template takes its parts by these slot names.


@dataclass(frozen=True)
class Framework:
    slots: Tuple[Tuple[str, str], ...]  # (slot name, component kind)
    # run(problem, parts by slot, params by name with defaults filled, env)
    run: Callable[..., RunResult]
    params: Tuple[Param, ...] = ()


def _from_a_start(template):
    """How a single-solution template runs a problem: from one sampled start."""

    def run(problem, parts, params, env):
        start, env = problem.sample_initial(env)
        return template(start, problem.evaluate, **parts, **params, env=env)

    return run


def _run_ga(problem, parts, params, env):
    crossover = REPRESENTATIONS[problem.representation].crossover
    if crossover is None:
        raise ValueError(f"no crossover for representation {problem.representation!r}")
    return genetic_algorithm(
        init=problem.sample_initial, evaluate=problem.evaluate, crossover=crossover(),
        **parts, **params, env=env,
    )


FRAMEWORKS: Dict[str, Framework] = {
    "local_search": Framework(
        slots=(("perturb", "perturb"), ("accept", "accept"), ("terminate", "terminate")),
        run=_from_a_start(local_search),
    ),
    "ils": Framework(
        slots=(
            ("kick", "perturb"),
            ("inner_perturb", "perturb"),
            ("inner_accept", "accept"),
            ("inner_terminate", "terminate"),
            ("outer_accept", "accept"),
            ("terminate", "terminate"),
        ),
        run=_from_a_start(iterated_local_search),
    ),
    "ga": Framework(
        slots=(("mutate", "perturb"), ("terminate", "terminate")),
        run=_run_ga,
        params=(Param("pop_size", "int", 20, min=2), Param("tournament_size", "int", 2, min=1)),
    ),
}
