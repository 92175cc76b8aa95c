"""Algorithm templates as higher-order compositions of components.

Each template threads one Environment lineage through every component call
and is one step function over the shared loop `_search`, which alone
maintains the framework counters (iteration, evaluations, best value) that
components may read. Templates return the best-so-far solution, not merely
the final incumbent, since acceptance rules like Metropolis or tabu may walk
away from the best. `FRAMEWORKS` declares each template's slots and
parameters once for assembly.
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
    initializer,
)
from .env import EnvValue, Environment, rng_below, rng_uniform
from .solutions import BitVector, Permutation, RealVector, Solution


@dataclass(frozen=True)
class RunResult:
    best: Solution
    best_value: float
    final_env: Environment
    trace: Tuple[Tuple[int, int, float], ...]  # (iteration, evaluations, best_value)
    evaluations: int  # spent in all, the start's included


def _publish(env, iteration, evaluations, best_value):
    return env.put_many({
        K_ITERATION: EnvValue.of_int(iteration),
        K_EVALUATIONS: EnvValue.of_int(evaluations),
        K_BEST_VALUE: EnvValue.of_real(best_value),
    })


def _choose(accept, incumbent, value, incoming, incoming_value, env):
    """Publish both values, let `accept` pick, return the survivor and its value."""
    env = env.put_many({
        K_INCUMBENT_VALUE: EnvValue.of_real(value),
        K_INCOMING_VALUE: EnvValue.of_real(incoming_value),
    })
    chosen, env = accept((incumbent, incoming), env)
    if chosen == incoming:
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
    """Initializer writing sa.temperature plus a Metropolis acceptance."""
    if t0 < 0:
        raise ValueError("t0 must be nonnegative")
    init = initializer("sa_init", K_TEMPERATURE, EnvValue.of_real(t0))
    return init, accept_metropolis(cooling)


@dataclass(frozen=True)
class InnerSearch:
    """One local-search descent configuration used inside ILS."""

    perturb: Component
    accept: Component
    terminate: Component


def iterated_local_search(
    start: Solution,
    evaluate: Component,
    kick: Component,
    inner: InnerSearch,
    outer_accept: Component,
    terminate: Component,
    env: Environment,
) -> RunResult:
    """Kick the current solution, descend with the inner search, then apply
    the outer acceptance. Counters and trace live at outer granularity."""

    def advance(current, current_value, env):
        kicked, env = kick(current, env)
        inner_result = local_search(
            kicked, evaluate, inner.perturb, inner.accept, inner.terminate, env
        )
        current, current_value, env = _choose(
            outer_accept, current, current_value,
            inner_result.best, inner_result.best_value, inner_result.final_env,
        )
        return current, current_value, inner_result.evaluations, env

    value, env = evaluate(start, env)
    return _search(start, value, 1, advance, terminate, env)


# ---------------------------------------------------------------------------
# Genetic algorithm


def crossover_one_point():
    """Bit-vector one-point crossover at a cut in 1..n-1. A 1-bit vector
    has no cut, so its parents pass through unchanged and nothing is drawn."""

    def step(pair, env):
        a, b = pair
        n = len(a)
        if n < 2:
            return (a, b), env
        cut, env = rng_below(env, n - 1)
        cut += 1
        c1 = BitVector(a.bits[:cut] + b.bits[cut:])
        c2 = BitVector(b.bits[:cut] + a.bits[cut:])
        return (c1, c2), env

    return step


def crossover_order1():
    """Order-1 permutation crossover over a random segment."""

    def step(pair, env):
        a, b = pair
        n = len(a)
        i, env = rng_below(env, n)
        j, env = rng_below(env, n - 1)
        if j >= i:
            j += 1
        if i > j:
            i, j = j, i

        def child(keep, fill):
            segment = keep.order[i : j + 1]
            held = set(segment)
            rest = [g for g in fill.order if g not in held]
            out = rest[:i] + list(segment) + rest[i:]
            return Permutation(tuple(out))

        return (child(a, b), child(b, a)), env

    return step


def crossover_blend():
    """Real-vector blend: per coordinate, children are the two convex mixes
    with a fresh uniform weight."""

    def step(pair, env):
        a, b = pair
        c1, c2 = [], []
        for x, y in zip(a.coords, b.coords):
            u, env = rng_uniform(env)
            c1.append(u * x + (1 - u) * y)
            c2.append(u * y + (1 - u) * x)
        return (RealVector(tuple(c1)), RealVector(tuple(c2))), env

    return step


def crossover_for(representation: str):
    if representation == "bits":
        return crossover_one_point()
    if representation == "perm":
        return crossover_order1()
    if representation == "real":
        return crossover_blend()
    raise ValueError(f"no crossover for representation {representation!r}")


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
    """Generational GA with size-t tournaments and elitism of 1.

    The search focus is the best-so-far, so that is what `terminate` sees."""
    if pop_size < 2 or pop_size % 2 != 0:
        raise ValueError("pop_size must be even and positive")
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
        winner = None
        winner_value = None
        for _ in range(tournament_size):
            idx, env = rng_below(env, pop_size)
            if winner is None or values[idx] < winner_value:
                winner, winner_value = idx, values[idx]
        return winner, env

    def advance(best, best_value, env):
        nonlocal population, values
        children = []
        for _ in range(pop_size // 2):
            p1, env = tournament(env)
            p2, env = tournament(env)
            (c1, c2), env = crossover((population[p1], population[p2]), env)
            c1, env = mutate(c1, env)
            c2, env = mutate(c2, env)
            children.extend((c1, c2))
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
# this table alone, so a new template is one entry here.


@dataclass(frozen=True)
class Framework:
    slots: Tuple[Tuple[str, str], ...]  # (slot name, component kind)
    # run(problem, parts by slot, params by name with defaults filled, env)
    run: Callable[..., RunResult]
    params: Tuple[Param, ...] = ()


def _run_local_search(problem, parts, params, env):
    start, env = problem.sample_initial(env)
    return local_search(
        start, problem.evaluate, parts["perturb"], parts["accept"], parts["terminate"], env
    )


def _run_ils(problem, parts, params, env):
    start, env = problem.sample_initial(env)
    inner = InnerSearch(
        parts["inner_perturb"], parts["inner_accept"], parts["inner_terminate"]
    )
    return iterated_local_search(
        start, problem.evaluate, parts["kick"], inner, parts["outer_accept"],
        parts["terminate"], env,
    )


def _run_ga(problem, parts, params, env):
    return genetic_algorithm(
        int(params["pop_size"]),
        problem.sample_initial,
        problem.evaluate,
        int(params["tournament_size"]),
        crossover_for(problem.representation),
        parts["mutate"],
        parts["terminate"],
        env,
    )


FRAMEWORKS: Dict[str, Framework] = {
    "local_search": Framework(
        slots=(("perturb", "perturb"), ("accept", "accept"), ("terminate", "terminate")),
        run=_run_local_search,
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
        run=_run_ils,
    ),
    "ga": Framework(
        slots=(("mutate", "perturb"), ("terminate", "terminate")),
        run=_run_ga,
        # pop_size must also be even; genetic_algorithm raises on odd sizes
        params=(Param("pop_size", "int", 20, min=2), Param("tournament_size", "int", 2, min=1)),
    ),
}
