import pytest

from metafold.components import (
    Component,
    ComponentDescriptor,
    K_ITERATION,
    accept_improving,
    perturb_bitflip,
    perturb_swap,
    terminate_iterations,
    terminate_target,
)
from metafold.env import env_new
from metafold.frameworks import (
    InnerSearch,
    crossover_one_point,
    crossover_order1,
    crossover_blend,
    genetic_algorithm,
    iterated_local_search,
    local_search,
    simulated_annealing_preset,
    terminate_any,
)
from metafold.problems import onemax, magic_square, sphere
from metafold.solutions import BitVector, Permutation, RealVector


def stub(name, kind, fn):
    return Component(ComponentDescriptor(name, kind), fn)


ONES4 = BitVector.from_string("1111")
ZEROS4 = BitVector.from_string("0000")


class TestLocalSearch:
    def test_zero_budget_identity(self):
        p = onemax(4)
        r = local_search(
            ZEROS4,
            p.evaluate,
            perturb_bitflip(1),
            accept_improving(),
            terminate_iterations(0),
            env_new(1),
        )
        assert r.best == ZEROS4
        assert r.trace == ()
        assert r.final_env.get(K_ITERATION).value == 0

    def test_forced_move(self):
        p = onemax(4)
        always_ones = stub("ones", "perturb", lambda s, e: (ONES4, e))
        r = local_search(
            ZEROS4,
            p.evaluate,
            always_ones,
            accept_improving(),
            terminate_iterations(1),
            env_new(1),
        )
        assert r.best == ONES4
        assert r.best_value == 0.0
        assert r.trace == ((1, 2, 0.0),)

    def test_always_reject(self):
        p = onemax(8)
        reject = stub("reject", "accept", lambda pair, e: (pair[0], e))
        start, env = p.sample_initial(env_new(2))
        r = local_search(
            start, p.evaluate, perturb_bitflip(1), reject, terminate_iterations(100), env
        )
        assert r.best == start

    def test_iteration_counts_perturb_calls(self):
        calls = []
        inner = perturb_bitflip(1)

        def counting(sol, env):
            calls.append(1)
            return inner(sol, env)

        p = onemax(8)
        start, env = p.sample_initial(env_new(3))
        r = local_search(
            start,
            p.evaluate,
            stub("counting", "perturb", counting),
            accept_improving(),
            terminate_iterations(37),
            env,
        )
        assert len(calls) == 37
        assert r.final_env.get(K_ITERATION).value == 37

    def test_trace_monotone_and_consistent(self):
        p = onemax(16)
        start, env = p.sample_initial(env_new(4))
        r = local_search(
            start,
            p.evaluate,
            perturb_bitflip(1),
            accept_improving(),
            terminate_iterations(300),
            env,
        )
        values = [row[2] for row in r.trace]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert r.best_value == p.evaluate(r.best, env_new(0))[0]

    def test_replay_determinism(self):
        p = onemax(16)

        def run():
            start, env = p.sample_initial(env_new(77))
            return local_search(
                start,
                p.evaluate,
                perturb_bitflip(2),
                accept_improving(),
                terminate_iterations(200),
                env,
            )

        a, b = run(), run()
        assert (a.best, a.best_value, a.trace, a.final_env) == (
            b.best,
            b.best_value,
            b.trace,
            b.final_env,
        )

    def test_smoke_onemax_solved(self):
        p = onemax(32)
        solved = 0
        for seed in range(1, 21):
            start, env = p.sample_initial(env_new(seed))
            r = local_search(
                start,
                p.evaluate,
                perturb_bitflip(1),
                accept_improving(),
                terminate_any(terminate_iterations(10_000), terminate_target(0.0)),
                env,
            )
            if r.best_value == 0.0:
                solved += 1
        assert solved >= 19


class TestSimulatedAnnealingPreset:
    def test_degenerate_matches_improving(self):
        p = onemax(16)
        init, accept = simulated_annealing_preset(0.0, 1.0)

        def run(acceptance, with_init):
            env = env_new(5)
            if with_init:
                _, env = init(None, env)
            start, env = p.sample_initial(env)
            return local_search(
                start, p.evaluate, perturb_bitflip(1), acceptance, terminate_iterations(400), env
            )

        a = run(accept, True)
        b = run(accept_improving(), False)
        assert a.best == b.best
        assert a.trace == b.trace
        assert a.final_env.rng.counter == b.final_env.rng.counter

    def test_rejects_negative_t0(self):
        with pytest.raises(ValueError):
            simulated_annealing_preset(-1.0, 0.9)

    def test_initializer_provides_temperature(self):
        from metafold.components import K_TEMPERATURE

        init, _ = simulated_annealing_preset(10.0, 0.9)
        assert K_TEMPERATURE in init.descriptor.provides
        _, env = init(None, env_new(0))
        assert env.get(K_TEMPERATURE).value == 10.0

    def test_same_seed_same_trace(self):
        p = onemax(16)
        init, accept = simulated_annealing_preset(2.0, 0.95)

        def run():
            env = env_new(6)
            _, env = init(None, env)
            start, env = p.sample_initial(env)
            return local_search(
                start, p.evaluate, perturb_bitflip(1), accept, terminate_iterations(300), env
            )

        assert run().trace == run().trace


class TestIteratedLocalSearch:
    def _inner(self, budget=20):
        return InnerSearch(perturb_bitflip(1), accept_improving(), terminate_iterations(budget))

    def test_zero_outer_budget(self):
        p = onemax(8)
        start, env = p.sample_initial(env_new(1))
        r = iterated_local_search(
            start,
            p.evaluate,
            perturb_bitflip(3),
            self._inner(),
            accept_improving(),
            terminate_iterations(0),
            env,
        )
        assert r.best == start
        assert r.trace == ()

    def test_identity_kick_zero_inner_budget(self):
        p = onemax(8)
        identity = stub("identity", "perturb", lambda s, e: (s, e))
        start, env = p.sample_initial(env_new(2))
        r = iterated_local_search(
            start,
            p.evaluate,
            identity,
            self._inner(budget=0),
            accept_improving(),
            terminate_iterations(5),
            env,
        )
        assert r.best == start

    def test_outer_trace_monotone(self):
        p = onemax(24)
        start, env = p.sample_initial(env_new(3))
        r = iterated_local_search(
            start,
            p.evaluate,
            perturb_bitflip(4),
            self._inner(),
            accept_improving(),
            terminate_iterations(15),
            env,
        )
        values = [row[2] for row in r.trace]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert len(r.trace) == 15

    def test_improves_over_start(self):
        p = onemax(24)
        start, env = p.sample_initial(env_new(4))
        start_value = p.evaluate(start, env_new(0))[0]
        r = iterated_local_search(
            start,
            p.evaluate,
            perturb_bitflip(4),
            self._inner(50),
            accept_improving(),
            terminate_iterations(10),
            env,
        )
        assert r.best_value <= start_value


class TestCrossovers:
    def test_one_point_definition(self):
        a = BitVector.from_string("0000")
        b = BitVector.from_string("1111")
        # find a seed producing cut 2
        for seed in range(200):
            (c1, c2), _ = crossover_one_point()((a, b), env_new(seed))
            if c1 == BitVector.from_string("0011"):
                assert c2 == BitVector.from_string("1100")
                return
        pytest.fail("no seed produced cut 2")

    def test_order1_children_are_permutations(self):
        a = Permutation.of(range(7))
        b = Permutation.of([6, 5, 4, 3, 2, 1, 0])
        env = env_new(9)
        for _ in range(200):
            (c1, c2), env = crossover_order1()((a, b), env)
            assert sorted(c1.order) == list(range(7))
            assert sorted(c2.order) == list(range(7))

    def test_blend_stays_in_segment(self):
        a = RealVector.of([0.0, 10.0])
        b = RealVector.of([1.0, -10.0])
        env = env_new(10)
        for _ in range(100):
            (c1, c2), env = crossover_blend()((a, b), env)
            for child in (c1, c2):
                assert 0.0 <= child.coords[0] <= 1.0
                assert -10.0 <= child.coords[1] <= 10.0


class TestGeneticAlgorithm:
    def test_rejects_odd_pop_size(self):
        p = onemax(8)
        with pytest.raises(ValueError):
            genetic_algorithm(
                5, p.sample_initial, p.evaluate, 2, crossover_one_point(),
                perturb_bitflip(1), terminate_iterations(1), env_new(1),
            )

    def test_forced_convergence(self):
        p = onemax(8)
        identity = stub("identity", "perturb", lambda s, e: (s, e))
        clone = lambda pair, env: (pair, env)
        pop = 8
        r = genetic_algorithm(
            pop, p.sample_initial, p.evaluate, pop, clone, identity,
            terminate_iterations(1), env_new(7),
        )
        # tournament of size pop with best-wins: all parents are the initial
        # best; cloning + identity mutation keeps it; elitism preserves it
        env = env_new(7)
        initial = []
        for _ in range(pop):
            sol, env = p.sample_initial(env)
            initial.append(sol)
        best0 = min(initial, key=lambda s: p.evaluate(s, env_new(0))[0])
        assert r.best == best0

    def test_determinism(self):
        p = onemax(16)

        def run():
            return genetic_algorithm(
                10, p.sample_initial, p.evaluate, 3, crossover_one_point(),
                perturb_bitflip(1), terminate_iterations(20), env_new(11),
            )

        a, b = run(), run()
        assert a.best == b.best and a.trace == b.trace and a.final_env == b.final_env

    def test_trace_monotone(self):
        p = onemax(24)
        r = genetic_algorithm(
            12, p.sample_initial, p.evaluate, 2, crossover_one_point(),
            perturb_bitflip(1), terminate_iterations(30), env_new(12),
        )
        values = [row[2] for row in r.trace]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_real_vector_ga_runs(self):
        p = sphere(3, -5.0, 5.0)
        from metafold.components import perturb_gaussian
        from metafold.components import K_BOUNDS
        from metafold.env import EnvValue

        env = env_new(13).put(K_BOUNDS, EnvValue.of_rseq([-5.0, 5.0]))
        r = genetic_algorithm(
            8, p.sample_initial, p.evaluate, 2, crossover_blend(),
            perturb_gaussian(0.2), terminate_iterations(20), env,
        )
        assert r.best_value < 75.0  # sanity: within the box and finite

    def test_permutation_ga_runs(self):
        p = magic_square(3)
        r = genetic_algorithm(
            10, p.sample_initial, p.evaluate, 2, crossover_order1(),
            perturb_swap(), terminate_iterations(25), env_new(14),
        )
        assert sorted(r.best.order) == list(range(9))

    def test_one_bit_problem_runs_to_completion(self):
        p = onemax(1)
        r = genetic_algorithm(
            4, p.sample_initial, p.evaluate, 2, crossover_one_point(),
            perturb_bitflip(1), terminate_iterations(5), env_new(15),
        )
        assert len(r.trace) == 5
        assert r.best_value == 0.0

    def test_one_point_on_one_bit_passes_parents_without_drawing(self):
        a, b = BitVector.from_string("0"), BitVector.from_string("1")
        env = env_new(16)
        children, out = crossover_one_point()((a, b), env)
        assert children == (a, b)
        assert out.rng == env.rng


# ---------------------------------------------------------------------------
# What each template hands to `terminate`, and the counters it publishes


def sequence(name, kind, solutions):
    """Stub that ignores its input and returns `solutions` in order."""
    pending = list(solutions)
    return stub(name, kind, lambda s, e: (pending.pop(0), e))


def recording_terminate(calls, stop_after):
    """Records (solution, published evaluations) per call; stops once
    `stop_after` iterations have run."""
    from metafold.components import K_EVALUATIONS

    def step(sol, env):
        calls.append((sol, env.get(K_EVALUATIONS).value))
        return env.get(K_ITERATION).value >= stop_after, env

    return stub("recording", "terminate", step)


ALWAYS_INCOMING = stub("always", "accept", lambda pair, e: (pair[1], e))
B = BitVector.from_string


class TestWhatTerminateReceives:
    def test_local_search_passes_the_incumbent(self):
        p = onemax(4)
        calls = []
        r = local_search(
            B("0000"),
            p.evaluate,
            sequence("seq", "perturb", [B("1000"), B("1100"), B("0000")]),
            ALWAYS_INCOMING,
            recording_terminate(calls, 3),
            env_new(1),
        )
        assert calls == [(B("0000"), 1), (B("1000"), 2), (B("1100"), 3), (B("0000"), 4)]
        assert r.trace == ((1, 2, 3.0), (2, 3, 2.0), (3, 4, 2.0))
        assert r.best == B("1100") and r.best_value == 2.0
        assert r.final_env.get(K_ITERATION).value == 3

    def test_ils_passes_the_current_solution(self):
        p = onemax(4)
        calls = []
        r = iterated_local_search(
            B("0000"),
            p.evaluate,
            sequence("kick", "perturb", [B("1000"), B("1110"), B("0000")]),
            InnerSearch(perturb_bitflip(1), accept_improving(), terminate_iterations(0)),
            ALWAYS_INCOMING,
            recording_terminate(calls, 3),
            env_new(2),
        )
        # zero inner steps: each outer step spends the inner start evaluation
        assert calls == [(B("0000"), 1), (B("1000"), 2), (B("1110"), 3), (B("0000"), 4)]
        assert r.trace == ((1, 2, 3.0), (2, 3, 1.0), (3, 4, 1.0))
        assert r.best == B("1110") and r.best_value == 1.0

    def test_ils_counts_inner_evaluations(self):
        p = onemax(4)
        calls = []
        r = iterated_local_search(
            B("0000"),
            p.evaluate,
            stub("identity", "perturb", lambda s, e: (s, e)),
            InnerSearch(
                sequence("seq", "perturb", [B("1000"), B("0000"), B("1100")]),
                accept_improving(),
                terminate_iterations(1),
            ),
            accept_improving(),
            recording_terminate(calls, 3),
            env_new(3),
        )
        assert calls == [(B("0000"), 1), (B("1000"), 3), (B("1000"), 5), (B("1100"), 7)]
        assert r.trace == ((1, 3, 3.0), (2, 5, 3.0), (3, 7, 2.0))

    def test_ga_passes_the_best_so_far(self):
        p = onemax(16)
        pop = 6
        calls = []
        r = genetic_algorithm(
            pop, p.sample_initial, p.evaluate, 2, crossover_one_point(),
            perturb_bitflip(2), recording_terminate(calls, 8), env_new(4),
        )
        assert [evals for _, evals in calls] == [pop * (g + 1) for g in range(9)]
        assert [row[1] for row in r.trace] == [pop * (g + 2) for g in range(8)]
        values = [p.evaluate(sol, env_new(0))[0] for sol, _ in calls]
        # the initial best, then the best value the trace shows after each generation
        env, initial = env_new(4), []
        for _ in range(pop):
            sol, env = p.sample_initial(env)
            initial.append(p.evaluate(sol, env_new(0))[0])
        assert values == [min(initial)] + [row[2] for row in r.trace]
        assert calls[-1][0] == r.best


class TestRunResultEvaluations:
    """`RunResult.evaluations` is what the search spent, start included."""

    def test_ga_that_stops_at_once_spent_its_population(self):
        p = onemax(16)
        r = genetic_algorithm(
            10, p.sample_initial, p.evaluate, 2, crossover_one_point(),
            perturb_bitflip(1), terminate_iterations(0), env_new(1),
        )
        assert r.trace == () and r.evaluations == 10

    def test_agrees_with_the_last_trace_row(self):
        p = onemax(8)
        start, env = p.sample_initial(env_new(4))
        ls = local_search(
            start, p.evaluate, perturb_bitflip(1), accept_improving(),
            terminate_iterations(7), env,
        )
        inner = InnerSearch(perturb_bitflip(1), accept_improving(), terminate_iterations(4))
        ils = iterated_local_search(
            start, p.evaluate, perturb_bitflip(2), inner, accept_improving(),
            terminate_iterations(3), env,
        )
        assert ls.evaluations == ls.trace[-1][1] == 8
        # per outer step: the kicked start plus 4 inner moves
        assert ils.evaluations == ils.trace[-1][1] == 1 + 3 * 5
