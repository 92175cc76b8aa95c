import inspect
from dataclasses import replace

import pytest

from metafold.assembly import ConfigurationSpec, instantiate, parse_initializers, validate
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
from metafold.env import EnvValue, env_new
from metafold.frameworks import (
    FRAMEWORKS,
    genetic_algorithm,
    iterated_local_search,
    local_search,
    simulated_annealing_preset,
    terminate_any,
)
from metafold.palette import default_registry
from metafold.problems import onemax, magic_square, problem_instance, sphere
from metafold.solutions import (
    BitVector,
    Permutation,
    RealVector,
    crossover_blend,
    crossover_one_point,
    crossover_order1,
)


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
                env = env.put(*init)
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
        with pytest.raises(ValueError, match="t0 must be nonnegative"):
            simulated_annealing_preset(float("nan"), 0.9)

    def test_initializer_provides_temperature(self):
        from metafold.components import K_TEMPERATURE

        init, _ = simulated_annealing_preset(10.0, 0.9)
        assert init == (K_TEMPERATURE, EnvValue.of_real(10.0))
        assert env_new(0).put(*init).get(K_TEMPERATURE).value == 10.0

    def test_initializer_is_what_a_spec_lists(self):
        # the pair is a spec's initializer as written, and its spec validates
        init, _ = simulated_annealing_preset(2.0, 0.95)
        spec = ConfigurationSpec.make(
            "local_search",
            {"perturb": ("bitflip", {}), "accept": ("metropolis", {"cooling": 0.95}),
             "terminate": ("max_iterations", {"max": 30})},
            initializers=[init],
        )
        assert parse_initializers(spec.to_json()["initializers"]) == (init,)
        assert validate(spec, default_registry()) == []

    def test_same_seed_same_trace(self):
        p = onemax(16)
        init, accept = simulated_annealing_preset(2.0, 0.95)

        def run():
            env = env_new(6).put(*init)
            start, env = p.sample_initial(env)
            return local_search(
                start, p.evaluate, perturb_bitflip(1), accept, terminate_iterations(300), env
            )

        assert run().trace == run().trace


class TestIteratedLocalSearch:
    def _inner(self, budget=20):
        # the inner perturb, accept and terminate, in the template's order
        return perturb_bitflip(1), accept_improving(), terminate_iterations(budget)

    def test_zero_outer_budget(self):
        p = onemax(8)
        start, env = p.sample_initial(env_new(1))
        r = iterated_local_search(
            start,
            p.evaluate,
            perturb_bitflip(3),
            *self._inner(),
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
            *self._inner(budget=0),
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
            *self._inner(),
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
            *self._inner(50),
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
        a = Permutation(range(7))
        b = Permutation([6, 5, 4, 3, 2, 1, 0])
        env = env_new(9)
        for _ in range(200):
            (c1, c2), env = crossover_order1()((a, b), env)
            assert sorted(c1.order) == list(range(7))
            assert sorted(c2.order) == list(range(7))

    def test_blend_stays_in_segment(self):
        a = RealVector([0.0, 10.0])
        b = RealVector([1.0, -10.0])
        env = env_new(10)
        for _ in range(100):
            (c1, c2), env = crossover_blend()((a, b), env)
            for child in (c1, c2):
                assert 0.0 <= child.coords[0] <= 1.0
                assert -10.0 <= child.coords[1] <= 10.0


class TestGeneticAlgorithm:
    def test_odd_pop_size_runs(self):
        # 3 pairs are bred and 5 children kept, so each generation spends 5
        p = onemax(8)
        r = genetic_algorithm(
            5, p.sample_initial, p.evaluate, 2, crossover_one_point(),
            perturb_bitflip(1), terminate_iterations(3), env_new(1),
        )
        assert [row[1] for row in r.trace] == [10, 15, 20]

    def test_a_representation_without_a_crossover_is_refused_before_any_draw(self):
        drawn = []

        def sample(env):
            drawn.append(env)
            return {"x": 0}, env

        problem = replace(
            problem_instance("zero", "zero", "assignment", 1, lambda a: 0, domains={"x": (0, 1)}),
            sample_initial=sample,
        )
        parts = {"mutate": stub("m", "perturb", None), "terminate": terminate_iterations(1)}
        with pytest.raises(ValueError, match="no crossover for representation 'assignment'"):
            FRAMEWORKS["ga"].run(problem, parts, {"pop_size": 4, "tournament_size": 2}, env_new(1))
        assert drawn == []

    def test_rejects_pop_size_below_2(self):
        p = onemax(8)
        with pytest.raises(ValueError, match="at least 2"):
            genetic_algorithm(
                1, p.sample_initial, p.evaluate, 2, crossover_one_point(),
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

    def test_order1_on_one_element_passes_parents_without_drawing(self):
        a, b = Permutation([0]), Permutation([0])
        env = env_new(16)
        children, out = crossover_order1()((a, b), env)
        assert children[0] is a and children[1] is b
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
            perturb_bitflip(1),
            accept_improving(),
            terminate_iterations(0),
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
            sequence("seq", "perturb", [B("1000"), B("0000"), B("1100")]),
            accept_improving(),
            terminate_iterations(1),
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
        ils = iterated_local_search(
            start, p.evaluate, perturb_bitflip(2),
            perturb_bitflip(1), accept_improving(), terminate_iterations(4),
            accept_improving(), terminate_iterations(3), env,
        )
        assert ls.evaluations == ls.trace[-1][1] == 8
        # per outer step: the kicked start plus 4 inner moves
        assert ils.evaluations == ils.trace[-1][1] == 1 + 3 * 5


class TestTemplateTable:
    """A template takes its parts by slot name, so `FRAMEWORKS` alone
    declares a slot."""

    TEMPLATES = {
        "local_search": local_search, "ils": iterated_local_search, "ga": genetic_algorithm,
    }

    def test_each_slot_and_param_is_a_parameter_of_its_template(self):
        assert set(self.TEMPLATES) == set(FRAMEWORKS)
        for name, framework in FRAMEWORKS.items():
            parameters = inspect.signature(self.TEMPLATES[name]).parameters
            for slot, _kind in framework.slots:
                assert slot in parameters, (name, slot)
            for param in framework.params:
                assert param.name in parameters, (name, param.name)

    @pytest.mark.parametrize("params", [{"pop_size": 20.0}, {"tournament_size": 2.0}])
    def test_an_integral_float_ga_param_runs_as_its_int(self, params):
        def run(framework_params):
            spec = ConfigurationSpec.make(
                "ga",
                {"mutate": ("bitflip", {"k": 1}), "terminate": ("max_iterations", {"max": 3})},
                framework_params=framework_params,
            )
            return instantiate(spec, default_registry(), onemax(8), 5)()

        ints = {name: int(value) for name, value in params.items()}
        assert run(params) == run(ints) == run({})
