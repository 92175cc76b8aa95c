import math
import statistics

import pytest

from conftest import accesses

from metafold.components import (
    FRAMEWORK_KEYS,
    Component,
    ComponentDescriptor,
    K_BOUNDS,
    KINDS,
    K_INCOMING_VALUE,
    K_INCUMBENT_VALUE,
    K_TABU_LIST,
    K_TEMPERATURE,
    Param,
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
from metafold.components import K_BEST_VALUE, K_EVALUATIONS, K_ITERATION
from metafold.env import (
    ComponentContractError,
    ConfigurationError,
    EnvKey,
    EnvValue,
    env_new,
    rng_below,
    rng_uniform,
)
from metafold.rpc import _METHODS
from metafold.solutions import (
    BitVector,
    Permutation,
    RealVector,
    solution_digest,
)


def with_values(env, incumbent, incoming):
    env = env.put(K_INCUMBENT_VALUE, EnvValue.of_real(incumbent))
    return env.put(K_INCOMING_VALUE, EnvValue.of_real(incoming))


class TestBitflip:
    def test_single_flip_matches_pinned_draw(self):
        # find a seed whose first rng_below(4) draw is index 2, then check
        # the perturbation flips exactly that bit
        seed = next(s for s in range(1000) if rng_below(env_new(s), 4)[0] == 2)
        out, _ = perturb_bitflip(1)(BitVector.from_string("0000"), env_new(seed))
        assert out == BitVector.from_string("0010")

    def test_k_equals_n_is_complement(self):
        out, _ = perturb_bitflip(4)(BitVector.from_string("0110"), env_new(3))
        assert out == BitVector.from_string("1001")

    def test_hamming_distance_is_k(self):
        env = env_new(5)
        sol = BitVector.from_string("10110100")
        for _ in range(1000):
            out, env = perturb_bitflip(3)(sol, env)
            assert sum(a != b for a, b in zip(sol.bits, out.bits)) == 3
            sol = out

    def test_representation_mismatch(self):
        with pytest.raises(ComponentContractError):
            perturb_bitflip(1)(Permutation([0, 1]), env_new(0))

    def test_k_larger_than_n(self):
        with pytest.raises(ComponentContractError):
            perturb_bitflip(5)(BitVector.from_string("0000"), env_new(0))

    @pytest.mark.parametrize("seed", range(5))
    def test_bool_and_float_bits_flip_like_int_bits(self, seed):
        ints = (1, 0, 1, 1, 0, 0)
        want, want_env = perturb_bitflip(2)(BitVector(ints), env_new(seed))
        for bits in (tuple(map(bool, ints)), tuple(map(float, ints))):
            out, env = perturb_bitflip(2)(BitVector(bits), env_new(seed))
            assert out == want
            assert out.to_string() == want.to_string()
            assert env.rng.counter == want_env.rng.counter


class TestPermutationPerturbs:
    def test_swap_two_elements(self):
        out, _ = perturb_swap()(Permutation([0, 1]), env_new(1))
        assert out == Permutation([1, 0])

    def test_two_opt_segment_reversal(self):
        # scan seeds for draws yielding cuts (1, 3)
        base = Permutation([0, 1, 2, 3, 4])
        target = Permutation([0, 3, 2, 1, 4])
        found = any(
            perturb_two_opt()(base, env_new(s))[0] == target for s in range(200)
        )
        assert found

    def test_outputs_remain_bijections(self):
        env = env_new(7)
        sol = Permutation(range(9))
        for component in (perturb_swap(), perturb_two_opt()):
            for _ in range(500):
                sol, env = component(sol, env)
                assert sorted(sol.order) == list(range(9))

    def test_representation_mismatch(self):
        with pytest.raises(ComponentContractError):
            perturb_swap()(BitVector.from_string("01"), env_new(0))


class TestGaussian:
    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            perturb_gaussian(0.0)

    def test_matches_box_muller_oracle(self):
        # oracle: replay the same uniform draws through the formula
        sigma = 0.5
        env = env_new(11)
        sol = RealVector([1.0, -2.0, 0.25])
        out, _ = perturb_gaussian(sigma)(sol, env)
        u1, e = rng_uniform(env)
        u2, e = rng_uniform(e)
        r = math.sqrt(-2.0 * math.log(1.0 - u1))
        z1, z2 = r * math.cos(2 * math.pi * u2), r * math.sin(2 * math.pi * u2)
        u3, e = rng_uniform(e)
        u4, e = rng_uniform(e)
        z3 = math.sqrt(-2.0 * math.log(1.0 - u3)) * math.cos(2 * math.pi * u4)
        expected = [1.0 + sigma * z1, -2.0 + sigma * z2, 0.25 + sigma * z3]
        assert list(out.coords) == pytest.approx(expected, abs=1e-12)

    def test_variate_at_half_half(self):
        # the classical pinned point: u1 = u2 = 0.5 gives
        # z = sqrt(-2 ln 0.5) * cos(pi) = -1.17741...
        z = math.sqrt(-2 * math.log(0.5)) * math.cos(math.pi)
        assert z == pytest.approx(-1.1774100225154747)

    def test_empirical_sd(self):
        sigma = 2.0
        env = env_new(13)
        samples = []
        component = perturb_gaussian(sigma)
        zero = RealVector([0.0])
        for _ in range(10**5 // 2):
            out, env = component(zero, env)
            samples.append(out.coords[0])
        sd = statistics.pstdev(samples)
        assert abs(sd - sigma) / sigma < 0.05

    def test_clamps_to_bounds(self):
        env = env_new(1).put(K_BOUNDS, EnvValue.of_rseq([-1.0, 1.0]))
        component = perturb_gaussian(100.0)
        out, _ = component(RealVector([0.0, 0.0, 0.0]), env)
        assert all(-1.0 <= c <= 1.0 for c in out.coords)

    def test_representation_mismatch(self):
        with pytest.raises(ComponentContractError):
            perturb_gaussian(1.0)(BitVector.from_string("01"), env_new(0))


A = BitVector.from_string("0000")
B = BitVector.from_string("1111")


class TestAcceptImproving:
    @pytest.mark.parametrize(
        "incumbent_v,incoming_v,expect_incoming",
        [(10.0, 8.0, True), (10.0, 10.0, True), (10.0, 12.0, False)],
    )
    def test_rule(self, incumbent_v, incoming_v, expect_incoming):
        env = with_values(env_new(0), incumbent_v, incoming_v)
        out, env2 = accept_improving()((A, B), env)
        assert out == (B if expect_incoming else A)
        assert env2.rng.counter == 0  # no randomness consumed

    def test_missing_keys(self):
        with pytest.raises(ConfigurationError):
            accept_improving()((A, B), env_new(0))


class TestAcceptMetropolis:
    def setup_method(self):
        self.component = accept_metropolis(cooling=1.0)

    def _env(self, temperature, incumbent_v, incoming_v, seed=0):
        env = env_new(seed).put(K_TEMPERATURE, EnvValue.of_real(temperature))
        return with_values(env, incumbent_v, incoming_v)

    def test_accepts_when_u_below_threshold(self):
        # delta=2, T=2: threshold e^-1 ~ 0.3679; find seeds either side
        threshold = math.exp(-1.0)
        seed_lo = next(s for s in range(500) if rng_uniform(env_new(s))[0] < 0.2)
        seed_hi = next(s for s in range(500) if rng_uniform(env_new(s))[0] > 0.5)
        out, _ = self.component((A, B), self._env(2.0, 10.0, 12.0, seed_lo))
        assert out == B
        out, _ = self.component((A, B), self._env(2.0, 10.0, 12.0, seed_hi))
        assert out == A
        assert rng_uniform(env_new(seed_lo))[0] < threshold < rng_uniform(env_new(seed_hi))[0]

    def test_improving_short_circuit_consumes_no_rng(self):
        out, env = self.component((A, B), self._env(5.0, 10.0, 9.0))
        assert out == B
        assert env.rng.counter == 0

    def test_zero_temperature_rejects_without_drawing(self):
        out, env = self.component((A, B), self._env(0.0, 10.0, 12.0))
        assert out == A
        assert env.rng.counter == 0

    def test_cooling_update(self):
        component = accept_metropolis(cooling=0.5)
        _, env = component((A, B), self._env(8.0, 10.0, 9.0))
        assert env.get(K_TEMPERATURE).value == 4.0

    def test_rejects_bad_cooling(self):
        for bad in (0.0, 1.5, -1.0):
            with pytest.raises(ValueError):
                accept_metropolis(bad)

    def test_missing_temperature(self):
        with pytest.raises(ConfigurationError):
            self.component((A, B), with_values(env_new(0), 1.0, 2.0))

    def test_zero_temperature_equals_improving(self):
        improving = accept_improving()
        frozen = accept_metropolis(cooling=1.0)
        env0 = env_new(17)
        u_values = []
        e = env0
        for _ in range(10**4):
            u, e = rng_uniform(e)
            u_values.append(u)
        for i, u in enumerate(u_values):
            incumbent_v = 10.0 * u
            incoming_v = 10.0 * u_values[(i * 7 + 3) % len(u_values)]
            env = with_values(env_new(i), incumbent_v, incoming_v)
            out_imp, env_imp = improving((A, B), env)
            env_met = env.put(K_TEMPERATURE, EnvValue.of_real(0.0))
            out_met, env_met = frozen((A, B), env_met)
            assert out_imp == out_met
            assert env_imp.rng.counter == env_met.rng.counter == 0


class TestAcceptTabu:
    def test_first_move_accepted(self):
        out, env = accept_tabu(3)((A, B), with_values(env_new(0), 1.0, 2.0))
        assert out == B
        assert env.get(K_TABU_LIST).value == (solution_digest(B),)

    def test_recent_acceptance_is_tabu(self):
        env = with_values(env_new(0), 1.0, 2.0)
        component = accept_tabu(3)
        _, env = component((A, B), env)
        out, env2 = component((A, B), env)
        assert out == A
        assert env2.get(K_TABU_LIST) == env.get(K_TABU_LIST)

    def test_tenure_trims(self):
        component = accept_tabu(1)
        env = with_values(env_new(0), 1.0, 2.0)
        c = BitVector.from_string("0011")
        _, env = component((A, B), env)
        _, env = component((B, c), env)
        # only c is tabu now; B became acceptable again
        out, _ = component((c, B), env)
        assert out == B

    def test_stored_list_is_what_the_checked_constructor_builds(self):
        component = accept_tabu(2)
        env = with_values(env_new(0), 1.0, 2.0)
        for incoming in (B, BitVector.from_string("0011"), BitVector.from_string("1111")):
            _, env = component((A, incoming), env)
            stored = env.get(K_TABU_LIST)
            checked = EnvValue.of_dseq(stored.value)
            assert type(stored) is EnvValue and repr(stored) == repr(checked)
        assert len(stored.value) == 2

    def test_accepted_never_in_prior_list(self):
        component = accept_tabu(4)
        env = with_values(env_new(9), 1.0, 2.0)
        incumbent = A
        candidates = [BitVector.from_string(f"{i:04b}") for i in range(16)]
        for i in range(200):
            incoming = candidates[(i * 5) % 16]
            prior = env.get(K_TABU_LIST)
            prior_digests = prior.value if prior else ()
            out, env = component((incumbent, incoming), env)
            if out == incoming and incoming != incumbent:
                assert solution_digest(incoming) not in prior_digests
            incumbent = out


class TestTerminate:
    def _env(self, iteration=0, evaluations=0, best=1.0):
        env = env_new(0).put(K_ITERATION, EnvValue.of_int(iteration))
        env = env.put(K_EVALUATIONS, EnvValue.of_int(evaluations))
        return env.put(K_BEST_VALUE, EnvValue.of_real(best))

    def test_zero_budget_immediate(self):
        done, _ = terminate_iterations(0)(A, self._env())
        assert done is True

    def test_boundary(self):
        t = terminate_iterations(100)
        assert t(A, self._env(iteration=99))[0] is False
        assert t(A, self._env(iteration=100))[0] is True

    def test_evaluations(self):
        t = terminate_evaluations(50)
        assert t(A, self._env(evaluations=49))[0] is False
        assert t(A, self._env(evaluations=50))[0] is True

    def test_target(self):
        t = terminate_target(0.0)
        assert t(A, self._env(best=0.5))[0] is False
        assert t(A, self._env(best=0.0))[0] is True

    def test_missing_framework_keys(self):
        with pytest.raises(ConfigurationError):
            terminate_iterations(5)(A, env_new(0))


class TestDescriptors:
    def test_metropolis_descriptor(self):
        d = accept_metropolis(0.9).descriptor
        assert K_TEMPERATURE in d.requires
        assert K_TEMPERATURE in d.provides

    def test_improving_descriptor(self):
        d = accept_improving().descriptor
        assert d.requires == {K_INCUMBENT_VALUE, K_INCOMING_VALUE}
        assert d.provides == frozenset()

    def test_bitflip_descriptor(self):
        d = perturb_bitflip(1).descriptor
        assert [(p.name, p.type, p.default, p.min) for p in d.params] == [
            ("k", "int", 1, 1)
        ]

    def test_descriptor_identical_across_calls(self):
        c = accept_tabu(5)
        assert c.descriptor == c.descriptor

    def test_every_kind_is_served_over_rpc(self):
        # a kind without a wire method could be registered but never served
        assert set(KINDS) == set(_METHODS)

    def test_initializer_is_no_component_kind(self):
        # initializers are (key, value) pairs of a spec, not components
        with pytest.raises(ValueError, match="unknown component kind"):
            ComponentDescriptor("x", "initializer")

    def test_an_unknown_param_type_is_a_value_error_naming_it(self):
        with pytest.raises(ValueError, match=r"^x\.k: unknown param type 'foo'$"):
            ComponentDescriptor("x", "perturb", (Param("k", "foo", 1),))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("type", "foo", "param.type must be one of int, real, got 'foo'"),
            ("min", "1", "param.min must be a number, got string"),
            ("max", True, "param.max must be a number, got boolean"),
            ("max", [1], "param.max must be a number, got array"),
            ("default", None, "param.default must be a number, got null"),
        ],
    )
    def test_a_param_json_outside_its_shape_is_a_value_error(self, field, value, message):
        obj = {**Param("k", "int", 1, min=1).to_json(), field: value}
        with pytest.raises(ValueError) as caught:
            Param.from_json(obj)
        assert str(caught.value) == message

    def test_a_descriptor_json_names_the_part_at_fault(self):
        obj = perturb_bitflip(1).descriptor.to_json()
        obj["params"][0]["min"] = "1"
        with pytest.raises(ValueError, match=r"^descriptor\.params\[0\]\.min must be a number, got string$"):
            ComponentDescriptor.from_json(obj)
        del obj["params"][0]["min"]
        with pytest.raises(ValueError, match=r"^missing key 'min' at at\.params\[0\]$"):
            ComponentDescriptor.from_json(obj, "at")


def declared_access_violations(component, payload, env):
    """What `component(payload, env)` reads beyond its requires and the
    framework keys, and what it writes beyond its provides."""
    reads, writes = accesses(component, payload, env)
    d = component.descriptor
    return reads - set(d.requires) - set(FRAMEWORK_KEYS), writes - set(d.provides)


class TestInstrumentedAccess:
    """Components read only requires + framework keys and write only provides."""

    def _check(self, component, payload, env):
        assert declared_access_violations(component, payload, env) == (set(), set())

    def test_perturbs(self):
        self._check(perturb_bitflip(1), A, env_new(1))
        self._check(perturb_swap(), Permutation(range(5)), env_new(2))
        self._check(perturb_two_opt(), Permutation(range(5)), env_new(3))
        env = env_new(4).put(K_BOUNDS, EnvValue.of_rseq([-1.0, 1.0]))
        self._check(perturb_gaussian(0.5), RealVector([0.0, 1.0]), env)

    def test_accepts(self):
        for component, extra in (
            (accept_improving(), {}),
            (accept_metropolis(0.9), {K_TEMPERATURE: EnvValue.of_real(1.0)}),
            (accept_tabu(3), {}),
        ):
            env = with_values(env_new(5), 3.0, 5.0).put_many(extra)
            self._check(component, (A, B), env)

    def test_terminates(self):
        for component in (
            terminate_iterations(5),
            terminate_evaluations(5),
            terminate_target(0.0),
        ):
            env = env_new(6).put_many({
                K_ITERATION: EnvValue.of_int(1),
                K_EVALUATIONS: EnvValue.of_int(1),
                K_BEST_VALUE: EnvValue.of_real(1.0),
            })
            self._check(component, A, env)

    def test_an_undeclared_read_and_write_are_both_caught(self):
        secret, stray = EnvKey("stub", "secret"), EnvKey("stub", "stray")

        def step(sol, env):
            env.entries.get(secret)
            return sol, env.put(stray, EnvValue.of_int(1))

        stub = Component(ComponentDescriptor("stub", "perturb"), step)
        assert declared_access_violations(stub, A, env_new(7)) == ({secret}, {stray})


@pytest.mark.parametrize(
    "component, payload",
    [
        (accept_improving(), (A, B)),
        (accept_metropolis(0.9), (A, B)),
        (terminate_iterations(5), A),
        (terminate_evaluations(5), A),
        (terminate_target(0.0), A),
    ],
)
def test_required_keys_are_read_from_the_entries_and_declared(component, payload):
    # These components read their keys from `env.entries` rather than
    # through `env.get`; the tracker sees both.
    env = with_values(env_new(1), 3.0, 5.0)
    env = env.put_many({
        K_TEMPERATURE: EnvValue.of_real(1.0),
        K_ITERATION: EnvValue.of_int(1),
        K_EVALUATIONS: EnvValue.of_int(1),
        K_BEST_VALUE: EnvValue.of_real(1.0),
    })
    reads, _ = accesses(component, payload, env)
    assert reads
    assert reads <= set(component.descriptor.requires) | set(FRAMEWORK_KEYS)
