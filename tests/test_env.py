import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metafold.env import (
    EnvKey,
    EnvValue,
    Environment,
    RngState,
    env_new,
    rng_below,
    rng_uniform,
    step_identity,
    step_then,
)

TEMP = EnvKey("sa", "temperature")


class TestEnvKey:
    def test_render(self):
        assert EnvKey("sa", "temperature").render() == "sa.temperature"

    def test_parse_round_trip(self):
        assert EnvKey.parse("tabu.list") == EnvKey("tabu", "list")

    @pytest.mark.parametrize("ns,name", [("", "x"), ("a.b", "x"), ("a", "x y"), ("a", "")])
    def test_rejects_bad_tokens(self, ns, name):
        with pytest.raises(ValueError):
            EnvKey(ns, name)

    def test_rendering_injective(self):
        keys = [EnvKey(a, b) for a in ("a", "b", "a_b") for b in ("c", "d", "c_d")]
        assert len({k.render() for k in keys}) == len(keys)


class TestEnvironment:
    def test_new_is_empty_with_seed(self):
        e = env_new(7)
        assert dict(e.entries) == {}
        assert e.rng == RngState(7, 0)

    def test_new_deterministic(self):
        assert env_new(7) == env_new(7)
        assert env_new(7) != env_new(8)

    def test_put_get_round_trip(self):
        e = env_new(0).put(TEMP, EnvValue.of_real(10.0))
        assert e.get(TEMP) == EnvValue.of_real(10.0)

    def test_put_last_wins(self):
        e = env_new(0).put(TEMP, EnvValue.of_real(1.0)).put(TEMP, EnvValue.of_real(2.0))
        assert e.get(TEMP).value == 2.0

    def test_put_does_not_mutate_input(self):
        e = env_new(0)
        e.put(TEMP, EnvValue.of_real(1.0))
        assert e.get(TEMP) is None

    def test_get_absent_and_wrong_namespace(self):
        e = env_new(0).put(TEMP, EnvValue.of_real(1.0))
        assert env_new(0).get(TEMP) is None
        assert e.get(EnvKey("other", "temperature")) is None

    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        others=st.lists(
            st.tuples(st.sampled_from("abcd"), st.sampled_from("wxyz"), st.integers()),
            max_size=5,
        ),
    )
    def test_put_preserves_other_keys(self, seed, others):
        e = env_new(seed)
        for ns, name, v in others:
            e = e.put(EnvKey(ns, name), EnvValue.of_int(v))
        before = {k: e.get(k) for k in e.entries}
        updated = e.put(EnvKey("fresh", "key"), EnvValue.of_int(1))
        for k, v in before.items():
            assert updated.get(k) == v


class TestEnvValue:
    @pytest.mark.parametrize(
        "value",
        [
            EnvValue.of_int(-(2**63)),
            EnvValue.of_int(2**63 - 1),
            EnvValue.of_real(0.1 + 0.2),
            EnvValue.of_real(-1e308),
            EnvValue.of_bool(True),
            EnvValue.of_text("héllo"),
            EnvValue.of_rseq([1.5, 2.0 / 3.0]),
            EnvValue.of_iseq([1, -2, 3]),
            EnvValue.of_dseq([2**64 - 1, 0]),
            EnvValue.of_sol('{"t":"bits","v":"0101"}'),
        ],
    )
    def test_serialization_round_trip(self, value):
        text = json.dumps(value.to_json())
        assert EnvValue.from_json(json.loads(text)) == value

    def test_rejects_unknown_tag(self):
        with pytest.raises(ValueError):
            EnvValue("matrix", [[1]])


class TestEnvironmentSerialization:
    def test_shape(self):
        e = env_new(7).put(TEMP, EnvValue.of_real(10.0))
        obj = json.loads(e.serialize())
        assert obj["rng"] == {"seed": "7", "counter": "0"}
        assert obj["entries"]["sa.temperature"] == {"t": "real", "v": 10.0}

    def test_round_trip_exact(self):
        e = env_new(12345)
        e = e.put(TEMP, EnvValue.of_real(0.1 + 0.2))
        e = e.put(EnvKey("tabu", "list"), EnvValue.of_dseq([2**63 + 17]))
        for _ in range(3):
            _, e = rng_uniform(e)
        assert Environment.deserialize(e.serialize()) == e


class TestRng:
    def test_uniform_pure(self):
        a, _ = rng_uniform(env_new(5))
        b, _ = rng_uniform(env_new(5))
        assert a == b

    def test_counter_advances_by_one(self):
        e = env_new(5)
        counters = [e.rng.counter]
        for _ in range(3):
            _, e = rng_uniform(e)
            counters.append(e.rng.counter)
        assert counters == [0, 1, 2, 3]

    def test_uniform_range_and_mean(self):
        e = env_new(1)
        total = 0.0
        n = 10**6
        for _ in range(n):
            u, e = rng_uniform(e)
            assert 0.0 <= u < 1.0
            total += u
        assert abs(total / n - 0.5) < 0.01

    def test_below_one_outcome(self):
        v, e = rng_below(env_new(9), 1)
        assert v == 0
        assert e.rng.counter == 1

    def test_below_rejects_zero(self):
        with pytest.raises(ValueError):
            rng_below(env_new(0), 0)

    def test_below_pure(self):
        a, _ = rng_below(env_new(5), 17)
        b, _ = rng_below(env_new(5), 17)
        assert a == b

    def test_below_histogram(self):
        e = env_new(3)
        counts = [0, 0, 0, 0]
        n = 10**5
        for _ in range(n):
            v, e = rng_below(e, 4)
            counts[v] += 1
        for c in counts:
            assert abs(c / n - 0.25) < 0.02

    def test_replay_determinism(self):
        def draws(seed):
            e = env_new(seed)
            out = []
            for _ in range(200):
                u, e = rng_uniform(e)
                out.append(u)
            return out

        assert draws(11) == draws(11)


def _write(key, value):
    def step(x, env):
        return x, env.put(key, EnvValue.of_int(value))

    return step


def _read(key):
    def step(x, env):
        v = env.get(key)
        return (v.value if v else None), env

    return step


class TestStepThen:
    def test_identity_laws(self):
        e = env_new(1)
        for composed in (
            step_then(step_identity, step_identity),
            step_then(step_identity, _write(TEMP, 3)),
            step_then(_write(TEMP, 3), step_identity),
        ):
            out, env = composed("x", e)
            # composing with identity changes nothing about threading
            assert out in ("x",)

    def test_threading(self):
        k = EnvKey("a", "b")
        out, _ = step_then(_write(k, 42), _read(k))(None, env_new(0))
        assert out == 42

    @given(st.integers(min_value=0, max_value=1000), st.data())
    @settings(max_examples=50)
    def test_associativity(self, seed, data):
        k1, k2 = EnvKey("a", "x"), EnvKey("a", "y")

        def rand_step(choice):
            if choice == 0:
                return _write(k1, 1)
            if choice == 1:
                return _write(k2, 2)
            if choice == 2:
                return _read(k1)
            return lambda x, env: rng_uniform(env)

        a, b, c = (
            rand_step(data.draw(st.integers(min_value=0, max_value=3)))
            for _ in range(3)
        )
        e = env_new(seed)
        left = step_then(step_then(a, b), c)(None, e)
        right = step_then(a, step_then(b, c))(None, e)
        assert left == right


@pytest.mark.parametrize("tag", ["matrix", "of_int", "INT", "", "__class__"])
def test_from_json_rejects_unknown_tag(tag):
    with pytest.raises(ValueError, match="unknown EnvValue tag"):
        EnvValue.from_json({"t": tag, "v": 1})


def test_from_json_parses_dseq_strings():
    assert EnvValue.from_json({"t": "dseq", "v": [str(2**64 - 1), "0"]}) == EnvValue.of_dseq(
        [2**64 - 1, 0]
    )


class TestRngBelowRange:
    def test_above_two_to_the_64_raises_instead_of_spinning(self):
        with pytest.raises(ValueError):
            rng_below(env_new(1), 2**64 + 1)

    def test_two_to_the_64_accepts_every_draw(self):
        v, e = rng_below(env_new(1), 2**64)
        assert 0 <= v < 2**64
        assert e.rng.counter == 1
