import json
import re
from dataclasses import dataclass
from typing import Any, Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metafold.env import (
    VALUE_TAGS,
    EnvKey,
    EnvValue,
    Environment,
    RngState,
    _raw64,
    env_new,
    rng_below,
    rng_bits,
    rng_uniform,
)

TEMP = EnvKey("sa", "temperature")


class TestEnvKey:
    def test_render(self):
        assert EnvKey("sa", "temperature").render() == "sa.temperature"

    def test_parse_round_trip(self):
        assert EnvKey.parse("tabu.list") == EnvKey("tabu", "list")

    @pytest.mark.parametrize(
        "ns,name",
        [("", "x"), ("a.b", "x"), ("a", "x y"), ("a", ""), ("a\n", "b"), ("a", "b\n")],
    )
    def test_rejects_bad_tokens(self, ns, name):
        with pytest.raises(ValueError, match="invalid env key token"):
            EnvKey(ns, name)

    @pytest.mark.parametrize("text", ["sa.temperature\n", "sa\n.temperature", "sa.temperature\r"])
    def test_parse_rejects_a_trailing_line_break(self, text):
        # `$` in a `match` accepted a token ending in "\n"
        with pytest.raises(ValueError, match="invalid env key token"):
            EnvKey.parse(text)

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


class TestUncheckedInternals:
    """The hot-path constructors skip checks only where nothing can fail."""

    LAST = 2**64 - 1

    @pytest.mark.parametrize("draw", [rng_uniform, lambda env: rng_below(env, 3)])
    def test_the_end_of_the_stream_still_raises(self, draw):
        env = Environment(entries={}, rng=RngState(7, self.LAST))
        with pytest.raises(ValueError, match="^seed and counter must be 64-bit unsigned$"):
            draw(env)

    @pytest.mark.parametrize("draw", [rng_uniform, lambda env: rng_below(env, 2**64)])
    def test_the_last_but_one_counter_still_draws(self, draw):
        env = Environment(entries={}, rng=RngState(7, self.LAST - 1))
        _, out = draw(env)
        assert out.rng == RngState(7, self.LAST)
        assert type(out.rng) is RngState and hash(out.rng) == hash(RngState(7, self.LAST))

    @given(
        x=st.one_of(
            st.integers(), st.booleans(), st.floats(allow_nan=False),
            st.integers(-(2**53), 2**53).map(float),
        )
    )
    def test_of_int_and_of_real_equal_the_checked_constructor(self, x):
        built = [(EnvValue.of_real(x), EnvValue("real", float(x)))]
        if not isinstance(x, float) or x.is_integer():
            built.append((EnvValue.of_int(x), EnvValue("int", int(x))))
        for fast, checked in built:
            assert fast == checked and hash(fast) == hash(checked)
            assert type(fast) is EnvValue and type(fast.value) is type(checked.value)
            assert fast.to_json() == checked.to_json()
            with pytest.raises(AttributeError):  # still frozen
                fast.tag = "text"

    def test_public_constructors_keep_their_checks(self):
        with pytest.raises(ValueError, match="unknown EnvValue tag"):
            EnvValue("matrix", 1)
        for seed, counter in [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)]:
            with pytest.raises(ValueError):
                RngState(seed, counter)


class TestFromJsonChecksPayloadTypes:
    """A payload whose JSON type does not fit its tag is an error, not a
    coercion: `int` 2.7 used to read as 2, `bool` "no" as True."""

    @pytest.mark.parametrize(
        "obj",
        [
            {"t": "int", "v": 2.7},
            {"t": "int", "v": "3"},
            {"t": "int", "v": True},
            {"t": "int", "v": None},
            {"t": "real", "v": "1.5"},
            {"t": "real", "v": False},
            {"t": "real", "v": 10**400},  # no float holds it
            {"t": "bool", "v": "no"},
            {"t": "bool", "v": 0},
            {"t": "text", "v": 5},
            {"t": "sol", "v": ["01"]},
            {"t": "iseq", "v": [1, 2.5]},
            {"t": "iseq", "v": "12"},
            {"t": "iseq", "v": [True]},
            {"t": "rseq", "v": [1.0, "2"]},
            {"t": "rseq", "v": {"0": 1.0}},
            {"t": "dseq", "v": ["-1"]},
            {"t": "dseq", "v": [-1]},
            {"t": "dseq", "v": [str(2**64)]},
            {"t": "dseq", "v": [2**64]},
            {"t": "dseq", "v": ["0x10"]},
            {"t": "dseq", "v": [" 1"]},
            {"t": "dseq", "v": ["1\n"]},
            {"t": "dseq", "v": ["١"]},  # a digit, but not an ASCII one
            {"t": "dseq", "v": [1.0]},
            {"t": "dseq", "v": "12"},
        ],
    )
    def test_a_mistyped_payload_is_a_value_error(self, obj):
        with pytest.raises(ValueError, match=f"^EnvValue {obj['t']} payload must be "):
            EnvValue.from_json(obj)

    @pytest.mark.parametrize(
        "obj, value",
        [
            ({"t": "real", "v": 2}, EnvValue.of_real(2.0)),
            ({"t": "rseq", "v": [1, 0.5]}, EnvValue.of_rseq([1.0, 0.5])),
            ({"t": "dseq", "v": [0, str(2**64 - 1), 2**64 - 1, "007"]},
             EnvValue.of_dseq([0, 2**64 - 1, 2**64 - 1, 7])),
            ({"t": "real", "v": float("inf")}, EnvValue.of_real(float("inf"))),
        ],
    )
    def test_payloads_that_fit_their_tag_parse(self, obj, value):
        parsed = EnvValue.from_json(obj)
        assert parsed == value and type(parsed.value) is type(value.value)

    def test_constructors_still_coerce(self):
        assert EnvValue.of_int(2.7) == EnvValue("int", 2)
        assert EnvValue.of_bool("no") == EnvValue("bool", True)
        assert EnvValue.of_dseq([-1]) == EnvValue("dseq", (2**64 - 1,))


# ---------------------------------------------------------------------------
# The records as they were before they became tuples: frozen dataclasses.
# Each keeps the public name in its repr.

# The dataclass matched r"^[A-Za-z0-9_]+$", whose `$` also matched before a
# trailing newline; "a\n" is no token, so the reference takes the fix too.
_REF_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+")
_REF_MASK64 = (1 << 64) - 1


@dataclass(frozen=True, order=True)
class RefEnvKey:
    __qualname__ = "EnvKey"

    namespace: str
    name: str

    def __post_init__(self):
        for token in (self.namespace, self.name):
            if not _REF_TOKEN_RE.fullmatch(token):
                raise ValueError(f"invalid env key token: {token!r}")

    def render(self) -> str:
        return f"{self.namespace}.{self.name}"


@dataclass(frozen=True)
class RefEnvValue:
    __qualname__ = "EnvValue"

    tag: str
    value: Any

    def __post_init__(self):
        if self.tag not in VALUE_TAGS:
            raise ValueError(f"unknown EnvValue tag: {self.tag!r}")

    CONSTRUCTORS = {
        "int": int,
        "real": float,
        "bool": bool,
        "text": str,
        "sol": str,
        "rseq": lambda xs: tuple(float(x) for x in xs),
        "iseq": lambda xs: tuple(int(x) for x in xs),
        "dseq": lambda xs: tuple(int(x) & _REF_MASK64 for x in xs),
    }

    @staticmethod
    def of(tag, x):
        return RefEnvValue(tag, RefEnvValue.CONSTRUCTORS[tag](x))

    def to_json(self) -> dict:
        if self.tag == "dseq":
            payload = [str(d) for d in self.value]
        elif self.tag in ("rseq", "iseq"):
            payload = list(self.value)
        else:
            payload = self.value
        return {"t": self.tag, "v": payload}


@dataclass(frozen=True)
class RefRngState:
    __qualname__ = "RngState"

    seed: int
    counter: int = 0

    def __post_init__(self):
        if not (0 <= self.seed <= _REF_MASK64 and 0 <= self.counter <= _REF_MASK64):
            raise ValueError("seed and counter must be 64-bit unsigned")


@dataclass(frozen=True)
class RefEnvironment:
    __qualname__ = "Environment"

    entries: Mapping
    rng: RngState

    def put(self, key, value):
        new_entries = dict(self.entries)
        new_entries[key] = value
        return _ref_copy(self, new_entries, self.rng)

    def put_many(self, updates):
        new_entries = dict(self.entries)
        new_entries.update(updates)
        return _ref_copy(self, new_entries, self.rng)

    def __eq__(self, other):
        if not isinstance(other, RefEnvironment):
            return NotImplemented
        return dict(self.entries) == dict(other.entries) and self.rng == other.rng

    __hash__ = None

    def to_json(self) -> dict:
        return {
            "rng": {"seed": str(self.rng.seed), "counter": str(self.rng.counter)},
            "entries": {k.render(): v.to_json() for k, v in self.entries.items()},
        }

    def serialize(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def deserialize(text: str) -> "RefEnvironment":
        obj = json.loads(text)
        rng = RngState(int(obj["rng"]["seed"]), int(obj["rng"]["counter"]))
        entries = {EnvKey.parse(k): EnvValue.from_json(v) for k, v in obj["entries"].items()}
        return RefEnvironment(entries=entries, rng=rng)


def _ref_copy(env, entries, rng):
    new = object.__new__(type(env))
    new.__dict__.update(env.__dict__, entries=entries, rng=rng)
    return new


def ref_rng_uniform(env):
    seed, counter = env.rng
    value = (_raw64(seed, counter) >> 11) * (2.0 ** -53)
    return value, _ref_copy(env, env.entries, RngState(seed, counter + 1))


def ref_rng_below(env, n):
    if not 1 <= n <= 1 << 64:
        raise ValueError("rng_below requires 1 <= n <= 2^64")
    limit = (1 << 64) - ((1 << 64) % n)
    seed, counter = env.rng
    while True:
        raw = _raw64(seed, counter)
        counter += 1
        if raw < limit:
            return raw % n, _ref_copy(env, env.entries, RngState(seed, counter))


def ref_rng_bits(env, count):
    if count < 0:
        raise ValueError("rng_bits requires count >= 0")
    bits = bytearray()
    for _ in range(count):
        bit, env = ref_rng_below(env, 2)
        bits.append(bit)
    return bytes(bits), _ref_copy(env, env.entries, env.rng)


def _outcome(make, *args):
    """What `make(*args)` gives: ("ok", the record) or ("error", its message)."""
    try:
        return "ok", make(*args)
    except ValueError as exc:
        return "error", str(exc)


def _same_record(new, ref, fields):
    assert repr(new) == repr(ref)
    assert hash(new) == hash(ref)
    assert new == type(new)(*(getattr(ref, f) for f in fields))
    for f in fields:
        assert getattr(new, f) == getattr(ref, f)
        assert type(getattr(new, f)) is type(getattr(ref, f))
        with pytest.raises(AttributeError):
            setattr(new, f, getattr(new, f))


TOKENS = st.one_of(
    st.from_regex(r"[A-Za-z0-9_]{1,4}", fullmatch=True),
    st.text(max_size=4),
    st.sampled_from(["a.b", "a\n", "", "x y"]),
)
# with a NaN field, `==` turns on whether both sides hold the same float
# object rather than on the records, so the payloads hold no NaN
PAYLOADS = {
    "int": st.integers() | st.booleans() | st.floats(-1e18, 1e18),
    "real": st.floats(allow_nan=False) | st.integers(-(2**70), 2**70),
    "bool": st.booleans() | st.integers(-2, 2) | st.text(max_size=2),
    "text": st.text(max_size=6) | st.integers(),
    "sol": st.text(max_size=6),
    "rseq": st.lists(st.floats(allow_nan=False) | st.integers(-9, 9), max_size=4),
    "iseq": st.lists(st.integers() | st.booleans(), max_size=4),
    "dseq": st.lists(
        st.integers(-(2**65), 2**65) | st.integers(0, 2**64 - 1).map(str), max_size=4
    ),
}
TAGGED = st.sampled_from(VALUE_TAGS).flatmap(lambda t: st.tuples(st.just(t), PAYLOADS[t]))
WORDS = st.integers(-2, 2**64 + 1) | st.integers(2**64 - 2, 2**64 + 1)


# few keys, values and rng states, so that two drawn envs are often equal
ENV_KEYS = st.sampled_from([EnvKey("a", "x"), EnvKey("a", "y"), EnvKey("b", "x")])
ENV_VALUES = st.sampled_from(
    [EnvValue.of_int(1), EnvValue.of_int(2), EnvValue.of_real(1.0), EnvValue.of_dseq([2**64 - 1])]
)
ENTRIES = st.dictionaries(ENV_KEYS, ENV_VALUES, max_size=3)
RNGS = st.builds(
    RngState, st.sampled_from([0, 1, 2**64 - 1]), st.sampled_from([0, 1, 2**64 - 3, 2**64 - 1])
)
# each derivation as (the record's call, the reference's call)
DERIVATIONS = st.one_of(
    st.tuples(ENV_KEYS, ENV_VALUES).map(
        lambda kv: (lambda e: e.put(*kv), lambda r: r.put(*kv))
    ),
    st.dictionaries(ENV_KEYS, ENV_VALUES, max_size=3).map(
        lambda u: (lambda e: e.put_many(u), lambda r: r.put_many(u))
    ),
    st.just((rng_uniform, ref_rng_uniform)),
    st.sampled_from([0, 1, 3, 2**63 + 1, 2**64, 2**64 + 1]).map(
        lambda n: (lambda e: rng_below(e, n), lambda r: ref_rng_below(r, n))
    ),
    st.integers(-1, 4).map(
        lambda count: (lambda e: rng_bits(e, count), lambda r: ref_rng_bits(r, count))
    ),
)


def _same_env(new, ref):
    assert type(new) is Environment and repr(new) == repr(ref)
    assert new.serialize() == ref.serialize() and new.to_json() == ref.to_json()


class TestRecordsMatchTheirDataclassReferences:
    """The tuple records keep every observable of the dataclasses they
    replaced, bar one: a record also equals the plain tuple of its fields."""

    @given(TOKENS, TOKENS, TOKENS, TOKENS)
    def test_env_key(self, ns, name, ns2, name2):
        new, ref = _outcome(EnvKey, ns, name), _outcome(RefEnvKey, ns, name)
        assert new[0] == ref[0]
        if new[0] == "error":
            assert new == ref
            return
        new, ref = new[1], ref[1]
        _same_record(new, ref, ("namespace", "name"))
        assert new.render() == ref.render() and EnvKey.parse(new.render()) == new
        other, other_ref = _outcome(EnvKey, ns2, name2), _outcome(RefEnvKey, ns2, name2)
        if other[0] == "ok":
            other, other_ref = other[1], other_ref[1]
            for op in ("__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"):
                assert getattr(new, op)(other) == getattr(ref, op)(other_ref), op
            assert sorted([other, new]) == [
                EnvKey(k.namespace, k.name) for k in sorted([other_ref, ref])
            ]

    @given(st.sampled_from(VALUE_TAGS) | st.text(max_size=5), st.integers())
    def test_env_value_constructor(self, tag, x):
        new, ref = _outcome(EnvValue, tag, x), _outcome(RefEnvValue, tag, x)
        assert new[0] == ref[0]
        if new[0] == "error":
            assert new == ref
        else:
            _same_record(new[1], ref[1], ("tag", "value"))

    @given(TAGGED, TAGGED)
    def test_env_value_of_each_tag(self, tagged, tagged2):
        (tag, x), (tag2, x2) = tagged, tagged2
        new, ref = getattr(EnvValue, f"of_{tag}")(x), RefEnvValue.of(tag, x)
        _same_record(new, ref, ("tag", "value"))
        other, other_ref = getattr(EnvValue, f"of_{tag2}")(x2), RefEnvValue.of(tag2, x2)
        assert (new == other) == (ref == other_ref)
        assert new.to_json() == ref.to_json()
        parsed = EnvValue.from_json(json.loads(json.dumps(new.to_json())))
        assert parsed == new and repr(parsed) == repr(ref)

    @given(WORDS, WORDS)
    def test_rng_state(self, seed, counter):
        new, ref = _outcome(RngState, seed, counter), _outcome(RefRngState, seed, counter)
        assert new[0] == ref[0]
        if new[0] == "error":
            assert new == ref
            return
        _same_record(new[1], ref[1], ("seed", "counter"))
        if counter == 0:
            assert RngState(seed) == new[1] and repr(RngState(seed)) == repr(RefRngState(seed))
        env = Environment(entries={}, rng=new[1])
        assert Environment.deserialize(env.serialize()).rng == new[1]

    @given(ENTRIES, RNGS, ENTRIES, RNGS)
    def test_environment(self, entries, rng, entries2, rng2):
        new, ref = Environment(entries, rng), RefEnvironment(entries, rng)
        other, other_ref = Environment(entries2, rng2), RefEnvironment(entries2, rng2)
        _same_env(new, ref)
        assert (new == other) == (ref == other_ref)
        assert (new != other) == (ref != other_ref)
        assert new == Environment(dict(entries), rng) and ref == RefEnvironment(dict(entries), rng)
        parsed = Environment.deserialize(new.serialize())
        assert parsed == new
        _same_env(parsed, RefEnvironment.deserialize(ref.serialize()))
        for env in (new, ref):
            with pytest.raises(AttributeError):
                env.rng = rng2
            with pytest.raises(AttributeError):
                env.entries = {}
            with pytest.raises(TypeError):
                hash(env)

    @given(ENTRIES, RNGS, st.lists(DERIVATIONS, min_size=1, max_size=4))
    def test_environment_derivations(self, entries, rng, derivations):
        new, ref = Environment(entries, rng), RefEnvironment(entries, rng)
        before = dict(entries)
        for step, ref_step in derivations:
            got, want = _outcome(step, new), _outcome(ref_step, ref)
            assert got[0] == want[0]
            if got[0] == "error":
                assert got == want
                return
            if isinstance(got[1], Environment):  # put or put_many
                new, ref = got[1], want[1]
            else:
                (value, new), (ref_value, ref) = got[1], want[1]
                assert value == ref_value and type(value) is type(ref_value)
            _same_env(new, ref)
        assert entries == before  # the source's entries are untouched

    def test_a_record_equals_the_plain_tuple_of_its_fields(self):
        # the one difference from the dataclasses, which equal only their own class
        assert EnvKey("sa", "temperature") == ("sa", "temperature")
        assert RefEnvKey("sa", "temperature") != ("sa", "temperature")
        assert EnvValue.of_int(3) == ("int", 3) and RngState(7, 1) == (7, 1)
        assert env_new(1) == ({}, RngState(1, 0)) == ({}, (1, 0))
        assert RefEnvironment({}, RngState(1, 0)) != ({}, RngState(1, 0))
