"""Threaded-environment substrate.

Everything a search component needs beyond the candidate solution lives in
an immutable `Environment`: typed, namespaced entries plus a counter-based
RNG stream. Components never touch hidden state; each step takes an
Environment and returns a (possibly) new one, so whole runs replay
deterministically from a seed.

`Environment` and the records it holds, `EnvKey`, `EnvValue` and
`RngState`, are immutable tuples (namedtuple subclasses); the three
records' constructors check their fields. Each compares and orders as the
tuple of its fields, so it also equals a plain tuple of the same fields,
and the records hash as that tuple (an Environment holds a dict, so it
does not hash). Tuples make building, hashing and reading them C-level
work on the hot path.

A draw reads its raw word from its stream's block of 64 consecutive
counters, all 64 mixed at once and cached: at most 64 blocks, about
62 KB, across all streams. The values are those of the scalar
splitmix64, `_raw64`, whatever the order of draws. A stream drawing in
order mixes each block once; interleaving more than 64 streams draw by
draw (a server with that many concurrent client streams, say) evicts
each block before its next draw and pays a block's mixing, about 7-9 µs,
per draw, and no value changes.
"""

from __future__ import annotations

import functools
import json
import re
import sys
from array import array
from collections import namedtuple
from typing import Any, Mapping, Optional, Tuple

_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+")

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# Where a lane's low 64 bits sit among the native-order words of its 128 bits.
_LOW_WORD = 0 if sys.byteorder == "little" else 1
# Builds a record from its fields without its class's checks; a caller
# whose fields are already known to be valid uses it on the hot path.
_new = tuple.__new__


def unknown_key(obj: dict, known) -> Optional[str]:
    """The first key of `obj` that is not in `known`, or None."""
    return next((key for key in obj if key not in known), None)


# JSON's name for the type of each value `json.loads` builds
_JSON_TYPES = {
    type(None): "null", bool: "boolean", int: "number", float: "number",
    str: "string", list: "array", dict: "object",
}


class ShapeError(ValueError):
    """A JSON value from a file or the wire does not have its declared
    shape; the message names the part at fault by its path."""


def read(value, shape, where: str, parts: Optional[str] = None):
    """`value` itself when it has `shape`; raises ShapeError naming the
    first part that does not, as `missing key 'k' at W`, `unknown key 'k'
    at W` or `W must be an object, got array`. A shape is plain data:
    - "any", for a value that a later check reads;
    - "object", "array", "string", "integer", "number" or "boolean": a
      value of that JSON type (a bool is no number);
    - ("array of", s), an array whose items have shape s, or ("object of",
      s), an object with any keys whose values have shape s;
    - a dict, a closed object: it holds each of the dict's keys and no
      other, each value of its key's shape; a key whose shape is
      ("optional", s) may be absent.
    An object's keys are checked before its values, a missing key before
    an unknown one. `where` names `value`, and `parts` (by default `where`)
    starts the paths of its parts: `<parts>.key`, `<parts>[i]`, or `key`
    for a file that names its parts from its top."""
    if shape == "any":
        return value
    if type(shape) is str:
        got = _JSON_TYPES.get(type(value))
        if got == shape or shape == "integer" and type(value) is int:
            return value
        got = got or type(value).__name__
        raise ShapeError(f"{where} must be {'an' if shape[0] in 'aio' else 'a'} {shape}, got {got}")
    at = where if parts is None else parts
    if type(shape) is dict:
        if type(value) is not dict:
            read(value, "object", where)
        if value.keys() != shape.keys():  # else no key is missing or unknown
            for key, part in shape.items():
                if key not in value and (type(part) is not tuple or part[0] != "optional"):
                    raise ShapeError(f"missing key {key!r} at {where}")
            if not value.keys() <= shape.keys():
                raise ShapeError(f"unknown key {unknown_key(value, shape)!r} at {where}")
        for key, part in shape.items():
            # a part of the JSON type its shape names is read here, without a call
            if part != "any" and key in value and _JSON_TYPES.get(type(value[key])) != part:
                read(value[key], part, f"{at}.{key}" if at else key)
        return value
    kind, part = shape
    if kind == "optional":
        return read(value, part, where, parts)
    if kind == "array of":
        items = enumerate(read(value, "array", where))
    else:
        items = read(value, "object", where).items()
    for step, item in items:
        if part != "any" and _JSON_TYPES.get(type(item)) != part:
            read(item, part, f"{at}[{step}]" if kind == "array of" else f"{at}.{step}" if at else step)
    return value


def read_variant(value, shapes: dict, key: str, where: str):
    """`value`, an object, read against the shape in `shapes` that its
    `key` names; None, and nothing read past `key`, if it names none."""
    tag = read(value, "object", where).get(key)
    shape = shapes.get(tag) if type(tag) is str else None
    if shape is not None:
        return read(value, shape, where)
    if key not in value:
        raise ShapeError(f"missing key {key!r} at {where}")
    return None


# Python's words for a JSON integer longer than sys.get_int_max_str_digits()
_LONG_INT = re.compile(r"Exceeds the limit \((\d+) digits\) .*: value has (\d+) digits")


def loads(text: str, decode=json.loads):
    """`decode(text)`; a JSON integer too long to convert raises ValueError
    in metafold's words, not Python's advice to raise the limit."""
    try:
        return decode(text)
    except ValueError as exc:
        long_int = _LONG_INT.match(str(exc))
        if long_int is None:
            raise
        limit, digits = long_int.groups()
        raise ValueError(f"integer of {digits} digits exceeds the {limit}-digit limit") from None


class ConfigurationError(Exception):
    """A component's environment-key requirement was not satisfied."""


class ComponentContractError(Exception):
    """A component received input violating its stated preconditions."""


class EnvKey(namedtuple("EnvKey", "namespace name")):
    """Namespaced address of one Environment entry, rendered "namespace.name"."""

    __slots__ = ()

    def __new__(cls, namespace: str, name: str):
        for token in (namespace, name):
            if not _TOKEN_RE.fullmatch(token):
                raise ValueError(f"invalid env key token: {token!r}")
        return _new(cls, (namespace, name))

    def render(self) -> str:
        return f"{self.namespace}.{self.name}"

    @staticmethod
    def parse(text: str) -> "EnvKey":
        ns, _, name = text.partition(".")
        return EnvKey(ns, name)


class EnvValue(namedtuple("EnvValue", "tag value")):
    """Closed tagged union of storable values.

    Sequences are kept as tuples so values are hashable and safely
    shareable. `dseq` holds 64-bit solution digests (tabu lists); `sol`
    holds an opaque serialized solution.
    """

    __slots__ = ()

    def __new__(cls, tag: str, value: Any):
        if tag not in VALUE_TAGS:
            raise ValueError(f"unknown EnvValue tag: {tag!r}")
        return _new(cls, (tag, value))

    @staticmethod
    def of_int(x: int) -> "EnvValue":
        return _new(EnvValue, ("int", int(x)))

    @staticmethod
    def of_real(x: float) -> "EnvValue":
        return _new(EnvValue, ("real", float(x)))

    @staticmethod
    def of_bool(x: bool) -> "EnvValue":
        return EnvValue("bool", bool(x))

    @staticmethod
    def of_text(x: str) -> "EnvValue":
        return EnvValue("text", str(x))

    @staticmethod
    def of_rseq(xs) -> "EnvValue":
        return EnvValue("rseq", tuple(float(x) for x in xs))

    @staticmethod
    def of_iseq(xs) -> "EnvValue":
        return EnvValue("iseq", tuple(int(x) for x in xs))

    @staticmethod
    def of_dseq(xs) -> "EnvValue":
        return EnvValue("dseq", tuple(int(x) & _MASK64 for x in xs))

    @staticmethod
    def of_sol(text: str) -> "EnvValue":
        return EnvValue("sol", str(text))

    def to_json(self) -> dict:
        tag, value = self
        return {"t": tag, "v": _PAYLOADS[tag][2](value)}

    @staticmethod
    def from_json(obj: dict) -> "EnvValue":
        """The value `to_json` wrote, as its tag's `of_<tag>` builds it. A
        payload whose JSON type does not fit its tag raises ValueError
        instead of being coerced, and so does an object not of `_ENV_VALUE`'s
        shape."""
        read(obj, _ENV_VALUE, "env entry")
        tag, payload = obj["t"], obj["v"]
        if tag not in _PAYLOADS:
            raise ValueError(f"unknown EnvValue tag: {tag!r}")
        want, read_payload, _ = _PAYLOADS[tag]
        value = read_payload(payload)
        if value is None:
            raise ValueError(f"EnvValue {tag} payload must be {want}")
        return _new(EnvValue, (tag, value))


# The wire's shapes, for `read`: an Environment, and an entry or any other
# Environment value; a payload is read and written by `_PAYLOADS`, the
# rng's words read by `_is_digest`.
_ENV_VALUE = {"t": "string", "v": "any"}
_ENVIRONMENT = {"rng": {"seed": "any", "counter": "any"}, "entries": "object"}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    # an int a float cannot hold would overflow in `float`
    return isinstance(x, float) or (_is_int(x) and abs(x) <= sys.float_info.max)


def _is_digest(x) -> bool:
    if isinstance(x, str) and x.isascii() and x.isdigit():
        x = int(x)
    return _is_int(x) and 0 <= x <= _MASK64


def _digests(xs):
    """The digests a dseq payload lists as decimal strings or integers in
    [0, 2^64), or None if it is anything else."""
    if not isinstance(xs, list):
        return None
    try:
        # the strings `to_json` writes, checked at once rather than one by one
        text = "".join(xs)
    except TypeError:  # not every item is a string
        return tuple(map(int, xs)) if all(map(_is_digest, xs)) else None
    if not (all(xs) and text.isascii() and (text.isdigit() or not xs)):
        return None
    values = tuple(map(int, xs))
    return values if max(values, default=0) <= _MASK64 else None


def _scalar(convert, fits):
    return lambda x: convert(x) if fits(x) else None


def _sequence(convert, fits):
    return lambda xs: tuple(map(convert, xs)) if isinstance(xs, list) and all(map(fits, xs)) else None


def _is_str(x) -> bool:
    return isinstance(x, str)


def _same(x):
    return x


# tag -> (what its JSON payload must be, the payload's value or None if it
# is not that, the value's payload); its keys are VALUE_TAGS
_PAYLOADS = {
    "int": ("an integer", _scalar(int, _is_int), _same),
    "real": ("a number", _scalar(float, _is_number), _same),
    "bool": ("true or false", _scalar(bool, lambda x: isinstance(x, bool)), _same),
    "text": ("a string", _scalar(str, _is_str), _same),
    "rseq": ("a list of numbers", _sequence(float, _is_number), list),
    "iseq": ("a list of integers", _sequence(int, _is_int), list),
    "dseq": ("a list of integers or decimal strings in [0, 2^64)", _digests,
             lambda ds: [str(d) for d in ds]),
    "sol": ("a string", _scalar(str, _is_str), _same),
}
VALUE_TAGS = tuple(_PAYLOADS)


class RngState(namedtuple("RngState", "seed counter")):
    """Counter-based generator state; each draw is a pure function of (seed, counter)."""

    __slots__ = ()

    def __new__(cls, seed: int, counter: int = 0):
        if not (0 <= seed <= _MASK64 and 0 <= counter <= _MASK64):
            raise ValueError("seed and counter must be 64-bit unsigned")
        return _new(cls, (seed, counter))


def _advanced(seed: int, counter: int) -> RngState:
    """The state at `counter` of a stream whose seed an RngState already
    checked. Only the counter can leave its range, past the end of the
    2^64 stream, so only it is checked, with RngState's message."""
    if counter > _MASK64:
        raise ValueError("seed and counter must be 64-bit unsigned")
    return _new(RngState, (seed, counter))


def _raw64(seed: int, counter: int) -> int:
    """The raw draw at `counter`, one word at a time: the definition the
    draws' blocks (`_raw_block`) are checked against."""
    # splitmix64: the counter's point on the golden-ratio sequence, finalized
    x = (seed + (counter + 1) * _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class Environment(namedtuple("Environment", "entries rng")):
    """Immutable key-value store plus the RNG stream.

    Every put and draw returns a fresh, plain Environment; the source is
    never changed.
    """

    __slots__ = ()

    def get(self, key: EnvKey) -> Optional[EnvValue]:
        return self.entries.get(key)

    def put(self, key: EnvKey, value: EnvValue) -> "Environment":
        new_entries = dict(self.entries)
        new_entries[key] = value
        return _new(Environment, (new_entries, self.rng))

    def put_many(self, updates: Mapping[EnvKey, EnvValue]) -> "Environment":
        """Write several keys in one copy; later keys win as with `put`."""
        new_entries = dict(self.entries)
        new_entries.update(updates)
        return _new(Environment, (new_entries, self.rng))

    def to_json(self) -> dict:
        return {
            "rng": {"seed": str(self.rng.seed), "counter": str(self.rng.counter)},
            "entries": {k.render(): v.to_json() for k, v in self.entries.items()},
        }

    def serialize(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(obj: dict) -> "Environment":
        """The Environment `to_json` wrote. The rng seed and counter must
        each be an integer or a decimal string in [0, 2^64); anything else
        raises ValueError instead of being coerced, and so does an object
        not of `_ENVIRONMENT`'s shape."""
        rng = read(obj, _ENVIRONMENT, "env")["rng"]
        seed, counter = rng["seed"], rng["counter"]
        if not (_is_digest(seed) and _is_digest(counter)):
            raise ValueError(
                "rng seed and counter must be integers or decimal strings in [0, 2^64)"
            )
        entries = {EnvKey.parse(k): EnvValue.from_json(v) for k, v in obj["entries"].items()}
        return Environment(entries, RngState(int(seed), int(counter)))

    @staticmethod
    def deserialize(text: str) -> "Environment":
        return Environment.from_json(loads(text))


def env_new(seed: int) -> Environment:
    return Environment(entries={}, rng=RngState(seed, 0))


def rng_uniform(env: Environment) -> Tuple[float, Environment]:
    """One uniform draw in [0, 1); advances the counter by exactly 1."""
    seed, counter = env.rng
    value = (_raw_block(seed, counter >> 6)[counter & 63] >> 11) * (2.0 ** -53)
    return value, _new(Environment, (env.entries, _advanced(seed, counter + 1)))


def _below(seed: int, counter: int, n: int) -> Tuple[int, int]:
    """An unbiased integer in [0, n) by rejection over the raw draws from
    `counter` on, and the counter after them. A caller that draws several
    times threads the counter and builds one Environment at the end, whose
    `_advanced` raises past the stream's end."""
    if not 1 <= n <= 1 << 64:  # above 2^64 no raw draw would be accepted
        raise ValueError("rng_below requires 1 <= n <= 2^64")
    limit = (1 << 64) - ((1 << 64) % n)  # below it a raw draw maps to [0, n) without bias
    while True:
        raw = _raw_block(seed, counter >> 6)[counter & 63]
        counter += 1
        if raw < limit:
            return raw % n, counter


def rng_below(env: Environment, n: int) -> Tuple[int, Environment]:
    """Unbiased integer in [0, n) via rejection over the raw 64-bit draw."""
    seed, counter = env.rng
    value, counter = _below(seed, counter, n)
    return value, _new(Environment, (env.entries, _advanced(seed, counter)))


# Lanes: `count` 64-bit words held as one int, word i in the low half of
# the int's i-th 128-bit lane. A lane-wise xor-shift masked back to the low
# halves, or a product with a number below 2^64, stays inside each lane, so
# one big-int operation acts on every word at once.


def _to_lanes(words: array) -> int:
    """The words of an `array("Q")` as lanes."""
    native = array("Q", bytes(16 * len(words)))
    native[_LOW_WORD::2] = words
    return int.from_bytes(native, sys.byteorder)


def _from_lanes(x: int, count: int) -> memoryview:
    """The `count` words held in the lanes of `x`, whatever its high halves hold."""
    return memoryview(x.to_bytes(16 * count, sys.byteorder)).cast("Q")[_LOW_WORD::2]


@functools.lru_cache(maxsize=8)
def _lane_constants(count: int) -> Tuple[int, int, int]:
    """i·_GOLDEN mod 2^64 in lane i, the ones-lanes and their low halves:
    the part of a batch's mixing that does not depend on its seed or
    counter. Each is an int of 16·count bytes; `_mixed_lanes` caches counts
    up to 4096 only, so the cache holds at most 8 · 3 such ints of 64 KiB,
    about 1.6 MiB with an int's own overhead."""
    ones = _to_lanes(array("Q", [1]) * count)
    low = ones * _MASK64
    return _to_lanes(array("Q", range(count))) * _GOLDEN & low, ones, low


def _mixed_lanes(seed: int, counter: int, count: int) -> Tuple[int, int]:
    """The raw draws at counters counter..counter+count-1, mixed at once, as
    lanes whose high halves hold junk; and the ones-lanes."""
    constants = _lane_constants if count <= 4096 else _lane_constants.__wrapped__
    golden, ones, low = constants(count)
    x = (golden + ((counter + 1) * _GOLDEN + seed & _MASK64) * ones) & low
    x = ((x ^ (x >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
    x = ((x ^ (x >> 27)) & low) * 0x94D049BB133111EB & low
    return x ^ (x >> 31), ones


@functools.lru_cache(maxsize=64)
def _raw_block(seed: int, block: int) -> memoryview:
    """The raw draws at counters 64·block .. 64·block + 63 of `seed`'s
    stream, mixed at once: `_raw64`'s values, as a read-only view of 64
    native words that a draw reads one at a time. A stream drawing in
    order mixes each block once. The cache holds 64 blocks, about 62 KB;
    as tuples of ints they would take about 190 KB."""
    x, _ = _mixed_lanes(seed, block << 6, 64)
    return memoryview(_from_lanes(x, 64).tobytes()).cast("Q")


def rng_bits(env: Environment, count: int) -> Tuple[bytes, Environment]:
    """`count` fair bits, one 0 or 1 byte each: the same values and final
    counter as `count` successive `rng_below(env, 2)` calls. For n = 2 no
    raw draw is rejected and a draw's value is its low bit, so the bits are
    the lanes' low bits, masked and read out in one pass."""
    if count < 0:
        raise ValueError("rng_bits requires count >= 0")
    seed, counter = env.rng
    rng = _advanced(seed, counter + count)  # past the stream's end: ValueError
    x, ones = _mixed_lanes(seed, counter, count)
    # the low bit of each lane is the first byte of its 16, on any host
    return (x & ones).to_bytes(16 * count, "little")[::16], _new(Environment, (env.entries, rng))
