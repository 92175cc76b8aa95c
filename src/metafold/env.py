"""Threaded-environment substrate.

Everything a search component needs beyond the candidate solution lives in
an immutable `Environment`: typed, namespaced entries plus a counter-based
RNG stream. Components never touch hidden state; each step takes an
Environment and returns a (possibly) new one, so whole runs replay
deterministically from a seed.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Any, Callable, List, Mapping, Optional, Tuple

_TOKEN_RE = re.compile(r"^[A-Za-z0-9_]+$")

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class ConfigurationError(Exception):
    """A component's environment-key requirement was not satisfied."""


class ComponentContractError(Exception):
    """A component received input violating its stated preconditions."""


@dataclass(frozen=True, order=True)
class EnvKey:
    """Namespaced address of one Environment entry, rendered "namespace.name"."""

    namespace: str
    name: str

    def __post_init__(self):
        for token in (self.namespace, self.name):
            if not _TOKEN_RE.match(token):
                raise ValueError(f"invalid env key token: {token!r}")

    def render(self) -> str:
        return f"{self.namespace}.{self.name}"

    @staticmethod
    def parse(text: str) -> "EnvKey":
        ns, _, name = text.partition(".")
        return EnvKey(ns, name)


VALUE_TAGS = ("int", "real", "bool", "text", "rseq", "iseq", "dseq", "sol")


@dataclass(frozen=True)
class EnvValue:
    """Closed tagged union of storable values.

    Sequences are kept as tuples so values are hashable and safely
    shareable. `dseq` holds 64-bit solution digests (tabu lists); `sol`
    holds an opaque serialized solution.
    """

    tag: str
    value: Any

    def __post_init__(self):
        if self.tag not in VALUE_TAGS:
            raise ValueError(f"unknown EnvValue tag: {self.tag!r}")

    @staticmethod
    def of_int(x: int) -> "EnvValue":
        return EnvValue("int", int(x))

    @staticmethod
    def of_real(x: float) -> "EnvValue":
        return EnvValue("real", float(x))

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
        if self.tag == "dseq":
            payload: Any = [str(d) for d in self.value]
        elif self.tag in ("rseq", "iseq"):
            payload = list(self.value)
        else:
            payload = self.value
        return {"t": self.tag, "v": payload}

    @staticmethod
    def from_json(obj: dict) -> "EnvValue":
        tag, payload = obj["t"], obj["v"]
        if tag not in VALUE_TAGS:
            raise ValueError(f"unknown EnvValue tag: {tag!r}")
        # each tag has its `of_<tag>` constructor; dseq parses its strings
        return getattr(EnvValue, f"of_{tag}")(payload)


@dataclass(frozen=True)
class RngState:
    """Counter-based generator state; each draw is a pure function of (seed, counter)."""

    seed: int
    counter: int = 0

    def __post_init__(self):
        if not (0 <= self.seed <= _MASK64 and 0 <= self.counter <= _MASK64):
            raise ValueError("seed and counter must be 64-bit unsigned")


def _mix64(x: int) -> int:
    # splitmix64 finalizer
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _raw64(seed: int, counter: int) -> int:
    return _mix64((seed + (counter + 1) * _GOLDEN) & _MASK64)


@dataclass(frozen=True)
class Environment:
    """Immutable key-value store plus the RNG stream.

    All mutators return a fresh Environment; equality is determined by
    (entries, rng) alone. Copies keep the subclass and every field a
    subclass adds, so a subclass's extra state follows the whole lineage.
    """

    entries: Mapping[EnvKey, EnvValue]
    rng: RngState

    def get(self, key: EnvKey) -> Optional[EnvValue]:
        return self.entries.get(key)

    def put(self, key: EnvKey, value: EnvValue) -> "Environment":
        new_entries = dict(self.entries)
        new_entries[key] = value
        return _derive(self, new_entries, self.rng)

    def put_many(self, updates: Mapping[EnvKey, EnvValue]) -> "Environment":
        """Write several keys in one copy; later keys win as with `put`."""
        new_entries = dict(self.entries)
        new_entries.update(updates)
        return _derive(self, new_entries, self.rng)

    def __eq__(self, other):
        if not isinstance(other, Environment):
            return NotImplemented
        return dict(self.entries) == dict(other.entries) and self.rng == other.rng

    __hash__ = None  # type: ignore[assignment]

    def to_json(self) -> dict:
        return {
            "rng": {"seed": str(self.rng.seed), "counter": str(self.rng.counter)},
            "entries": {k.render(): v.to_json() for k, v in self.entries.items()},
        }

    def serialize(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(obj: dict) -> "Environment":
        rng = RngState(int(obj["rng"]["seed"]), int(obj["rng"]["counter"]))
        entries = {
            EnvKey.parse(k): EnvValue.from_json(v) for k, v in obj["entries"].items()
        }
        return Environment(entries=entries, rng=rng)

    @staticmethod
    def deserialize(text: str) -> "Environment":
        return Environment.from_json(json.loads(text))


def _derive(env: Environment, entries, rng: RngState) -> Environment:
    """Copy `env` field for field with new entries and rng.

    Cheaper than `dataclasses.replace`, which re-runs `__init__`; the copy
    keeps the concrete class and any fields a subclass declares.
    """
    new = object.__new__(type(env))
    fields = new.__dict__
    fields.update(env.__dict__)
    fields["entries"] = entries
    fields["rng"] = rng
    return new


def env_new(seed: int) -> Environment:
    return Environment(entries={}, rng=RngState(seed, 0))


def rng_uniform(env: Environment) -> Tuple[float, Environment]:
    """One uniform draw in [0, 1); advances the counter by exactly 1."""
    raw = _raw64(env.rng.seed, env.rng.counter)
    value = (raw >> 11) * (2.0 ** -53)
    nxt = _derive(env, env.entries, RngState(env.rng.seed, env.rng.counter + 1))
    return value, nxt


def rng_below(env: Environment, n: int) -> Tuple[int, Environment]:
    """Unbiased integer in [0, n) via rejection over the raw 64-bit draw."""
    (value,), nxt = rng_below_many(env, n, 1)
    return value, nxt


def rng_below_many(env: Environment, n: int, count: int) -> Tuple[List[int], Environment]:
    """`count` draws in [0, n) in one copy: the same values and final
    counter as `count` successive `rng_below(env, n)` calls."""
    if not 1 <= n <= 1 << 64:  # above 2^64 no raw draw would be accepted
        raise ValueError("rng_below requires 1 <= n <= 2^64")
    if count < 0:
        raise ValueError("rng_below_many requires count >= 0")
    limit = (1 << 64) - ((1 << 64) % n)
    seed, counter = env.rng.seed, env.rng.counter
    values = []
    while len(values) < count:
        raw = _raw64(seed, counter)
        counter += 1
        if raw < limit:
            values.append(raw % n)
    return values, _derive(env, env.entries, RngState(seed, counter))


Step = Callable[[Any, Environment], Tuple[Any, Environment]]


def step_then(a: Step, b: Step) -> Step:
    """Left-to-right composition threading the Environment between stages."""

    def composed(x, env):
        mid, env = a(x, env)
        return b(mid, env)

    return composed


def step_identity(x, env):
    return x, env
