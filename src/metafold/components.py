"""Component palette: perturbation, acceptance, termination, evaluation.

Every component is a pure step function plus a machine-readable
descriptor of its parameters and environment-key dependencies. The
descriptor is what makes the configuration space derivable: a component
reads only its declared `requires` keys (plus framework keys) and writes
only its `provides` keys.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, replace
from operator import attrgetter, ge, le
from typing import Any, Callable, Optional, Tuple

from .env import (
    ComponentContractError,
    ConfigurationError,
    EnvKey,
    EnvValue,
    Environment,
    _advanced,
    _below,
    _new,
    read,
    rng_uniform,
)
from .solutions import (
    BitVector,
    Permutation,
    RealVector,
    _child,
    _two_cuts,
    solution_digest,
)

# Keys the framework templates maintain and every component may read.
K_ITERATION = EnvKey("framework", "iteration")
K_EVALUATIONS = EnvKey("framework", "evaluations")
K_INCUMBENT_VALUE = EnvKey("framework", "incumbent_value")
K_INCOMING_VALUE = EnvKey("framework", "incoming_value")
K_BEST_VALUE = EnvKey("framework", "best_value")
FRAMEWORK_KEYS = frozenset(
    {K_ITERATION, K_EVALUATIONS, K_INCUMBENT_VALUE, K_INCOMING_VALUE, K_BEST_VALUE}
)

K_TEMPERATURE = EnvKey("sa", "temperature")
K_TABU_LIST = EnvKey("tabu", "list")
K_BOUNDS = EnvKey("problem", "bounds")

KINDS = ("perturb", "accept", "terminate", "evaluate")


PARAM_TYPES = {"int": int, "real": float}  # Param.type -> the type values are coerced to
# What a Param's and a descriptor's `to_json` write, as `read` takes it;
# Param.from_json reads a type and bounds, the constructor a kind and keys.
_PARAM = {"name": "string", "type": "string", "default": "number", "min": "any", "max": "any",
          "min_exclusive": "boolean"}
_DESCRIPTOR = {"name": "string", "kind": "string", "params": ("array of", _PARAM),
               "requires": ("array of", "string"), "provides": ("array of", "string")}


@dataclass(frozen=True)
class Param:
    name: str
    type: str  # a key of PARAM_TYPES
    default: Any
    min: Optional[float] = None
    max: Optional[float] = None
    min_exclusive: bool = False  # the value must lie strictly above `min`

    def violation(self, who: str, value) -> Optional[str]:
        """What is wrong with `value` for this parameter, or None. A bool and
        a number no finite float holds are not numbers; an "int" takes no
        fraction."""
        at = f"{who}.{self.name}={value!r}"
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (number and abs(value) <= sys.float_info.max):
            return f"{at} is not a number"
        if self.type == "int" and value != int(value):
            return f"{at} is not an integer"
        if self.min is not None and (value <= self.min if self.min_exclusive else value < self.min):
            return f"{at} {'not above' if self.min_exclusive else 'below'} minimum {self.min}"
        if self.max is not None and value > self.max:
            return f"{at} above maximum {self.max}"
        return None

    def checked(self, who: str, value):
        """`value` as this parameter's type; raises ValueError naming what
        is wrong with it, or with the type, otherwise."""
        convert = PARAM_TYPES.get(self.type)
        if convert is None:
            raise ValueError(f"{who}.{self.name}: unknown param type {self.type!r}")
        problem = self.violation(who, value)
        if problem is not None:
            raise ValueError(problem)
        return convert(value)

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(obj: dict, where: str = "param") -> "Param":
        """The Param `to_json` wrote; raises ValueError naming the part at
        fault by its path from `where`."""
        read(obj, _PARAM, where)
        if obj["type"] not in PARAM_TYPES:
            raise ValueError(f"{where}.type must be one of {', '.join(PARAM_TYPES)}, got {obj['type']!r}")
        for bound in ("min", "max"):  # each a number or null
            if obj[bound] is not None:
                read(obj[bound], "number", f"{where}.{bound}")
        return Param(**obj)


@dataclass(frozen=True)
class ComponentDescriptor:
    name: str
    kind: str
    params: Tuple[Param, ...] = ()
    requires: frozenset = frozenset()
    provides: frozenset = frozenset()

    def __post_init__(self):
        # a constructor's range checks are its Params, applied to its
        # defaults, which are then held as their Param's type
        if self.kind not in KINDS:
            raise ValueError(f"unknown component kind: {self.kind!r}")
        params = tuple(replace(p, default=p.checked(self.name, p.default)) for p in self.params)
        object.__setattr__(self, "params", params)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "params": [p.to_json() for p in self.params],
            "requires": sorted(k.render() for k in self.requires),
            "provides": sorted(k.render() for k in self.provides),
        }

    @staticmethod
    def from_json(obj: dict, where: str = "descriptor") -> "ComponentDescriptor":
        """The descriptor `to_json` wrote; raises ValueError, naming a part
        of the wrong shape by its path from `where`."""
        read(obj, _DESCRIPTOR, where)
        return ComponentDescriptor(
            name=obj["name"],
            kind=obj["kind"],
            params=tuple(Param.from_json(p, f"{where}.params[{i}]") for i, p in enumerate(obj["params"])),
            requires=frozenset(EnvKey.parse(k) for k in obj["requires"]),
            provides=frozenset(EnvKey.parse(k) for k in obj["provides"]),
        )


@dataclass(frozen=True)
class Component:
    """A pure step function bundled with its descriptor."""

    descriptor: ComponentDescriptor
    step: Callable[[Any, Environment], Tuple[Any, Environment]]

    # Calling a component calls its step. As a property, `__call__` hands
    # the call straight to `step`, so no frame of its own runs per call.
    __call__ = property(attrgetter("step"))


def _require(env: Environment, key: EnvKey, tag: str, who: str):
    v = env.entries.get(key)
    if v is None or v.tag != tag:
        raise ConfigurationError(f"{who}: missing {tag} env key {key.render()}")
    return v.value


def _optional(env: Environment, key: EnvKey, tag: str, who: str):
    """The value of `key`, or None if it is absent; a value of another tag
    raises as `_require` does."""
    return _require(env, key, tag, who) if key in env.entries else None


# What a hot read gets for an absent key: a (tag, value) pair of no tag. A
# step reads its keys in place with it and calls `_require`, which raises,
# only when a key is absent or of another tag.
_ABSENT = (None, None)


# ---------------------------------------------------------------------------
# Perturbation


def perturb_bitflip(k: int = 1) -> Component:
    """Flip k distinct uniformly chosen bits. A scored parent's child carries
    its memo and the flipped indices (see `solutions`)."""
    desc = ComponentDescriptor(
        name="bitflip",
        kind="perturb",
        params=(Param("k", "int", k, min=1),),
    )
    k = desc.params[0].default

    def step(sol, env):
        if not isinstance(sol, BitVector):
            raise ComponentContractError("bitflip: expected a bit vector")
        n = len(sol)
        if k > n:
            raise ComponentContractError(f"bitflip: k={k} exceeds length {n}")
        seed, counter = env.rng
        chosen = set()
        while len(chosen) < k:
            idx, counter = _below(seed, counter, n)
            chosen.add(idx)
        env = _new(Environment, (env.entries, _advanced(seed, counter)))
        bits = bytearray(sol.packed)
        for i in chosen:
            bits[i] ^= 1
        return _child(sol, bytes(bits), tuple(chosen)), env

    return Component(desc, step)


def perturb_swap() -> Component:
    """Exchange two distinct positions of a permutation."""

    def step(sol, env):
        if not isinstance(sol, Permutation):
            raise ComponentContractError("swap: expected a permutation")
        n = len(sol)
        if n < 2:
            raise ComponentContractError("swap: permutation length must be >= 2")
        (i, j), env = _two_cuts(env, n)
        order = list(sol.order)
        order[i], order[j] = order[j], order[i]
        return Permutation._unchecked(tuple(order)), env

    return Component(ComponentDescriptor("swap", "perturb"), step)


def perturb_two_opt() -> Component:
    """Reverse the segment between two distinct cut points i < j (inclusive).
    A scored parent's child carries its memo and (i, j) (see `solutions`)."""

    def step(sol, env):
        if not isinstance(sol, Permutation):
            raise ComponentContractError("two_opt: expected a permutation")
        n = len(sol)
        if n < 2:
            raise ComponentContractError("two_opt: permutation length must be >= 2")
        (i, j), env = _two_cuts(env, n)
        o = sol.order
        return _child(sol, o[:i] + o[i : j + 1][::-1] + o[j + 1 :], (i, j)), env

    return Component(ComponentDescriptor("two_opt", "perturb"), step)


def _box_muller_pairs(env: Environment, count: int):
    """Yield `count` standard normals; two uniform draws per pair, odd tail
    uses two draws and discards the second variate."""
    out = []
    while len(out) < count:
        u1, env = rng_uniform(env)
        u2, env = rng_uniform(env)
        r = math.sqrt(-2.0 * math.log(1.0 - u1))  # 1-u1 avoids log(0)
        out.append(r * math.cos(2.0 * math.pi * u2))
        if len(out) < count:
            out.append(r * math.sin(2.0 * math.pi * u2))
    return out[:count], env


def perturb_gaussian(sigma: float = 0.1) -> Component:
    """Add N(0, sigma^2) noise per coordinate; clamps to problem.bounds, an
    rseq of two numbers lo <= hi, when it is set."""
    desc = ComponentDescriptor(
        name="gaussian",
        kind="perturb",
        params=(Param("sigma", "real", sigma, min=0.0, min_exclusive=True),),
        requires=frozenset({K_BOUNDS}),
    )
    sigma = desc.params[0].default

    def step(sol, env):
        if not isinstance(sol, RealVector):
            raise ComponentContractError("gaussian: expected a real vector")
        bounds = _optional(env, K_BOUNDS, "rseq", "gaussian")
        if bounds is not None and not (len(bounds) == 2 and bounds[0] <= bounds[1]):
            raise ComponentContractError(
                f"gaussian: {K_BOUNDS.render()} must be two numbers lo <= hi, got {list(bounds)}"
            )
        zs, env = _box_muller_pairs(env, len(sol))
        coords = [c + sigma * z for c, z in zip(sol.coords, zs)]
        if bounds is not None:
            lo, hi = bounds
            coords = [min(max(c, lo), hi) for c in coords]
        return RealVector(tuple(coords)), env

    return Component(desc, step)


# ---------------------------------------------------------------------------
# Acceptance


def _framework_values(env: Environment, who: str) -> Tuple[float, float]:
    entries = env.entries
    incumbent = entries.get(K_INCUMBENT_VALUE, _ABSENT)
    incoming = entries.get(K_INCOMING_VALUE, _ABSENT)
    if incumbent[0] == "real" == incoming[0]:
        return incumbent[1], incoming[1]
    return (
        _require(env, K_INCUMBENT_VALUE, "real", who),
        _require(env, K_INCOMING_VALUE, "real", who),
    )


def accept_improving() -> Component:
    """Accept incoming iff its value is <= the incumbent's (plateau walks allowed)."""

    def step(pair, env):
        incumbent, incoming = pair
        incumbent_value, incoming_value = _framework_values(env, "improving")
        return (incoming if incoming_value <= incumbent_value else incumbent), env

    desc = ComponentDescriptor(
        name="improving",
        kind="accept",
        requires=frozenset({K_INCUMBENT_VALUE, K_INCOMING_VALUE}),
    )
    return Component(desc, step)


def accept_metropolis(cooling: float = 0.99) -> Component:
    """Metropolis rule with geometrically cooled sa.temperature.

    Improving moves accept without drawing; temperature 0 rejects worsening
    moves without drawing (no randomness consumed in either case).
    """
    desc = ComponentDescriptor(
        name="metropolis",
        kind="accept",
        params=(Param("cooling", "real", cooling, min=0.0, max=1.0, min_exclusive=True),),
        requires=frozenset({K_TEMPERATURE, K_INCUMBENT_VALUE, K_INCOMING_VALUE}),
        provides=frozenset({K_TEMPERATURE}),
    )
    cooling = desc.params[0].default

    def step(pair, env):
        incumbent, incoming = pair
        incumbent_value, incoming_value = _framework_values(env, "metropolis")
        tag, temperature = env.entries.get(K_TEMPERATURE, _ABSENT)
        if tag != "real":
            temperature = _require(env, K_TEMPERATURE, "real", "metropolis")
        delta = incoming_value - incumbent_value
        if delta <= 0:
            chosen = incoming
        elif temperature == 0.0:
            chosen = incumbent
        else:
            u, env = rng_uniform(env)
            chosen = incoming if u < math.exp(-delta / temperature) else incumbent
        env = env.put(K_TEMPERATURE, EnvValue.of_real(temperature * cooling))
        return chosen, env

    return Component(desc, step)


def accept_tabu(tenure: int = 5) -> Component:
    """Reject solutions whose digest is among the last `tenure` acceptances."""
    desc = ComponentDescriptor(
        name="tabu",
        kind="accept",
        params=(Param("tenure", "int", tenure, min=1),),
        requires=frozenset({K_TABU_LIST}),
        provides=frozenset({K_TABU_LIST}),
    )
    tenure = desc.params[0].default

    def step(pair, env):
        incumbent, incoming = pair
        tabu = tuple(_optional(env, K_TABU_LIST, "dseq", "tabu") or ())
        digest = solution_digest(incoming)
        if digest in tabu:
            return incumbent, env
        updated = (tabu + (digest,))[-tenure:]
        env = env.put(K_TABU_LIST, _new(EnvValue, ("dseq", updated)))  # 64-bit words already
        return incoming, env

    return Component(desc, step)


# ---------------------------------------------------------------------------
# Termination


def _threshold(name: str, key: EnvKey, tag: str, param: Param, reached) -> Component:
    """A terminate that stops once `reached(value of key, param's value)`."""
    desc = ComponentDescriptor(name, "terminate", (param,), frozenset({key}))
    bound = desc.params[0].default

    def step(sol, env):
        held, value = env.entries.get(key, _ABSENT)
        if held != tag:
            value = _require(env, key, tag, name)
        return reached(value, bound), env

    return Component(desc, step)


def terminate_iterations(max_iterations: int = 1000) -> Component:
    return _threshold(
        "max_iterations", K_ITERATION, "int", Param("max", "int", max_iterations, min=0), ge
    )


def terminate_evaluations(max_evaluations: int = 1000) -> Component:
    return _threshold(
        "max_evaluations", K_EVALUATIONS, "int", Param("max", "int", max_evaluations, min=0), ge
    )


def terminate_target(target: float = 0.0) -> Component:
    return _threshold("target_value", K_BEST_VALUE, "real", Param("target", "real", target), le)
