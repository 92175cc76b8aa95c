"""Component registry and automated design-space enumeration.

Configurations are derived, not hand-written: a spec is valid exactly when
every component's required environment keys are covered by the framework,
the initializers, or some other bound component's provides. Enumeration is
the validated Cartesian product over slot candidates and parameter grids,
in a deterministic order so configuration ids are stable everywhere.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .components import (
    Component,
    ComponentDescriptor,
    FRAMEWORK_KEYS,
    K_BOUNDS,
    Param,
)
from .env import EnvKey, EnvValue, env_new
from .frameworks import FRAMEWORKS, Framework, RunResult, terminate_any
from .problems import ProblemInstance


class RegistrationError(Exception):
    pass


class UnknownComponentError(Exception):
    pass


class InvalidConfigurationError(Exception):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


_JSON_SHAPES = {dict: "an object", list: "a list", str: "a string"}


def require_shape(value, shape: type, where: str):
    """`value` itself when it is a `shape` (dict, list or str); raises
    ValueError naming `where` otherwise. Guards JSON read from files."""
    if not isinstance(value, shape):
        got = type(value).__name__
        raise ValueError(f"{where} must be {_JSON_SHAPES[shape]}, got {got}")
    return value


@dataclass(frozen=True)
class Registry:
    descriptors: Dict[Tuple[str, str], ComponentDescriptor] = field(default_factory=dict)
    factories: Dict[Tuple[str, str], Callable[[Dict], Component]] = field(default_factory=dict)
    impls: Dict[Tuple[str, str], str] = field(default_factory=dict)  # name of backing implementation

    def lookup(self, kind: str, name: str) -> ComponentDescriptor:
        try:
            return self.descriptors[(kind, name)]
        except KeyError:
            raise UnknownComponentError(f"no {kind} component named {name!r}")

    def build(self, kind: str, name: str, bindings: Dict) -> Component:
        """Build a component; refuses bindings its Params reject."""
        desc = self.lookup(kind, name)
        violations = _check_bounds(desc.name, desc.params, bindings)
        if violations:
            raise InvalidConfigurationError(violations)
        return self.factories[(kind, name)](bindings)

    def of_kind(self, kind: str) -> List[ComponentDescriptor]:
        return sorted(
            (d for (k, _), d in self.descriptors.items() if k == kind),
            key=lambda d: d.name,
        )

    def to_json(self) -> dict:
        descs = sorted(self.descriptors.values(), key=lambda d: (d.kind, d.name))
        return {"components": [d.to_json() for d in descs]}


def register(reg: Registry, descriptor: ComponentDescriptor, factory, impl: Optional[str] = None) -> Registry:
    key = (descriptor.kind, descriptor.name)
    if key in reg.descriptors:
        raise RegistrationError(f"duplicate component {key}")
    descriptors = dict(reg.descriptors)
    factories = dict(reg.factories)
    impls = dict(reg.impls)
    descriptors[key] = descriptor
    factories[key] = factory
    if impl is not None:
        impls[key] = impl
    return Registry(descriptors, factories, impls)


@dataclass(frozen=True)
class ConfigurationSpec:
    framework: str
    slots: Tuple[Tuple[str, str, Tuple[Tuple[str, object], ...]], ...]
    # each slot entry: (slot name, component name, ((param, value), ...))
    initializers: Tuple[Tuple[EnvKey, EnvValue], ...] = ()
    framework_params: Tuple[Tuple[str, object], ...] = ()

    @staticmethod
    def make(framework, slots: Dict[str, Tuple[str, Dict]], initializers=(), framework_params=()):
        slot_entries = tuple(
            (slot, name, tuple(sorted(bindings.items())))
            for slot, (name, bindings) in sorted(slots.items())
        )
        return ConfigurationSpec(
            framework=framework,
            slots=slot_entries,
            initializers=tuple(initializers),
            framework_params=tuple(sorted(dict(framework_params).items())),
        )

    def slot_map(self) -> Dict[str, Tuple[str, Dict]]:
        return {slot: (name, dict(bindings)) for slot, name, bindings in self.slots}

    def to_json(self) -> dict:
        return {
            "framework": self.framework,
            "slots": {
                slot: {"component": name, "params": dict(bindings)}
                for slot, name, bindings in self.slots
            },
            "initializers": [
                {"key": k.render(), "value": v.to_json()} for k, v in self.initializers
            ],
            "framework_params": dict(self.framework_params),
        }

    @staticmethod
    def from_json(obj: dict, where: str = "config") -> "ConfigurationSpec":
        """Raises ValueError naming the path of any part of `obj` whose
        JSON shape is wrong."""
        require_shape(obj, dict, where)
        slots = {}
        for slot, entry in require_shape(obj["slots"], dict, f"{where}.slots").items():
            at = f"{where}.slots.{slot}"
            require_shape(entry, dict, at)
            slots[slot] = (
                require_shape(entry["component"], str, f"{at}.component"),
                require_shape(entry.get("params", {}), dict, f"{at}.params"),
            )
        return ConfigurationSpec.make(
            require_shape(obj["framework"], str, f"{where}.framework"),
            slots,
            parse_initializers(obj.get("initializers", []), f"{where}.initializers"),
            require_shape(obj.get("framework_params", {}), dict, f"{where}.framework_params"),
        )

    def serialize(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        return hashlib.sha256(self.serialize().encode("utf-8")).hexdigest()[:16]


def parse_initializers(entries, where: str = "initializers") -> Tuple[Tuple[EnvKey, EnvValue], ...]:
    """A JSON list of {"key", "value"} objects as (EnvKey, EnvValue) pairs."""
    out = []
    for i, e in enumerate(require_shape(entries, list, where)):
        at = f"{where}[{i}]"
        require_shape(e, dict, at)
        key = EnvKey.parse(require_shape(e["key"], str, f"{at}.key"))
        out.append((key, EnvValue.from_json(require_shape(e["value"], dict, f"{at}.value"))))
    return tuple(out)


def _framework(name: str) -> Framework:
    try:
        return FRAMEWORKS[name]
    except KeyError:
        raise UnknownComponentError(f"unknown framework {name!r}") from None


def _check_bounds(who: str, params: Sequence[Param], bindings: Dict) -> List[str]:
    problems = []
    known = {p.name: p for p in params}
    for pname, value in bindings.items():
        p = known.get(pname)
        problem = (
            f"{who}: unknown parameter {pname!r}" if p is None else p.violation(who, value)
        )
        if problem is not None:
            problems.append(problem)
    return problems


def _check_grids(reg: Registry, param_grids: Dict[str, Dict[str, Sequence]]) -> List[str]:
    """Each grid entry that names no registered component, a parameter its
    component does not declare, or a value that parameter rejects."""
    params_of: Dict[str, List[Param]] = {}
    for desc in reg.descriptors.values():
        params_of.setdefault(desc.name, []).extend(desc.params)
    problems = []
    for name, grid in param_grids.items():
        if name not in params_of:
            problems.append(f"grids.{name}: no registered component has this name")
            continue
        for pname, values in grid.items():
            declared = [p for p in params_of[name] if p.name == pname]
            if not declared:
                problems.append(f"grids.{name}: unknown parameter {pname!r}")
            for p in declared:
                problems.extend(filter(None, (p.violation(f"grids.{name}", v) for v in values)))
    return problems


def validate(spec: ConfigurationSpec, reg: Registry) -> List[str]:
    """Return a list of violations; empty means valid.

    A key provided only by the requiring component itself (read-modify-write)
    does not satisfy that component's own initial read.
    """
    framework = _framework(spec.framework)
    slot_kinds = dict(framework.slots)
    slot_map = spec.slot_map()
    violations = _check_bounds(spec.framework, framework.params, dict(spec.framework_params))
    bound = []  # (slot, descriptor)
    for slot, kind in slot_kinds.items():
        if slot not in slot_map:
            violations.append(f"slot {slot!r} is unbound")
            continue
        name, bindings = slot_map[slot]
        desc = reg.lookup(kind, name)  # raises UnknownComponentError
        violations.extend(_check_bounds(desc.name, desc.params, bindings))
        bound.append((slot, desc))
    for slot in slot_map:
        if slot not in slot_kinds:
            violations.append(f"slot {slot!r} is not part of framework {spec.framework}")
    initializer_keys = {k for k, _ in spec.initializers}
    for slot, desc in bound:
        others = frozenset().union(
            *(d.provides for s, d in bound if s != slot), frozenset()
        )
        available = FRAMEWORK_KEYS | initializer_keys | others
        for key in sorted(desc.requires):
            if key == K_BOUNDS:
                continue  # optional problem metadata, satisfied at instantiation
            if key not in available:
                violations.append(
                    f"{desc.name} (slot {slot}) requires unsatisfied key {key.render()}"
                )
    return violations


def enumerate_valid(
    reg: Registry,
    framework: str,
    param_grids: Dict[str, Dict[str, Sequence]],
    initializers: Sequence[Tuple[EnvKey, EnvValue]] = (),
    framework_params: Dict = (),
) -> List[ConfigurationSpec]:
    """All valid configurations, ordered lexicographically by component
    names then grid indices.

    `framework_params` are shared by every configuration and grids name
    components and values directly, so invalid ones raise
    InvalidConfigurationError instead of silently narrowing the list."""
    template = _framework(framework)
    violations = _check_bounds(framework, template.params, dict(framework_params))
    violations += _check_grids(reg, param_grids)
    if violations:
        raise InvalidConfigurationError(violations)
    slots = template.slots
    per_slot = []
    for slot, kind in slots:
        candidates = reg.of_kind(kind)
        if not candidates:
            raise RegistrationError(f"no registered components of kind {kind!r}")
        options = []
        for desc in candidates:
            grids = param_grids.get(desc.name, {})
            value_lists = [
                list(grids.get(p.name, [p.default])) for p in desc.params
            ]
            for combo in itertools.product(*value_lists):
                options.append((desc.name, dict(zip((p.name for p in desc.params), combo))))
        per_slot.append(options)
    specs = []
    for assignment in itertools.product(*per_slot):
        spec = ConfigurationSpec.make(
            framework,
            {slot: choice for (slot, _), choice in zip(slots, assignment)},
            initializers=initializers,
            framework_params=framework_params,
        )
        if not validate(spec, reg):
            specs.append(spec)
    return specs


def instantiate(
    spec: ConfigurationSpec,
    reg: Registry,
    problem: ProblemInstance,
    seed: int,
    extra_terminate: Optional[Component] = None,
) -> Callable[[], RunResult]:
    """Build a runnable closure; refuses to run invalid specs.

    `extra_terminate` lets the harness impose budget caps on top of the
    configuration's own termination condition.
    """
    violations = validate(spec, reg)
    if violations:
        raise InvalidConfigurationError(violations)
    framework = FRAMEWORKS[spec.framework]
    slot_kinds = dict(framework.slots)
    parts = {
        slot: reg.build(slot_kinds[slot], name, bindings)
        for slot, (name, bindings) in spec.slot_map().items()
    }
    if extra_terminate is not None:
        parts["terminate"] = terminate_any(parts["terminate"], extra_terminate)
    params = {p.name: p.default for p in framework.params}
    params.update(spec.framework_params)

    def run() -> RunResult:
        env = env_new(seed)
        bounds = problem.metadata.get("bounds")
        if bounds is not None:
            env = env.put(K_BOUNDS, EnvValue.of_rseq(bounds))
        for key, value in spec.initializers:
            env = env.put(key, value)
        return framework.run(problem, parts, params, env)

    return run
