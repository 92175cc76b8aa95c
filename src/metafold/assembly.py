"""Component registry and automated design-space enumeration.

Configurations are derived, not hand-written: a spec is valid exactly when
every component's required environment keys are covered by the framework,
the initializers, or some other bound component's provides. Enumeration is
the validated Cartesian product over slot candidates and parameter grids,
in a deterministic order so configuration ids are stable everywhere.
"""

from __future__ import annotations

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
from .env import EnvKey, EnvValue, _ENV_VALUE, env_new, read
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


# A listed configuration, and an initializer entry, as `read` takes them;
# the parameters that slot and framework_params bind are checked against
# their Params.
_SLOT = {"component": "string", "params": ("optional", "object")}
_CONFIG = {
    "framework": "string",
    "slots": ("object of", _SLOT),
    "initializers": ("optional", "any"),  # read by parse_initializers
    "framework_params": ("optional", "object"),
}
_INITIALIZER = {"key": "string", "value": _ENV_VALUE}


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
        raise RegistrationError(f"duplicate component {descriptor.kind} {descriptor.name!r}")
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
        read(obj, _CONFIG, where)
        slots = obj["slots"]
        return ConfigurationSpec.make(
            obj["framework"],
            {slot: (entry["component"], entry.get("params", {})) for slot, entry in slots.items()},
            parse_initializers(obj.get("initializers", []), f"{where}.initializers"),
            obj.get("framework_params", {}),
        )

    def serialize(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        import hashlib

        return hashlib.sha256(self.serialize().encode("utf-8")).hexdigest()[:16]


def parse_initializers(entries, where: str = "initializers") -> Tuple[Tuple[EnvKey, EnvValue], ...]:
    """A JSON list of {"key", "value"} objects as (EnvKey, EnvValue) pairs.
    A key may appear once, so that no value is silently overwritten."""
    read(entries, ("array of", _INITIALIZER), where)
    out = [(EnvKey.parse(e["key"]), EnvValue.from_json(e["value"])) for e in entries]
    repeats = _repeated_keys(out, where)
    if repeats:
        raise ValueError(repeats[0])
    return tuple(out)


def _repeated_keys(initializers, where: str = "initializers") -> List[str]:
    """A violation for each initializer whose key an earlier one holds,
    whose value would overwrite the earlier one's."""
    keys = [k for k, _ in initializers]
    return [
        f"{where}[{i}] repeats the key {key.render()} of {where}[{keys.index(key)}]"
        for i, key in enumerate(keys)
        if keys.index(key) < i
    ]


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


def _check_grids(
    reg: Registry, framework: str, param_grids: Dict[str, Dict[str, Sequence]]
) -> List[str]:
    """Each grid entry that names no registered component, one no slot of
    `framework` takes, a parameter its component does not declare, a value
    that parameter rejects, or a value equal (`==`) to an earlier one."""
    kinds = {kind for _, kind in _framework(framework).slots}
    registered = {name for _, name in reg.descriptors}
    params_of: Dict[str, List[Param]] = {}  # of the components a slot takes
    for desc in reg.descriptors.values():
        if desc.kind in kinds:
            params_of.setdefault(desc.name, []).extend(desc.params)
    problems = []
    for name, grid in param_grids.items():
        if name not in params_of:
            problems.append(f"grids.{name}: " + (
                f"no slot of framework {framework} takes this component"
                if name in registered else "no registered component has this name"
            ))
            continue
        for pname, values in grid.items():
            declared = [p for p in params_of[name] if p.name == pname]
            if not declared:
                problems.append(f"grids.{name}: unknown parameter {pname!r}")
            for p in declared:
                problems.extend(filter(None, (p.violation(f"grids.{name}", v) for v in values)))
            for i, v in enumerate(values):
                first = values.index(v)
                if first < i:
                    problems.append(
                        f"grids.{name}.{pname}[{i}]={v!r} repeats the value "
                        f"{values[first]!r} of grids.{name}.{pname}[{first}]"
                    )
    return problems


def validate(spec: ConfigurationSpec, reg: Registry) -> List[str]:
    """Return a list of violations; empty means valid. An initializer key
    listed twice is one, as `parse_initializers` words it.

    A key a component both reads and writes (read-modify-write) satisfies
    no slot's read, its own or another's, since either may run first.
    """
    framework = _framework(spec.framework)
    slot_kinds = dict(framework.slots)
    slot_map = spec.slot_map()
    violations = _check_bounds(spec.framework, framework.params, dict(spec.framework_params))
    violations += _repeated_keys(spec.initializers)
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
        others = frozenset().union(*(d.provides - d.requires for s, d in bound if s != slot))
        available = FRAMEWORK_KEYS | initializer_keys | others
        for key in sorted(desc.requires):
            if key == K_BOUNDS:
                continue  # optional problem metadata, satisfied at instantiation
            if key not in available:
                violations.append(
                    f"{desc.name} (slot {slot}) requires unsatisfied key {key.render()}"
                )
    return violations


def runs_as(spec: ConfigurationSpec, reg: Registry) -> tuple:
    """What a valid `spec` runs: its framework, each slot's component with
    every parameter the component declares bound, its initializers by key
    and every framework parameter, defaults filled in. Two specs that run
    the same trials give equal values."""
    framework = FRAMEWORKS[spec.framework]
    slot_kinds = dict(framework.slots)
    slots = []
    for slot, name, bindings in spec.slots:
        declared = reg.lookup(slot_kinds[slot], name).params
        bound = {**{p.name: p.default for p in declared}, **dict(bindings)}
        slots.append((slot, name, sorted(bound.items())))
    return spec.framework, slots, dict(spec.initializers), _framework_params(framework, spec)


def _framework_params(framework: Framework, spec: ConfigurationSpec) -> Dict:
    """Every parameter of a valid `spec`'s framework, defaults filled in, as
    its Param's type: an "int" given as 20.0 reads 20."""
    given = {**{p.name: p.default for p in framework.params}, **dict(spec.framework_params)}
    return {p.name: p.checked(spec.framework, given[p.name]) for p in framework.params}


def enumerate_valid(
    reg: Registry,
    framework: str,
    param_grids: Dict[str, Dict[str, Sequence]],
    initializers: Sequence[Tuple[EnvKey, EnvValue]] = (),
    framework_params: Dict = (),
) -> List[ConfigurationSpec]:
    """All valid configurations, ordered lexicographically by component
    names then grid indices.

    `initializers` and `framework_params` are shared by every
    configuration and grids name components and values directly, so
    invalid ones raise InvalidConfigurationError instead of silently
    narrowing the list."""
    template = _framework(framework)
    violations = _check_bounds(framework, template.params, dict(framework_params))
    violations += _repeated_keys(initializers)
    violations += _check_grids(reg, framework, param_grids)
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
    params = _framework_params(framework, spec)

    def run() -> RunResult:
        env = env_new(seed)
        bounds = problem.metadata.get("bounds")
        if bounds is not None:
            env = env.put(K_BOUNDS, EnvValue.of_rseq(bounds))
        for key, value in spec.initializers:
            env = env.put(key, value)
        return framework.run(problem, parts, params, env)

    return run
