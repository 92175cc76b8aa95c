"""Built-in component palette and registry (de)serialization.

A registry file lists named components, each bound to one of the built-in
implementations with optional default parameter overrides; descriptors are
regenerated on load, so serialization round-trips.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict

from . import components as c
from .assembly import Registry, _check_bounds, register, require_keys, require_shape, required
from .components import Component

# impl name -> constructor; kind, parameters and defaults are what the
# constructor, called with no arguments, declares
BUILTIN_IMPLS = {
    ctor().descriptor.name: ctor
    for ctor in (
        c.perturb_bitflip, c.perturb_swap, c.perturb_two_opt, c.perturb_gaussian,
        c.accept_improving, c.accept_metropolis, c.accept_tabu,
        c.terminate_iterations, c.terminate_evaluations, c.terminate_target,
    )
}


def add_builtin(reg: Registry, impl: str, name: str = None, defaults: Dict = None) -> Registry:
    """Register a built-in implementation under `name` with default params;
    raises ValueError naming each default its declared Params reject."""
    if impl not in BUILTIN_IMPLS:
        raise KeyError(f"unknown built-in implementation {impl!r}")
    ctor = BUILTIN_IMPLS[impl]
    name = name or impl
    declared = ctor().descriptor.params
    defaults = dict(defaults or {})
    violations = _check_bounds(name, declared, defaults)
    if violations:
        raise ValueError("; ".join(violations))

    def factory(bindings: Dict) -> Component:
        merged = {**defaults, **bindings}
        return ctor(*(merged.get(p.name, p.default) for p in declared))

    desc = dataclasses.replace(factory({}).descriptor, name=name)
    return register(reg, desc, factory, impl=impl)


def default_registry() -> Registry:
    reg = Registry()
    for impl in BUILTIN_IMPLS:
        reg = add_builtin(reg, impl)
    return reg


def registry_to_json(reg: Registry) -> dict:
    out = []
    for (kind, name), desc in sorted(reg.descriptors.items()):
        impl = reg.impls.get((kind, name), name)
        out.append(
            {
                "name": name,
                "impl": impl,
                "defaults": {p.name: p.default for p in desc.params},
            }
        )
    return {"components": out}


def registry_from_json(obj: dict) -> Registry:
    reg = Registry()
    require_keys(require_shape(obj, dict, "registry"), ("components",), "registry")
    entries = require_shape(required(obj, "components", "registry"), list, "components")
    for i, entry in enumerate(entries):
        at = f"components[{i}]"
        require_keys(require_shape(entry, dict, at), ("name", "impl", "defaults"), at)
        impl = require_shape(required(entry, "impl", at), str, f"{at}.impl")
        name = require_shape(entry.get("name", impl), str, f"{at}.name")
        defaults = require_shape(entry.get("defaults", {}), dict, f"{at}.defaults")
        reg = add_builtin(reg, impl, name, defaults)
    return reg


def load_registry(path: str) -> Registry:
    with open(path) as fh:
        return registry_from_json(json.load(fh))
