"""Built-in component palette and the registry file reader.

A registry file lists named components, each bound to one of the built-in
implementations with optional default parameter overrides; descriptors are
regenerated from the implementations on load.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from . import components as c
from .assembly import Registry, RegistrationError, _check_bounds, register
from .components import Component
from .env import loads, read

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
    """Register the built-in implementation `impl` under `name` with default
    params; raises ValueError naming each default its declared Params reject."""
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


# A registry file, as `read` takes it: each entry binds a name, by default
# its implementation's, to a built-in implementation with default params.
_REGISTRY_FILE = {"components": ("array of", {
    "impl": "string", "name": ("optional", "string"), "defaults": ("optional", "object"),
})}


def registry_from_json(obj: dict) -> Registry:
    reg = Registry()
    for i, entry in enumerate(read(obj, _REGISTRY_FILE, "registry", "")["components"]):
        impl = entry["impl"]
        if impl not in BUILTIN_IMPLS:
            raise ValueError(f"components[{i}].impl: unknown built-in implementation {impl!r}")
        try:
            reg = add_builtin(reg, impl, entry.get("name", impl), entry.get("defaults", {}))
        except RegistrationError as exc:
            raise RegistrationError(f"components[{i}]: {exc}") from None
    return reg


def load_registry(path: str) -> Registry:
    with open(path) as fh:
        return registry_from_json(loads(fh.read()))
