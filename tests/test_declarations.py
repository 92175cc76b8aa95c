"""Each built-in component is declared once: its constructor's signature
holds the defaults and its `Param`s hold type and range. `validate`, the
registry and the constructor must therefore agree on every value."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metafold.assembly import ConfigurationSpec, InvalidConfigurationError, validate
from metafold.components import (
    K_EVALUATIONS,
    K_INCOMING_VALUE,
    K_INCUMBENT_VALUE,
    K_ITERATION,
    K_TABU_LIST,
    K_TEMPERATURE,
    ComponentDescriptor,
)
from metafold.env import EnvValue, env_new
from metafold.palette import BUILTIN_IMPLS, default_registry
from metafold.solutions import BitVector

REGISTRY = default_registry()
# local_search has one slot per kind a built-in can have
FILLERS = {"perturb": "bitflip", "accept": "improving", "terminate": "max_iterations"}
INITIALIZERS = (
    (K_TEMPERATURE, EnvValue.of_real(1.0)),
    (K_TABU_LIST, EnvValue.of_dseq(())),
)
PARAMETERS = [
    (impl, i)
    for impl, ctor in BUILTIN_IMPLS.items()
    for i in range(len(ctor().descriptor.params))
]


def verdicts(impl, index, value):
    """(validate accepts, constructor accepts, Registry.build accepts)."""
    ctor = BUILTIN_IMPLS[impl]
    desc = ctor().descriptor
    pname = desc.params[index].name
    slots = {kind: (name, {}) for kind, name in FILLERS.items()}
    slots[desc.kind] = (impl, {pname: value})
    spec = ConfigurationSpec.make("local_search", slots, INITIALIZERS)
    args = [p.default for p in desc.params]
    args[index] = value
    try:
        ctor(*args)
        constructed = True
    except ValueError:
        constructed = False
    try:
        REGISTRY.build(desc.kind, impl, {pname: value})
        built = True
    except InvalidConfigurationError:
        built = False
    return validate(spec, REGISTRY) == [], constructed, built


VALUES = st.one_of(
    st.integers(min_value=-5, max_value=5000),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.sampled_from([0, 0.0, 1, 1.0, 2.5, -1, "3", None, [1], 10**400]),
)


@settings(max_examples=300, deadline=None)
@given(parameter=st.sampled_from(PARAMETERS), value=VALUES)
def test_validate_accepts_exactly_what_the_constructor_accepts(parameter, value):
    impl, index = parameter
    accepted, constructed, built = verdicts(impl, index, value)
    assert accepted == constructed == built


@pytest.mark.parametrize(
    "impl, value, accepted",
    [
        ("gaussian", 0, False),
        ("gaussian", 0.0, False),
        ("gaussian", 1e-9, True),
        ("metropolis", 0, False),
        ("metropolis", 0.0, False),
        ("metropolis", 1, True),
        ("metropolis", 1.0, True),
        ("metropolis", 1.5, False),
        ("bitflip", 2.5, False),
        ("bitflip", 2.0, True),
        ("bitflip", True, False),
        ("tabu", 0, False),
        ("max_iterations", -1, False),
        ("max_iterations", 0, True),
        ("max_evaluations", -1, False),
        ("max_evaluations", math.nan, False),
        ("target_value", math.nan, False),
        ("target_value", math.inf, False),
        ("target_value", -3.5, True),
        ("target_value", True, False),
    ],
)
def test_declared_ranges_at_their_edges(impl, value, accepted):
    assert verdicts(impl, 0, value) == (accepted, accepted, accepted)


@pytest.mark.parametrize("impl", sorted(BUILTIN_IMPLS))
def test_constructor_rebuilt_from_its_declared_defaults_is_equal(impl):
    ctor = BUILTIN_IMPLS[impl]
    declared = ctor().descriptor
    assert declared.name == impl
    assert ctor(*(p.default for p in declared.params)).descriptor == declared
    bindings = {p.name: p.default for p in declared.params}
    assert REGISTRY.build(declared.kind, impl, bindings).descriptor == declared


def test_exclusive_minimum_round_trips_through_json():
    for ctor in BUILTIN_IMPLS.values():
        desc = ctor().descriptor
        assert ComponentDescriptor.from_json(desc.to_json()) == desc
    flags = {
        (impl, p.name): p.min_exclusive
        for impl, ctor in BUILTIN_IMPLS.items()
        for p in ctor().descriptor.params
    }
    assert {k for k, v in flags.items() if v} == {("gaussian", "sigma"), ("metropolis", "cooling")}


def test_fractional_framework_param_is_a_violation():
    spec = ConfigurationSpec.make(
        "ga",
        {"mutate": ("bitflip", {}), "terminate": ("max_iterations", {})},
        framework_params={"pop_size": 8.5},
    )
    assert validate(spec, REGISTRY) == ["ga.pop_size=8.5 is not an integer"]


INT_PARAMETERS = [
    (impl, i)
    for impl, i in PARAMETERS
    if BUILTIN_IMPLS[impl]().descriptor.params[i].type == "int"
]


def built_with(impl, index, value):
    ctor = BUILTIN_IMPLS[impl]
    args = [p.default for p in ctor().descriptor.params]
    args[index] = value
    return ctor(*args)


def three_steps(component):
    """What three successive steps return on fixed inputs of the
    component's kind, threading one Environment."""
    a, b = BitVector.from_string("01101001"), BitVector.from_string("11100010")
    env = env_new(3).put_many({
        K_ITERATION: EnvValue.of_int(2),
        K_EVALUATIONS: EnvValue.of_int(2),
        K_INCUMBENT_VALUE: EnvValue.of_real(1.0),
        K_INCOMING_VALUE: EnvValue.of_real(0.0),
    })
    x = {"perturb": a, "accept": (a, b), "terminate": a}[component.descriptor.kind]
    outs = []
    for _ in range(3):
        out, env = component(x, env)
        outs.append(out)
    return outs, env


@pytest.mark.parametrize("impl, index", INT_PARAMETERS)
@pytest.mark.parametrize("value", [1, 2, 3])
def test_integral_float_builds_what_the_int_builds(impl, index, value):
    as_int = built_with(impl, index, value)
    as_float = built_with(impl, index, float(value))
    assert json.dumps(as_float.descriptor.to_json()) == json.dumps(as_int.descriptor.to_json())
    assert three_steps(as_float) == three_steps(as_int)
