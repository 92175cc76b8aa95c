import itertools
import json

import pytest

from metafold.assembly import (
    ConfigurationSpec,
    InvalidConfigurationError,
    Registry,
    RegistrationError,
    UnknownComponentError,
    enumerate_valid,
    instantiate,
    register,
    validate,
)
from metafold.components import (
    ComponentDescriptor,
    K_TEMPERATURE,
    K_TABU_LIST,
    accept_improving,
)
from metafold.env import EnvKey, EnvValue, env_new
from metafold.palette import (
    BUILTIN_IMPLS,
    add_builtin,
    default_registry,
    load_registry,
    registry_from_json,
)
from metafold.problems import onemax

SA_INIT = (K_TEMPERATURE, EnvValue.of_real(10.0))
TABU_INIT = (K_TABU_LIST, EnvValue.of_dseq(()))


def spec_for(accept_name, initializers=(), terminate=("max_iterations", {"max": 10})):
    return ConfigurationSpec.make(
        "local_search",
        {
            "perturb": ("bitflip", {"k": 1}),
            "accept": (accept_name, {}),
            "terminate": terminate,
        },
        initializers=initializers,
    )


class TestRegister:
    def test_round_trip(self):
        reg = default_registry()
        assert reg.lookup("accept", "improving").name == "improving"

    def test_duplicate_rejected(self):
        reg = default_registry()
        with pytest.raises(RegistrationError):
            register(reg, ComponentDescriptor("improving", "accept"), lambda p: accept_improving())

    def test_immutable_style(self):
        reg = Registry()
        reg2 = register(reg, ComponentDescriptor("improving", "accept"), lambda p: accept_improving())
        assert not reg.descriptors and len(reg2.descriptors) == 1

    def test_a_file_of_every_builtin_with_its_defaults_loads_as_the_default_registry(self, tmp_path):
        entries = [
            {"name": impl, "impl": impl, "defaults": {p.name: p.default for p in ctor().descriptor.params}}
            for impl, ctor in BUILTIN_IMPLS.items()
        ]
        path = tmp_path / "registry.json"
        path.write_text(json.dumps({"components": entries}))
        loaded = load_registry(str(path))
        assert loaded.to_json() == default_registry().to_json()
        assert loaded.impls == {(d.kind, d.name): d.name for d in loaded.descriptors.values()}

    def test_custom_names_load(self):
        reg = Registry()
        reg = add_builtin(reg, "bitflip", "bitflip_2", {"k": 2})
        reg = add_builtin(reg, "tabu", "tabu_long", {"tenure": 20})
        loaded = registry_from_json({"components": [
            {"name": "bitflip_2", "impl": "bitflip", "defaults": {"k": 2}},
            {"name": "tabu_long", "impl": "tabu", "defaults": {"tenure": 20}},
        ]})
        assert loaded.to_json() == reg.to_json() and loaded.impls == reg.impls
        built = loaded.build("perturb", "bitflip_2", {})
        assert built.descriptor.params[0].default == 2


class TestValidate:
    def test_metropolis_with_initializer_valid(self):
        assert validate(spec_for("metropolis", (SA_INIT,)), default_registry()) == []

    def test_metropolis_without_initializer_invalid(self):
        violations = validate(spec_for("metropolis"), default_registry())
        assert any("sa.temperature" in v for v in violations)

    def test_self_provided_key_does_not_satisfy_own_read(self):
        # metropolis provides sa.temperature but that read-modify-write
        # must not satisfy its own initial read
        violations = validate(spec_for("metropolis"), default_registry())
        assert violations != []

    @pytest.mark.parametrize("accept", ["metropolis", "tabu"])
    def test_read_modify_write_key_is_provided_to_no_other_slot(self, accept):
        # an inner and an outer rule that both read and write one key each
        # looked like the other's provider, so the run failed on the read
        slots = {**ILS_SLOTS, "inner_accept": (accept, {}), "outer_accept": (accept, {})}
        key = "sa.temperature" if accept == "metropolis" else "tabu.list"
        violations = validate(ConfigurationSpec.make("ils", slots), default_registry())
        assert [v for v in violations if key in v] == [
            f"{accept} (slot inner_accept) requires unsatisfied key {key}",
            f"{accept} (slot outer_accept) requires unsatisfied key {key}",
        ]
        spec = ConfigurationSpec.make("ils", slots, initializers=(SA_INIT, TABU_INIT))
        assert validate(spec, default_registry()) == []
        assert len(instantiate(spec, default_registry(), onemax(8), 1)().trace) == 3

    def test_a_write_without_a_read_still_provides_the_key(self):
        heater = ComponentDescriptor("heater", "perturb", provides=frozenset({K_TEMPERATURE}))
        reg = register(default_registry(), heater, lambda p: None)
        spec = ConfigurationSpec.make(
            "local_search",
            {"perturb": ("heater", {}), "accept": ("metropolis", {}),
             "terminate": ("max_iterations", {"max": 1})},
        )
        assert validate(spec, reg) == []

    def test_read_modify_write_rule_sets_the_enumerated_counts(self):
        reg = default_registry()
        counts = {fw: len(enumerate_valid(reg, fw, {})) for fw in ("local_search", "ils", "ga")}
        assert counts == {"local_search": 12, "ils": 144, "ga": 12}

    def test_improving_needs_no_initializer(self):
        assert validate(spec_for("improving"), default_registry()) == []

    def test_unknown_component_distinct_error(self):
        with pytest.raises(UnknownComponentError):
            validate(spec_for("nonexistent"), default_registry())

    def test_unbound_slot_reported(self):
        spec = ConfigurationSpec.make(
            "local_search", {"perturb": ("bitflip", {"k": 1}), "accept": ("improving", {})}
        )
        assert any("terminate" in v for v in validate(spec, default_registry()))

    def test_bounds_checked(self):
        spec = spec_for("improving", terminate=("max_iterations", {"max": -1}))
        assert any("below minimum" in v for v in validate(spec, default_registry()))

    def test_monotone_in_initializers(self):
        reg = default_registry()
        for accept in ("improving", "metropolis", "tabu"):
            base = spec_for(accept, (SA_INIT, TABU_INIT))
            extended = spec_for(
                accept, (SA_INIT, TABU_INIT, (EnvKey("extra", "key"), EnvValue.of_int(1)))
            )
            if not validate(base, reg):
                assert not validate(extended, reg)


def small_registry():
    reg = Registry()
    reg = add_builtin(reg, "bitflip", "bitflip_1", {"k": 1})
    reg = add_builtin(reg, "bitflip", "bitflip_2", {"k": 2})
    reg = add_builtin(reg, "improving")
    reg = add_builtin(reg, "metropolis", defaults={"cooling": 1.0})
    reg = add_builtin(reg, "max_iterations", defaults={"max": 10})
    return reg


class TestEnumerateValid:
    def test_product_with_initializer(self):
        configs = enumerate_valid(small_registry(), "local_search", {}, initializers=(SA_INIT,))
        assert len(configs) == 4  # 2 perturbs x 2 accepts x 1 terminate

    def test_product_without_initializer(self):
        configs = enumerate_valid(small_registry(), "local_search", {})
        assert len(configs) == 2  # metropolis filtered out

    def test_equals_brute_force_filter(self):
        reg = small_registry()
        grids = {"bitflip_1": {"k": [1]}, "metropolis": {"cooling": [0.9, 1.0]}}
        for initializers in ((), (SA_INIT,)):
            enumerated = enumerate_valid(reg, "local_search", grids, initializers)
            brute = []
            perturbs = [("bitflip_1", {"k": 1}), ("bitflip_2", {"k": 2})]
            accepts = [
                ("improving", {}),
                ("metropolis", {"cooling": 0.9}),
                ("metropolis", {"cooling": 1.0}),
            ]
            terminates = [("max_iterations", {"max": 10})]
            for combo in itertools.product(perturbs, accepts, terminates):
                spec = ConfigurationSpec.make(
                    "local_search",
                    {"perturb": combo[0], "accept": combo[1], "terminate": combo[2]},
                    initializers=initializers,
                )
                if not validate(spec, reg):
                    brute.append(spec)
            assert enumerated == brute

    def test_empty_grid_gives_no_configs_for_component(self):
        configs = enumerate_valid(
            small_registry(),
            "local_search",
            {"bitflip_1": {"k": []}},
        )
        assert all(
            dict(spec.slots[1][2]) or spec.slots[1][1] != "bitflip_1"
            for spec in configs
        )
        names = {spec.slot_map()["perturb"][0] for spec in configs}
        assert names == {"bitflip_2"}

    def test_deterministic_ordering(self):
        a = enumerate_valid(small_registry(), "local_search", {}, initializers=(SA_INIT,))
        b = enumerate_valid(small_registry(), "local_search", {}, initializers=(SA_INIT,))
        assert [s.serialize() for s in a] == [s.serialize() for s in b]

    def test_every_config_runs(self):
        reg = small_registry()
        for spec in enumerate_valid(reg, "local_search", {}, initializers=(SA_INIT,)):
            result = instantiate(spec, reg, onemax(8), seed=1)()
            assert result.trace  # completed a 10-iteration run


class TestInstantiate:
    def test_determinism(self):
        reg = default_registry()
        spec = spec_for("improving", terminate=("max_iterations", {"max": 50}))
        a = instantiate(spec, reg, onemax(12), 9)()
        b = instantiate(spec, reg, onemax(12), 9)()
        assert (a.best, a.best_value, a.trace, a.final_env) == (
            b.best, b.best_value, b.trace, b.final_env
        )

    def test_invalid_spec_refuses(self):
        with pytest.raises(InvalidConfigurationError):
            instantiate(spec_for("metropolis"), default_registry(), onemax(8), 1)

    def test_sa_preset_degenerate_matches_improving(self):
        reg = default_registry()
        sa_spec = ConfigurationSpec.make(
            "local_search",
            {
                "perturb": ("bitflip", {"k": 1}),
                "accept": ("metropolis", {"cooling": 1.0}),
                "terminate": ("max_iterations", {"max": 200}),
            },
            initializers=((K_TEMPERATURE, EnvValue.of_real(0.0)),),
        )
        imp_spec = spec_for("improving", terminate=("max_iterations", {"max": 200}))
        a = instantiate(sa_spec, reg, onemax(16), 4)()
        b = instantiate(imp_spec, reg, onemax(16), 4)()
        assert a.trace == b.trace and a.best == b.best

    def test_ils_framework(self):
        reg = default_registry()
        spec = ConfigurationSpec.make(
            "ils",
            {
                "kick": ("bitflip", {"k": 3}),
                "inner_perturb": ("bitflip", {"k": 1}),
                "inner_accept": ("improving", {}),
                "inner_terminate": ("max_iterations", {"max": 20}),
                "outer_accept": ("improving", {}),
                "terminate": ("max_iterations", {"max": 10}),
            },
        )
        r = instantiate(spec, reg, onemax(16), 3)()
        assert len(r.trace) == 10

    def test_ga_framework(self):
        reg = default_registry()
        spec = ConfigurationSpec.make(
            "ga",
            {
                "mutate": ("bitflip", {"k": 1}),
                "terminate": ("max_iterations", {"max": 15}),
            },
            framework_params={"pop_size": 8, "tournament_size": 2},
        )
        r = instantiate(spec, reg, onemax(16), 3)()
        assert len(r.trace) == 15

    def test_config_spec_json_round_trip(self):
        spec = spec_for("metropolis", (SA_INIT,))
        assert ConfigurationSpec.from_json(spec.to_json()) == spec
        assert spec.content_hash() == ConfigurationSpec.from_json(spec.to_json()).content_hash()


def ga_spec(**framework_params):
    return ConfigurationSpec.make(
        "ga",
        {"mutate": ("bitflip", {"k": 1}), "terminate": ("max_iterations", {"max": 3})},
        framework_params=framework_params,
    )


ILS_SLOTS = {
    "kick": ("bitflip", {"k": 3}),
    "inner_perturb": ("bitflip", {"k": 1}),
    "inner_accept": ("improving", {}),
    "inner_terminate": ("max_iterations", {"max": 5}),
    "outer_accept": ("improving", {}),
    "terminate": ("max_iterations", {"max": 3}),
}


class TestFrameworkParams:
    def test_misspelt_ga_param_is_a_violation(self):
        violations = validate(ga_spec(pop_sise=8), default_registry())
        assert violations == ["ga: unknown parameter 'pop_sise'"]

    @pytest.mark.parametrize(
        "params, fragment",
        [
            ({"pop_size": 0}, "ga.pop_size=0 below minimum 2"),
            ({"pop_size": 1}, "ga.pop_size=1 below minimum 2"),
            ({"tournament_size": 0}, "ga.tournament_size=0 below minimum 1"),
            ({"pop_size": "8"}, "ga.pop_size='8' is not a number"),
        ],
    )
    def test_out_of_range_ga_params_are_violations(self, params, fragment):
        assert validate(ga_spec(**params), default_registry()) == [fragment]

    @pytest.mark.parametrize(
        "spec",
        [
            ConfigurationSpec.make(
                "local_search",
                {
                    "perturb": ("bitflip", {"k": 1}),
                    "accept": ("improving", {}),
                    "terminate": ("max_iterations", {"max": 3}),
                },
                framework_params={"pop_size": 8},
            ),
            ConfigurationSpec.make("ils", ILS_SLOTS, framework_params={"pop_size": 8}),
        ],
    )
    def test_templates_without_params_reject_any(self, spec):
        violations = validate(spec, default_registry())
        assert violations == [f"{spec.framework}: unknown parameter 'pop_size'"]

    def test_valid_ga_params(self):
        assert validate(ga_spec(pop_size=8, tournament_size=3), default_registry()) == []

    def test_instantiate_refuses_bad_framework_params(self):
        with pytest.raises(InvalidConfigurationError):
            instantiate(ga_spec(pop_size=0), default_registry(), onemax(8), 1)

    def test_enumerate_valid_raises_instead_of_yielding_nothing(self):
        with pytest.raises(InvalidConfigurationError) as info:
            enumerate_valid(small_registry(), "ga", {}, framework_params={"pop_sise": 8})
        assert info.value.violations == ["ga: unknown parameter 'pop_sise'"]

    def test_ga_defaults(self):
        # pop_size 20 and tournament_size 2 unless the spec says otherwise
        r = instantiate(ga_spec(), default_registry(), onemax(8), 1)()
        explicit = instantiate(
            ga_spec(pop_size=20, tournament_size=2), default_registry(), onemax(8), 1
        )()
        assert [row[1] for row in r.trace] == [40, 60, 80]
        assert r.trace == explicit.trace and r.final_env == explicit.final_env

    def test_odd_pop_size_runs(self):
        spec = ga_spec(pop_size=3)
        assert validate(spec, default_registry()) == []
        r = instantiate(spec, default_registry(), onemax(8), 1)()
        assert [row[1] for row in r.trace] == [6, 9, 12]


class TestGridsAreChecked:
    """A grid names components and values directly, so a name, parameter
    or value that cannot take part is an error, not a narrower product."""

    @pytest.mark.parametrize(
        "grids, violation",
        [
            ({"bitflip": {"k": [0]}}, "grids.bitflip.k=0 below minimum 1"),
            ({"bitflip": {"k": [0, 2]}}, "grids.bitflip.k=0 below minimum 1"),
            ({"bitflp": {"k": [2]}}, "grids.bitflp: no registered component has this name"),
            ({"bitflip": {"kk": [2]}}, "grids.bitflip: unknown parameter 'kk'"),
            ({"bitflip": {"k": [2.5]}}, "grids.bitflip.k=2.5 is not an integer"),
        ],
    )
    def test_bad_grid_raises_naming_it(self, grids, violation):
        with pytest.raises(InvalidConfigurationError) as info:
            enumerate_valid(default_registry(), "local_search", grids)
        assert info.value.violations == [violation]

    def test_every_violation_is_named(self):
        grids = {"bitflp": {"k": [2]}, "metropolis": {"cooling": [0.5, 2.0], "t": []}}
        with pytest.raises(InvalidConfigurationError) as info:
            enumerate_valid(default_registry(), "local_search", grids)
        assert info.value.violations == [
            "grids.bitflp: no registered component has this name",
            "grids.metropolis.cooling=2.0 above maximum 1.0",
            "grids.metropolis: unknown parameter 't'",
        ]


class TestRepeatedInitializerKeys:
    # what parse_initializers refuses in a file, a spec made in code lists
    SPEC = spec_for("metropolis", [SA_INIT, (K_TEMPERATURE, EnvValue.of_real(5.0))])
    VIOLATION = "initializers[1] repeats the key sa.temperature of initializers[0]"

    def test_validate_names_the_repeat(self):
        assert validate(self.SPEC, default_registry()) == [self.VIOLATION]

    def test_instantiate_refuses_before_any_trial(self):
        with pytest.raises(InvalidConfigurationError, match=r"initializers\[1\] repeats"):
            instantiate(self.SPEC, default_registry(), onemax(8), seed=1)

    def test_enumerate_valid_raises_instead_of_yielding_nothing(self):
        with pytest.raises(InvalidConfigurationError) as raised:
            enumerate_valid(
                default_registry(), "local_search", {}, initializers=list(self.SPEC.initializers)
            )
        assert raised.value.violations == [self.VIOLATION]
