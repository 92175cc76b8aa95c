"""Inputs that were once accepted silently are refused with an error that
names them: an unknown key in a wire Environment, an experiment that lists
its configs and also names what configs are enumerated from, a `compare`
file that holds one trial twice, a configuration or grid value listed
twice, a grid no slot reads, an initializer key given twice, a run with
no configuration, a `budget` or `registry` that is present but is no
object or file name, an empty file name on the command line, and a
missing required key."""

import csv
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_rpc_client import StubServer
from test_rpc_threads import START, recording_registry

from metafold import rpc
from metafold.cli import main
from metafold.components import perturb_bitflip
from metafold.env import EnvKey, EnvValue, Environment, RngState, env_new
from metafold.rpc import (
    ERR_BAD_REPLY, ERR_INVALID_PARAMS, RemoteProtocolError, handle_rpc, remote_perturb,
)
from metafold.solutions import solution_to_json


def perturb_with(registry, env_json):
    params = {
        "component": "bitflip", "params": {}, "env": env_json, "solution": solution_to_json(START),
    }
    request = {"jsonrpc": "2.0", "id": 1, "method": "perturb", "params": params}
    return handle_rpc(registry, json.dumps(request).encode())


def test_an_unknown_key_in_the_wire_env_is_named_not_ignored():
    calls = []
    env = env_new(5).to_json()
    env["rng"]["cuonter"] = "5"
    response = perturb_with(recording_registry(calls), env)
    assert response["error"]["code"] == ERR_INVALID_PARAMS
    assert response["error"]["message"].endswith("unknown key 'cuonter' at env.rng")
    env = env_new(5).to_json()
    env["extra"] = 1
    response = perturb_with(recording_registry(calls), env)
    assert response["error"]["code"] == ERR_INVALID_PARAMS
    assert response["error"]["message"].endswith("unknown key 'extra' at env")
    assert calls == []


def test_a_proxy_refuses_an_unknown_key_in_a_reply_env():
    child, env = perturb_bitflip(1)(START, env_new(3))
    env_json = env.to_json()
    env_json["rng"]["cuonter"] = "5"
    stub = StubServer()
    stub.replies = {"perturb": json.dumps({"jsonrpc": "2.0", "id": 1, "result": {
        "solution": solution_to_json(child), "env": env_json,
    }}).encode()}
    try:
        with pytest.raises(RemoteProtocolError) as caught:
            remote_perturb(stub.endpoint, "bitflip", {"k": 1})(START, env_new(3))
    finally:
        stub.close()
    assert caught.value.code == ERR_BAD_REPLY
    assert "unknown key 'cuonter' at env.rng" in str(caught.value)


UNKNOWN = st.sampled_from(["extra", "cuonter", "T", "v ", ""])
VALUES = st.one_of(
    st.integers(-5, 5).map(EnvValue.of_int),
    st.floats(-1.0, 1.0).map(EnvValue.of_real),
    st.booleans().map(EnvValue.of_bool),
    st.lists(st.integers(0, 2**64 - 1), max_size=3).map(EnvValue.of_dseq),
)
ENVS = st.builds(
    lambda seed, counter, entries: Environment(entries, RngState(seed, counter)).to_json(),
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**63),  # a counter at the stream's end has no draw left
    st.dictionaries(st.sampled_from([EnvKey("a", "x"), EnvKey("tabu", "list")]), VALUES),
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(env=ENVS, data=st.data())
def test_one_unknown_key_in_any_object_of_a_wire_env_is_refused_before_any_component(env, data):
    calls = []
    registry = recording_registry(calls)
    assert "result" in perturb_with(registry, env)
    calls.clear()
    obj = data.draw(st.sampled_from([env, env["rng"], *env["entries"].values()]))
    key = data.draw(UNKNOWN.filter(lambda k: k not in obj))
    obj[key] = data.draw(st.one_of(st.none(), st.integers(), st.text(max_size=3)))
    response = perturb_with(registry, env)
    assert response["error"]["code"] == ERR_INVALID_PARAMS
    assert f"unknown key {key!r} at env" in response["error"]["message"]
    assert calls == []


LISTED = {
    "problems": [{"kind": "onemax", "n": 8}],
    "configs": [{
        "framework": "local_search",
        "slots": {
            "perturb": {"component": "bitflip", "params": {"k": 1}},
            "accept": {"component": "improving", "params": {}},
            "terminate": {"component": "max_iterations", "params": {"max": 5}},
        },
    }],
    "seeds": [1],
}


@pytest.mark.parametrize(
    "mixed, named",
    [
        ({"framework": "ga", "grids": {"bitflip": {"k": [1, 2]}}}, "framework, grids"),
        ({"initializers": []}, "initializers"),
        ({"framework_params": {"pop_size": 4}}, "framework_params"),
    ],
)
def test_an_experiment_with_configs_and_enumeration_keys_exits_2_naming_them(
    tmp_path, capsys, mixed, named
):
    out = tmp_path / "out"
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps({**LISTED, **mixed, "out": str(out)}))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"error: an experiment with configs cannot have {named}\n"
    assert not out.exists()


def write_results(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["problem", "config_id", "seed", "best_value", "evaluations", "wall_ms"])
        writer.writerows(rows)
    return str(path)


def test_compare_exits_2_on_a_repeated_trial_naming_its_rows(tmp_path, capsys):
    rows = [["p", cid, seed, float(seed), 10, 1] for cid in "ab" for seed in (0, 1, 2, 3, 4, 99)]
    rows.append(["p", "a", 0, 0.0, 10, 1])  # a second copy of row 1
    assert main(["compare", write_results(tmp_path / "results.csv", rows), "--problem", "p"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "rows 1 and 13 repeat config a seed 0" in err


def test_compare_counts_one_seed_of_each_config_and_problem_once(tmp_path, capsys):
    rows = [[p, cid, seed, float(seed), 10, 1] for p in "pq" for cid in "ab" for seed in range(5)]
    assert main(["compare", write_results(tmp_path / "results.csv", rows), "--problem", "p"]) == 0
    assert [line.split()[1] for line in capsys.readouterr().out.splitlines()[2:4]] == ["5", "5"]


def run_exits_2(tmp_path, capsys, experiment, message):
    out = tmp_path / "out"
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps({**experiment, "out": str(out)}))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


ENUMERATED = {"problems": [{"kind": "onemax", "n": 8}], "framework": "local_search", "seeds": [1]}


def write_registry(tmp_path, *impls):
    path = tmp_path / "registry.json"
    path.write_text(json.dumps({"components": [{"impl": impl} for impl in impls]}))
    return str(path)


@pytest.mark.parametrize(
    "values, repeat",
    [([1, 1], "[1]=1 repeats the value 1 of grids.bitflip.k[0]"),
     ([1, 1.0, 2], "[1]=1.0 repeats the value 1 of grids.bitflip.k[0]")],
)
def test_a_grid_that_lists_a_value_twice_exits_2_naming_it(tmp_path, capsys, values, repeat):
    grids = {"bitflip": {"k": values}}
    run_exits_2(tmp_path, capsys, {**ENUMERATED, "grids": grids}, f"grids.bitflip.k{repeat}")
    path = tmp_path / "grids.json"
    path.write_text(json.dumps(grids))
    registry = write_registry(tmp_path, "bitflip", "improving", "max_iterations")
    argv = ["enumerate", registry, "--framework", "local_search", "--grids", str(path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: grids.bitflip.k{repeat}\n"


def with_k(config, k):
    config = json.loads(json.dumps(config))
    config["slots"]["perturb"]["params"]["k"] = k
    return config


CONFIG = LISTED["configs"][0]
TEMPERATURE = {"key": "sa.temperature", "value": {"t": "real", "v": 1.0}}
TABU = {"key": "tabu.list", "value": {"t": "dseq", "v": []}}


@pytest.mark.parametrize(
    "configs, message",
    [
        # k 1.0 equals 1, as in a grid
        ([CONFIG, with_k(CONFIG, 2), with_k(CONFIG, 1.0)], "configs[2] repeats configs[0]"),
        # initializers hold distinct keys, so their order does not matter
        ([{**CONFIG, "initializers": [TEMPERATURE, TABU]},
          {**CONFIG, "initializers": [TABU, TEMPERATURE]}], "configs[1] repeats configs[0]"),
    ],
)
def test_a_listed_config_equal_to_an_earlier_one_exits_2_naming_both(
    tmp_path, capsys, configs, message
):
    run_exits_2(tmp_path, capsys, {**LISTED, "configs": configs}, message)


def test_a_grid_for_a_component_no_slot_takes_exits_2(tmp_path, capsys):
    # a GA has no accept slot, so a metropolis grid would be dropped
    experiment = {**ENUMERATED, "framework": "ga", "grids": {"metropolis": {"cooling": [0.9]}}}
    run_exits_2(
        tmp_path, capsys, experiment,
        "grids.metropolis: no slot of framework ga takes this component",
    )


def test_an_initializer_key_given_twice_exits_2_naming_both(tmp_path, capsys):
    second = {"key": "sa.temperature", "value": {"t": "real", "v": 5.0}}
    run_exits_2(
        tmp_path, capsys, {**ENUMERATED, "initializers": [TEMPERATURE, second]},
        "initializers[1] repeats the key sa.temperature of initializers[0]",
    )
    experiment = {**LISTED, "configs": [{**CONFIG, "initializers": [TEMPERATURE, second]}]}
    run_exits_2(
        tmp_path, capsys, experiment,
        "configs[0].initializers[1] repeats the key sa.temperature of configs[0].initializers[0]",
    )


def test_a_run_with_no_configuration_exits_2(tmp_path, capsys):
    message = "the experiment yields no configuration to run"
    run_exits_2(tmp_path, capsys, {**LISTED, "configs": []}, message)
    # tabu reads tabu.list, which nothing provides without an initializer
    registry = write_registry(tmp_path, "bitflip", "tabu", "max_iterations")
    run_exits_2(tmp_path, capsys, {**ENUMERATED, "registry": registry}, message)
    assert main(["enumerate", registry, "--framework", "local_search"]) == 0
    assert json.loads(capsys.readouterr().out) == {"configs": [], "count": 0}


GA_CONFIG = {
    "framework": "ga",
    "slots": {
        "mutate": {"component": "bitflip", "params": {"k": 1}},
        "terminate": {"component": "max_iterations", "params": {"max": 5}},
    },
}


@pytest.mark.parametrize(
    "configs",
    [
        # bitflip's k defaults to 1
        [with_k(CONFIG, 1), {**CONFIG, "slots": {**CONFIG["slots"], "perturb": {
            "component": "bitflip", "params": {}}}}],
        # a GA's pop_size defaults to 20 and its tournament_size to 2
        [GA_CONFIG, {**GA_CONFIG, "framework_params": {"pop_size": 20}},
         {**GA_CONFIG, "framework_params": {"tournament_size": 2.0}}],
    ],
)
def test_a_listed_config_that_binds_a_default_repeats_one_that_leaves_it(
    tmp_path, capsys, configs
):
    run_exits_2(tmp_path, capsys, {**LISTED, "configs": configs}, "configs[1] repeats configs[0]")


def test_a_default_from_the_registry_file_counts_as_bound(tmp_path, capsys):
    registry = tmp_path / "registry.json"
    registry.write_text(json.dumps({"components": [
        {"name": "flip2", "impl": "bitflip", "defaults": {"k": 2}},
        {"impl": "improving"}, {"impl": "max_iterations"},
    ]}))
    flip = lambda params: {**CONFIG, "slots": {**CONFIG["slots"], "perturb": {
        "component": "flip2", "params": params}}}
    experiment = {**LISTED, "registry": str(registry), "configs": [flip({"k": 1}), flip({})]}
    path = tmp_path / "distinct.json"
    path.write_text(json.dumps({**experiment, "out": str(tmp_path / "distinct")}))
    assert main(["run", str(path)]) == 0
    run_exits_2(
        tmp_path, capsys, {**experiment, "configs": [flip({}), flip({"k": 1}), flip({"k": 2})]},
        "configs[2] repeats configs[0]",
    )


@pytest.mark.parametrize("value, got", [([], "array"), (0, "number"), (False, "boolean"),
                                         ("", "string"), (None, "null")])
def test_a_budget_that_is_present_but_no_object_exits_2(tmp_path, capsys, value, got):
    # only an absent budget runs each trial uncapped
    run_exits_2(
        tmp_path, capsys, {**LISTED, "budget": value}, f"budget must be an object, got {got}"
    )


@pytest.mark.parametrize("value, got", [([], "array"), (0, "number"), (False, "boolean"),
                                         (None, "null")])
def test_a_registry_that_is_present_but_no_string_exits_2(tmp_path, capsys, value, got):
    # only an absent registry runs the built-in palette
    run_exits_2(
        tmp_path, capsys, {**LISTED, "registry": value}, f"registry must be a string, got {got}"
    )


def test_an_empty_registry_name_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps({**LISTED, "registry": "", "out": str(out)}))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory")
    assert not out.exists()


def test_an_empty_file_name_on_the_command_line_exits_2(tmp_path, capsys, monkeypatch):
    def serve(*args, **kwargs):
        raise AssertionError("served the built-in palette")

    monkeypatch.setattr(rpc, "serve", serve)
    assert main(["serve", "--port", "0", "--registry", ""]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    registry = write_registry(tmp_path, "bitflip", "improving", "max_iterations")
    for flag in ("--grids", "--initializers"):
        assert main(["enumerate", registry, "--framework", "local_search", flag, ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


def without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


def with_slot(config, slot, entry):
    return {**config, "slots": {**config["slots"], slot: entry}}


@pytest.mark.parametrize(
    "experiment, message",
    [
        (without(ENUMERATED, "problems"), "missing key 'problems' at experiment"),
        (without(ENUMERATED, "seeds"), "missing key 'seeds' at experiment"),
        (without(ENUMERATED, "framework"), "missing key 'framework' at experiment"),
        ({**ENUMERATED, "problems": [{"kind": "onemax"}]}, "missing key 'n' at problems[0]"),
        ({**ENUMERATED, "problems": [{"kind": "trap", "n": 8}]}, "missing key 'b' at problems[0]"),
        ({**LISTED, "configs": [without(CONFIG, "framework")]},
         "missing key 'framework' at configs[0]"),
        ({**LISTED, "configs": [CONFIG, without(CONFIG, "slots")]},
         "missing key 'slots' at configs[1]"),
        ({**LISTED, "configs": [with_slot(CONFIG, "accept", {"params": {}})]},
         "missing key 'component' at configs[0].slots.accept"),
        ({**ENUMERATED, "initializers": [without(TEMPERATURE, "key")]},
         "missing key 'key' at initializers[0]"),
        ({**ENUMERATED, "initializers": [TABU, without(TEMPERATURE, "value")]},
         "missing key 'value' at initializers[1]"),
        ({**ENUMERATED, "initializers": [{**TEMPERATURE, "value": {"v": 1.0}}]},
         "missing key 't' at initializers[0].value"),
        ({**LISTED, "configs": [{**CONFIG, "initializers": [{**TABU, "value": {"t": "dseq"}}]}]},
         "missing key 'v' at configs[0].initializers[0].value"),
    ],
)
def test_a_missing_key_is_named_with_where_it_is(tmp_path, capsys, experiment, message):
    run_exits_2(tmp_path, capsys, experiment, message)


def test_a_missing_out_is_named(tmp_path, capsys):
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(ENUMERATED))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == "error: missing key 'out' at experiment\n"


@pytest.mark.parametrize(
    "registry, message",
    [
        ({}, "missing key 'components' at registry"),
        ({"components": [{"impl": "bitflip"}, {"name": "flip"}]},
         "missing key 'impl' at components[1]"),
    ],
)
def test_a_missing_key_of_a_registry_file_is_named(tmp_path, capsys, registry, message):
    path = tmp_path / "registry.json"
    path.write_text(json.dumps(registry))
    run_exits_2(tmp_path, capsys, {**ENUMERATED, "registry": str(path)}, message)
    assert main(["enumerate", str(path), "--framework", "local_search"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
