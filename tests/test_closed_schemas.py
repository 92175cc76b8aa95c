"""Experiment and registry files refuse a key they do not know.

Every object of an experiment file (the top level, each problem entry by
kind, each listed config, slot and initializer entry, and the objects
under them) and of a registry file (the top level and each entry) names
only known keys; any other exits 2 before any trial, with a message that
names the key and where it is. The top level's `workers`, from older
files, is the one key that is still ignored.
"""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from metafold.cli import main

REGISTRY = {
    "components": [
        {"name": "bitflip", "impl": "bitflip", "defaults": {"k": 1}},
        {"name": "improving", "impl": "improving", "defaults": {}},
        {"name": "max_iterations", "impl": "max_iterations", "defaults": {"max": 100}},
    ]
}

CNF = "p cnf 3 2\n1 -2 0\n2 3 0\n"


def problems(cnf_path):
    return [
        {"kind": "onemax", "n": 8},
        {"kind": "trap", "n": 8, "b": 4},
        {"kind": "dimacs", "path": cnf_path},
    ]


def listed(cnf_path, registry_path, out):
    """An experiment that lists its configs, with initializers and
    framework_params."""
    return {
        "problems": problems(cnf_path),
        "registry": registry_path,
        "configs": [
            {
                "framework": "local_search",
                "slots": {
                    "perturb": {"component": "bitflip", "params": {"k": 1}},
                    "accept": {"component": "improving", "params": {}},
                    "terminate": {"component": "max_iterations", "params": {"max": 5}},
                },
                "initializers": [{"key": "sa.temperature", "value": {"t": "real", "v": 2.0}}],
                "framework_params": {},
            },
            {
                "framework": "ga",
                "slots": {
                    "mutate": {"component": "bitflip", "params": {"k": 2}},
                    "terminate": {"component": "max_iterations", "params": {"max": 2}},
                },
                "framework_params": {"pop_size": 4},
            },
        ],
        "seeds": [1, 2],
        "budget": {"iterations": 20, "evaluations": 50},
        "trace_stride": 2,
        "out": out,
    }


def enumerated(cnf_path, registry_path, out):
    """An experiment whose configs are enumerated from grids."""
    return {
        "problems": problems(cnf_path),
        "registry": registry_path,
        "framework": "local_search",
        "grids": {"bitflip": {"k": [1, 2]}, "max_iterations": {"max": [5]}},
        "initializers": [{"key": "tabu.list", "value": {"t": "dseq", "v": []}}],
        "framework_params": {},
        "seeds": [3],
        "budget": {"iterations": 20},
        "out": out,
    }


BASES = {"listed": listed, "enumerated": enumerated}


@pytest.fixture
def files(tmp_path):
    cnf = tmp_path / "three.cnf"
    cnf.write_text(CNF)
    registry = tmp_path / "registry.json"
    registry.write_text(json.dumps(REGISTRY))
    return str(cnf), str(registry), tmp_path


def objects(node, path="experiment"):
    """Each JSON object in `node`, with its path, in document order."""
    if isinstance(node, dict):
        yield path, node
        for key, value in node.items():
            yield from objects(value, f"{path}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from objects(value, f"{path}[{i}]")


def write(tmp_path, doc, name="experiment.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(tmp_path, doc):
    return main(["run", write(tmp_path, doc)])


@pytest.mark.parametrize("base", sorted(BASES))
def test_the_valid_files_run(files, base):
    cnf, registry, tmp_path = files
    out = tmp_path / "out"
    assert run(tmp_path, BASES[base](cnf, registry, str(out))) == 0
    assert (out / "results.csv").exists()


@pytest.mark.parametrize("base", sorted(BASES))
def test_workers_is_still_ignored(files, base):
    cnf, registry, tmp_path = files
    plain, legacy = tmp_path / "plain", tmp_path / "legacy"
    assert run(tmp_path, BASES[base](cnf, registry, str(plain))) == 0
    assert run(tmp_path, {**BASES[base](cnf, registry, str(legacy)), "workers": 4}) == 0
    strip = lambda text: [row.rsplit(",", 1)[0] for row in text.splitlines()]  # no wall_ms
    assert strip((plain / "results.csv").read_text()) == strip((legacy / "results.csv").read_text())


UNKNOWN = st.sampled_from(["extra", "budegt", "parms", "size", "defualts", "Kind", "kind ", ""])
VALUE = st.one_of(st.none(), st.booleans(), st.integers(-5, 5), st.text(max_size=3), st.just({}))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(base=st.sampled_from(sorted(BASES)), data=st.data())
def test_one_unknown_key_in_any_object_exits_2_before_any_trial(files, capsys, base, data):
    cnf, registry, tmp_path = files
    out = tmp_path / "never"
    doc = BASES[base](cnf, registry, str(out))
    _, obj = data.draw(st.sampled_from(list(objects(doc))))
    key = data.draw(UNKNOWN.filter(lambda k: k not in obj))
    obj[key] = data.draw(VALUE)
    assert run(tmp_path, doc) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_one_unknown_key_in_a_registry_file_exits_2(files, capsys, data):
    cnf, registry, tmp_path = files
    doc = copy.deepcopy(REGISTRY)
    _, obj = data.draw(st.sampled_from(list(objects(doc, "registry"))))
    key = data.draw(UNKNOWN.filter(lambda k: k not in obj))
    obj[key] = data.draw(VALUE)
    bad = write(tmp_path, doc, "bad_registry.json")
    out = tmp_path / "never"
    assert run(tmp_path, listed(cnf, bad, str(out))) == 2
    assert not out.exists()
    assert main(["enumerate", bad, "--framework", "local_search"]) == 2
    capsys.readouterr()


def exits_2_naming(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_misspelt_top_level_key_is_named(files, capsys):
    cnf, registry, tmp_path = files
    doc = listed(cnf, registry, str(tmp_path / "out"))
    doc["budegt"] = doc.pop("budget")
    exits_2_naming(capsys, ["run", write(tmp_path, doc)], "unknown key 'budegt' at experiment")


def test_a_misspelt_slot_key_is_named(files, capsys):
    cnf, registry, tmp_path = files
    doc = listed(cnf, registry, str(tmp_path / "out"))
    slot = doc["configs"][1]["slots"]["mutate"]
    slot["parms"] = slot.pop("params")
    exits_2_naming(
        capsys, ["run", write(tmp_path, doc)], "unknown key 'parms' at configs[1].slots.mutate"
    )


def test_a_field_of_another_problem_kind_is_named(files, capsys):
    cnf, registry, tmp_path = files
    doc = listed(cnf, registry, str(tmp_path / "out"))
    doc["problems"][1]["size"] = 99
    exits_2_naming(capsys, ["run", write(tmp_path, doc)], "unknown key 'size' at problems[1]")


def test_an_unknown_initializer_key_is_named(files, capsys):
    cnf, registry, tmp_path = files
    doc = enumerated(cnf, registry, str(tmp_path / "out"))
    doc["initializers"][0]["value"]["tag"] = "dseq"
    exits_2_naming(
        capsys, ["run", write(tmp_path, doc)], "unknown key 'tag' at initializers[0].value"
    )


def test_a_misspelt_registry_key_is_named(files, capsys):
    _, _, tmp_path = files
    doc = copy.deepcopy(REGISTRY)
    doc["components"][0]["defualts"] = doc["components"][0].pop("defaults")
    path = write(tmp_path, doc, "registry.json")
    exits_2_naming(
        capsys, ["enumerate", path, "--framework", "local_search"], "unknown key 'defualts' at components[0]"
    )


def test_an_unknown_key_in_an_initializers_file_is_named(files, capsys):
    _, registry, tmp_path = files
    inits = write(tmp_path, [{"key": "tabu.list", "value": {"t": "dseq", "v": []}, "x": 1}], "inits.json")
    exits_2_naming(
        capsys,
        ["enumerate", registry, "--framework", "local_search", "--initializers", inits],
        "unknown key 'x' at initializers[0]",
    )

