"""One node of a valid input, changed: every boundary names it.

A valid experiment, registry file, model file or RPC request gets one
change at one node: a required key dropped, an unknown key added, or the
node replaced by a value of another JSON type. The boundary must refuse
it (exit 2, or a -32602 error) with a message that names the
node's path, or for a key the path of its object, and that holds no
Python text. Nodes that a value check reads (a Param, a payload, a kind or
type that picks the shape) are not replaced, and keys whose absence is
valid are not dropped: other tests pin their messages.
"""

import copy
import json
import shutil
from fnmatch import fnmatchcase

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from metafold.cli import main
from metafold.env import env_new
from metafold.palette import default_registry
from metafold.rpc import ERR_INVALID_PARAMS, handle_rpc

SERVED = default_registry()

CNF = "p cnf 3 2\n1 -2 0\n2 3 0\n"
REGISTRY = {
    "components": [
        {"name": "bitflip", "impl": "bitflip", "defaults": {"k": 1}},
        {"impl": "improving"},
        {"name": "max_iterations", "impl": "max_iterations", "defaults": {"max": 100}},
    ]
}


def experiments(cnf, registry, out):
    """A valid experiment that lists its configs and one that enumerates them."""
    problems = [{"kind": "onemax", "n": 8}, {"kind": "dimacs", "path": cnf}]
    listed = {
        "problems": problems,
        "registry": registry,
        "configs": [{
            "framework": "local_search",
            "slots": {
                "perturb": {"component": "bitflip", "params": {"k": 1}},
                "accept": {"component": "improving"},
                "terminate": {"component": "max_iterations", "params": {"max": 5}},
            },
            "initializers": [{"key": "sa.temperature", "value": {"t": "real", "v": 2.0}}],
            "framework_params": {},
        }],
        "seeds": [1, 2],
        "budget": {"iterations": 20},
        "trace_stride": 2,
        "out": out,
    }
    enumerated = {
        "problems": problems,
        "registry": registry,
        "framework": "local_search",
        "grids": {"bitflip": {"k": [1, 2]}},
        "initializers": [{"key": "tabu.list", "value": {"t": "dseq", "v": ["1"]}}],
        "framework_params": {},
        "seeds": [3],
        "budget": {"evaluations": 50},
        "out": out,
    }
    return listed, enumerated


MODEL = {
    "variables": [{"name": f"x{i}", "lo": 0, "hi": 2} for i in range(3)],
    "constraints": [
        {"type": "all_different", "vars": ["x0", "x1", "x2"]},
        {"type": "table", "vars": ["x0", "x1"], "tuples": [[0, 1], [1, 2]]},
    ],
    "objective": {"type": "circuit_sum", "vars": ["x0", "x1", "x2"], "weights": [[0, 1, 2], [1, 0, 3], [2, 3, 0]]},
}
LINEAR_MODEL = {
    "variables": [{"name": "a", "lo": -1, "hi": 1}],
    "objective": {"type": "linear_sum", "vars": ["a"], "coeffs": [2.5]},
}

SOLUTION = {"t": "bits", "v": "0110"}
ENV = env_new(1).to_json()
ENV["entries"] = {"framework.iteration": {"t": "int", "v": 3}, "tabu.list": {"t": "dseq", "v": ["1"]}}
PARAMS = [
    {"component": "bitflip", "params": {"k": 1}, "env": ENV, "solution": SOLUTION},
    {"component": "tabu", "params": {"tenure": 3}, "env": ENV, "solutions": [SOLUTION, dict(SOLUTION)]},
]
METHODS = ["perturb", "accept"]

# Per boundary, as glob patterns over its own path names: the nodes that a
# value check reads, with all under them ("values"); the objects whose keys
# are free ("maps"); the keys each object may lack ("optional"); and the
# nodes that may be null ("nullable").
EXPERIMENT_RULES = {
    "values": ["problems[[]*].kind", "*initializers[[]*].value.v"],
    "maps": ["*.slots", "*.slots.*.params", "*framework_params", "grids", "grids.*"],
    "optional": {
        "experiment": {"registry", "budget", "trace_stride", "grids", "initializers",
                       "framework_params", "configs"},
        "budget": {"iterations", "evaluations"},
        "configs[[]*]": {"initializers", "framework_params"},
        "configs[[]*].slots.*": {"params"},
    },
}
REGISTRY_RULES = {"maps": ["components[[]*].defaults"], "optional": {"components[[]*]": {"name", "defaults"}}}
MODEL_RULES = {
    "values": ["$.constraints[[]*].type", "$.objective.type"],
    "optional": {"$": {"constraints", "objective"}},
    "nullable": ["$.objective"],
}
RPC_RULES = {
    "values": ["params.solution.v", "params.solutions[[]*].v", "env.rng.*", "env entry.v"],
    "maps": ["params.params", "env.entries"],
    "optional": {"params": {"params"}},
}


def name_experiment(path):
    """The name the experiment and registry files give a node: from its top."""
    name = ""
    for step in path:
        name += f"[{step}]" if isinstance(step, int) else f".{step}" if name else step
    return name


def name_model(path):
    return "$" + "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in path)


def name_rpc(path):
    """Params are named from `params`, the env from `env`, and each entry of
    the env as `env entry`."""
    if path[:1] == ["env"]:
        root, rest = "env", path[1:]
        if rest[:1] == ["entries"] and len(rest) > 1:
            root, rest = "env entry", rest[2:]
    else:
        root, rest = "params", path
    return root + "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in rest)


def nodes(doc, path=()):
    """Each node of `doc` with its path, as a list of keys and indices."""
    yield list(path), doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from nodes(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from nodes(value, path + (i,))


OTHER_TYPES = [None, True, 7, "x", [1], {"zz": 1}]
JSON_TYPE = {type(None): "null", bool: "boolean", int: "number", float: "number",
             str: "string", list: "array", dict: "object"}


def mutations(doc, name, rules, root_name):
    """(path, change, key or new value, the name the message must hold, the
    key's repr it must hold or None) for each change the boundary must refuse."""
    def matches(where, kind):
        return any(fnmatchcase(where, p) for p in rules.get(kind, ()))

    out = []
    for path, node in nodes(doc):
        where = name(path) or root_name
        if any(fnmatchcase(where, p + tail) for p in rules.get("values", ()) for tail in ("", ".*", "[[]*")):
            continue  # a value check reads the node, or one above it
        if isinstance(node, dict) and not matches(where, "maps"):
            out.append((path, "add", "zz_unknown", where, "'zz_unknown'"))
            optional = rules.get("optional", {})
            may_lack = set().union(*(keys for p, keys in optional.items() if fnmatchcase(where, p)))
            out.extend((path, "drop", key, where, repr(key)) for key in node if key not in may_lack)
        if isinstance(node, (dict, list, str)):
            for other in OTHER_TYPES:
                if JSON_TYPE[type(other)] != JSON_TYPE[type(node)]:
                    if other is not None or not matches(where, "nullable"):
                        out.append((path, "retype", other, where, None))
    return out


def mutated(doc, path, change, arg):
    doc = copy.deepcopy(doc)
    if change == "retype" and not path:
        return arg
    parent = doc
    for step in path[:-1] if change == "retype" else path:
        parent = parent[step]
    if change == "add":
        parent[arg] = 0
    elif change == "drop":
        del parent[arg]
    else:
        parent[path[-1]] = arg
    return doc


PYTHON_TEXT = ("Traceback", "KeyError", "object has no attribute", "object is not", "not subscriptable",
               "indices must be", "NoneType", "<class", "unhashable", "' object")


def assert_names(message, where, key):
    assert where in message, (where, message)
    if key is not None:
        assert key in message, (key, message)
    for text in PYTHON_TEXT:
        assert text not in message, message


@pytest.fixture
def files(tmp_path):
    cnf = tmp_path / "three.cnf"
    cnf.write_text(CNF)
    registry = tmp_path / "registry.json"
    registry.write_text(json.dumps(REGISTRY))
    return str(cnf), str(registry), tmp_path


def cases():
    """Every mutation of every boundary; an experiment's file names do not
    change where its nodes are."""
    out = []
    for i, doc in enumerate(experiments("three.cnf", "registry.json", "out")):
        out += [("experiment", i, *m) for m in mutations(doc, name_experiment, EXPERIMENT_RULES, "experiment")]
    out += [("registry", 0, *m) for m in mutations(REGISTRY, name_experiment, REGISTRY_RULES, "registry")]
    for i, doc in enumerate((MODEL, LINEAR_MODEL)):
        out += [("model", i, *m) for m in mutations(doc, name_model, MODEL_RULES, "$")]
    for i, doc in enumerate(PARAMS):
        out += [("rpc", i, *m) for m in mutations(doc, name_rpc, RPC_RULES, "params")]
    return out


CASES = cases()


def test_the_unchanged_inputs_are_valid(files, capsys):
    cnf, registry, tmp_path = files
    for doc in experiments(cnf, registry, str(tmp_path / "out")):
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)]) == 0
    assert main(["enumerate", registry, "--framework", "local_search"]) == 0
    for i, doc in enumerate((MODEL, LINEAR_MODEL)):
        path = tmp_path / f"model{i}.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path), "--budget", "10"]) == 0
    for method, params in zip(METHODS, PARAMS):
        body = {"jsonrpc": "2.0", "id": 1, "method": method, "params": params}
        assert "result" in handle_rpc(SERVED, json.dumps(body).encode())
    capsys.readouterr()


def test_the_mutations_reach_every_boundary_and_change():
    kinds = {(boundary, change) for boundary, _, _, change, *_ in CASES}
    assert kinds == {(b, c) for b in ("experiment", "registry", "model", "rpc") for c in ("add", "drop", "retype")}
    named = {where for *_, where, _ in CASES}
    for where in ("experiment", "problems[0]", "problems[1].path", "configs[0].slots.perturb", "configs[0].initializers[0].value",
                  "budget", "grids.bitflip.k", "registry", "components[1].impl", "$", "$.variables[2].name",
                  "$.constraints[1].tuples", "$.objective.vars[0]", "params", "params.component", "params.params",
                  "params.solutions[1]", "env", "env.rng", "env.entries", "env entry", "env entry.t"):
        assert where in named, where


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(CASES))
def test_one_changed_node_is_refused_naming_its_path(files, capsys, case):
    boundary, index, path, change, arg, where, key = case
    cnf, registry, tmp_path = files
    out = tmp_path / "never"
    shutil.rmtree(out, ignore_errors=True)  # so that one failure does not fail every later example
    if boundary == "rpc":
        params = mutated(PARAMS[index], path, change, arg)
        body = {"jsonrpc": "2.0", "id": 1, "method": METHODS[index], "params": params}
        response = handle_rpc(SERVED, json.dumps(body).encode())
        assert response["error"]["code"] == ERR_INVALID_PARAMS
        assert_names(response["error"]["message"], where, key)
        return
    if boundary == "experiment":
        doc = experiments(cnf, registry, str(out))[index]
        argv = ["run"]
    elif boundary == "registry":
        doc, argv = REGISTRY, ["enumerate"]
    else:
        doc, argv = (MODEL, LINEAR_MODEL)[index], ["solve"]
    target = tmp_path / "input.json"
    target.write_text(json.dumps(mutated(doc, path, change, arg)))
    argv = argv + [str(target)] + {"run": [], "enumerate": ["--framework", "local_search"],
                                   "solve": ["--budget", "10"]}[argv[0]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert_names(captured.err, where, key)
    assert not out.exists()
