"""Bad outside input is one exception family, and each boundary refuses it
through one path.

Every reader raises a ValueError for bad outside input (a file, an
experiment, a model, a registry, a wire message), its own error classes
included, while the errors of a run (a component's contract, an unmet
environment key, a remote that cannot be reached or answers with an error)
are not ValueErrors. A command refuses bad input with exit 2 and one
stderr line, `error: <message>`, and the RPC tier with a JSON-RPC error.
The cases here are refusals that no other test reaches, each run through
`cli.main` where the command line can reach it.
"""

import json
import sys

import pytest
from test_rpc_client import REGISTRY, StubServer

from metafold import assembly, cli, env, problems, rpc, solutions, whitebox
from metafold.rpc import ERR_BAD_REPLY, ERR_PARSE, RemoteProtocolError, handle_rpc, remote_perturb
from metafold.solutions import BitVector
from metafold.whitebox import match_tsp, parse_model

INPUT_ERRORS = (
    problems.ParseError, whitebox.ModelError, solutions.SolutionFormatError,
    assembly.RegistrationError, assembly.UnknownComponentError, assembly.InvalidConfigurationError,
)
RUN_TIME_ERRORS = (
    env.ConfigurationError, env.ComponentContractError,
    rpc.RemoteUnavailableError, rpc.RemoteProtocolError,
)


def test_bad_input_is_one_exception_family_that_the_cli_catches_as_builtins():
    assert [cls for cls in INPUT_ERRORS if not issubclass(cls, ValueError)] == []
    assert [cls for cls in RUN_TIME_ERRORS if issubclass(cls, ValueError)] == []
    assert [cls for cls in cli.INPUT_ERRORS if cls.__module__.startswith("metafold")] == []


def refused(capsys, argv, message):
    """`metafold <argv>` exits 2 and writes one stderr line, `error: ` and
    then `message`, and no traceback."""
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [f"error: {message}"]


def run_of(tmp_path, problems=None, **fields):
    """An experiment file of `problems` that would otherwise run; a field
    given as None is left out."""
    doc = {
        "problems": [{"kind": "onemax", "n": 8}] if problems is None else problems,
        "framework": "local_search",
        "seeds": [1],
        "budget": {"iterations": 5},
        "out": str(tmp_path / "out"),
        **fields,
    }
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps({key: value for key, value in doc.items() if value is not None}))
    return ["run", str(path)]


def run_of_file(tmp_path, kind, text):
    path = tmp_path / f"instance.{kind}"
    path.write_text(text)
    return run_of(tmp_path, [{"kind": kind, "path": str(path)}])


@pytest.mark.parametrize("text, message", [
    ("p cnf 2 1\np cnf 2 1\n1 0\n", "line 2: duplicate header"),
    ("p cnf two 1\n1 0\n", "line 1: malformed header: 'p cnf two 1'"),
    ("p cnf 2 1.5\n1 0\n", "line 1: malformed header: 'p cnf 2 1.5'"),
    ("p cnf 0 1\n0\n", "line 1: header counts must be positive"),
    ("p cnf 2 -1\n", "line 1: header counts must be positive"),
    ("p cnf 2 1\n1 x 0\n", "line 2: bad literal token: 'x'"),
])
def test_a_bad_dimacs_file_is_refused(tmp_path, capsys, text, message):
    refused(capsys, run_of_file(tmp_path, "dimacs", text), message)


TSP_HEAD = "NAME : t\nTYPE : TSP\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n"


@pytest.mark.parametrize("text, message", [
    ("NODE_COORD_SECTION\n1 0 0\nDIMENSION : 1\n", "line 1: NODE_COORD_SECTION before DIMENSION"),
    (TSP_HEAD + "1 0 0\n2 0 3\n", "line 7: unexpected end of coordinate section"),
    (TSP_HEAD + "1 0 0\n2 0\n3 4 0\n", "line 7: bad coordinate line: '2 0'"),
    (TSP_HEAD + "1 0 0\n2 0 three\n3 4 0\n", "line 7: bad coordinate line: '2 0 three'"),
    (TSP_HEAD.replace("DIMENSION : 3", "DIMENSION : three") + "1 0 0\n",
     "line 3: bad DIMENSION: 'three'"),
    ("NAME : t\nTYPE : TSP\nEDGE_WEIGHT_TYPE : EUC_2D\nEOF\n", "line 1: missing DIMENSION"),
    (TSP_HEAD.replace("EDGE_WEIGHT_TYPE : EUC_2D\n", "") + "1 0 0\n2 0 3\n3 4 0\n",
     "line 1: missing EDGE_WEIGHT_TYPE"),
    (TSP_HEAD + "1 0 0\n2 0 3\n2 4 0\n", "line 1: expected coordinates for cities 1..3, got 2"),
    (TSP_HEAD + "1 0 0\n2 0 3\n4 4 0\n", "line 1: expected coordinates for cities 1..3, got 3"),
])
def test_a_bad_tsplib_file_is_refused(tmp_path, capsys, text, message):
    refused(capsys, run_of_file(tmp_path, "tsplib", text), message)


@pytest.mark.parametrize("entry, message", [
    ({"kind": "onemax", "n": 0}, "n must be >= 1"),
    ({"kind": "checkerboard", "s": 1}, "s must be >= 2"),
    ({"kind": "sphere", "d": 0, "lo": -1, "hi": 1}, "need d >= 1 and lo < hi"),
])
def test_a_problem_below_its_least_size_is_refused(tmp_path, capsys, entry, message):
    refused(capsys, run_of(tmp_path, [entry]), message)


@pytest.mark.parametrize("empty", ["problems", "seeds"])
def test_a_run_of_no_problem_or_no_seed_is_refused(tmp_path, capsys, empty):
    refused(capsys, run_of(tmp_path, **{empty: []}), "problems and seeds must be nonempty")
    assert not (tmp_path / "out").exists()


def test_an_unknown_framework_is_refused(tmp_path, capsys):
    refused(capsys, run_of(tmp_path, framework="tabu_search"), "unknown framework 'tabu_search'")


def test_a_slot_its_framework_does_not_have_is_refused(tmp_path, capsys):
    slots = {
        "perturb": {"component": "bitflip", "params": {"k": 1}},
        "accept": {"component": "improving"},
        "terminate": {"component": "max_iterations", "params": {"max": 5}},
        "mutate": {"component": "bitflip"},
    }
    argv = run_of(tmp_path, framework=None, configs=[{"framework": "local_search", "slots": slots}])
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert err.startswith("error: config 0000-")
    assert err.endswith(": slot 'mutate' is not part of framework local_search\n")


MODEL = {
    "variables": [{"name": "a", "lo": 0, "hi": 2}, {"name": "b", "lo": 0, "hi": 2}],
    "objective": {"type": "linear_sum", "vars": ["a", "b"], "coeffs": [1, 2]},
}


@pytest.mark.parametrize("change, message", [
    ({"variables": [*MODEL["variables"], {"name": "a", "lo": 0, "hi": 1}]},
     "duplicate variable 'a' at $.variables[2]"),
    ({"objective": {"type": "max_sum", "vars": ["a"]}}, "unknown objective type 'max_sum' at $.objective"),
    ({"objective": {"type": "linear_sum", "vars": ["a", "b"], "coeffs": [1]}},
     "coeffs/vars length mismatch at $.objective"),
])
def test_a_bad_model_is_refused(tmp_path, capsys, change, message):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**MODEL, **change}))
    refused(capsys, ["solve", str(path), "--budget", "10"], message)


def tsp_model(n=3, **change):
    names = [f"c{i}" for i in range(n)]
    doc = {
        "variables": [{"name": name, "lo": 0, "hi": n - 1} for name in names],
        "constraints": [{"type": "all_different", "vars": names}],
        "objective": {"type": "circuit_sum", "vars": names,
                      "weights": [[abs(i - j) for j in range(n)] for i in range(n)]},
    }
    return parse_model(json.dumps({**doc, **change}))


def test_a_tsp_model_matches_and_each_near_miss_does_not():
    assert match_tsp(tsp_model()).variables == ("c0", "c1", "c2")
    names = ["c0", "c1", "c2"]
    weights = [[abs(i - j) for j in range(3)] for i in range(3)]
    near_misses = [
        tsp_model(n=1),  # one city
        tsp_model(constraints=[]),  # no all_different
        tsp_model(constraints=[{"type": "all_different", "vars": ["c0", "c1"]}]),  # over two of three
        tsp_model(constraints=[{"type": "all_different", "vars": [*names, "c0"]}]),  # one name twice
        tsp_model(variables=[{"name": n, "lo": 0, "hi": 3} for n in names]),  # a domain past n-1
        tsp_model(objective=None),
        tsp_model(objective={"type": "linear_sum", "vars": names, "coeffs": [1, 1, 1]}),
        tsp_model(objective={"type": "circuit_sum", "vars": [*names, "c0"],  # one name twice
                             "weights": [[*row, 0] for row in weights] + [[0, 0, 0, 0]]}),
    ]
    assert [match_tsp(model) for model in near_misses] == [None] * len(near_misses)


# a JSON integer of more digits than Python converts, and how metafold names it
LONG = "1" * 5000
TOO_LONG = f"integer of 5000 digits exceeds the {sys.get_int_max_str_digits()}-digit limit"


def test_a_request_holding_a_too_long_integer_is_a_parse_error_in_metafold_s_words():
    perturb = {"component": "bitflip", "params": {"k": 0}, "env": {}, "solution": {"t": "bits", "v": "01"}}
    text = json.dumps({"jsonrpc": "2.0", "id": 1, "method": "perturb", "params": perturb})
    for body in (
        f'{{"jsonrpc": "2.0", "id": {LONG}, "method": "describe"}}',
        text.replace('"k": 0', f'"k": {LONG}'),  # a component param
    ):
        response = handle_rpc(REGISTRY, body.encode())
        assert response["error"] == {"code": ERR_PARSE, "message": f"parse error: {TOO_LONG}"}


def test_a_reply_holding_a_too_long_integer_is_unreadable_in_metafold_s_words():
    stub = StubServer()
    try:
        stub.replies = {"perturb": f'{{"jsonrpc": "2.0", "id": {LONG}, "result": {{}}}}'.encode()}
        with pytest.raises(RemoteProtocolError) as caught:
            remote_perturb(stub.endpoint, "bitflip", {"k": 1})(BitVector.from_string("01"), env.env_new(1))
    finally:
        stub.close()
    assert caught.value.code == ERR_BAD_REPLY
    assert str(caught.value) == f"[{ERR_BAD_REPLY}] {stub.endpoint}: unreadable reply: {TOO_LONG}"


def test_a_file_holding_a_too_long_integer_is_refused_in_metafold_s_words(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(MODEL).replace('"hi": 2', f'"hi": {LONG}', 1))
    refused(capsys, ["solve", str(model)], f"not valid JSON: {TOO_LONG}")
    experiment = run_of(tmp_path)
    path = tmp_path / "experiment.json"
    path.write_text(path.read_text().replace('"seeds": [1]', f'"seeds": [{LONG}]'))
    refused(capsys, experiment, TOO_LONG)
    registry = tmp_path / "registry.json"
    registry.write_text(f'{{"components": [{{"impl": "bitflip", "defaults": {{"k": {LONG}}}}}]}}')
    refused(capsys, ["enumerate", str(registry), "--framework", "local_search"], TOO_LONG)
    registry.write_text('{"components": [{"impl": "bitflip"}]}')
    grids = tmp_path / "grids.json"
    grids.write_text(f'{{"bitflip": {{"k": [{LONG}]}}}}')
    refused(capsys, ["enumerate", str(registry), "--framework", "local_search", "--grids", str(grids)],
            TOO_LONG)


@pytest.mark.parametrize("text, message", [
    ("nope", "Expecting value: line 1 column 1 (char 0)"),
    ("[" * 100000 + "]" * 100000, "maximum recursion depth exceeded"),
    (f'{{"t": "bits", "v": {LONG}}}', TOO_LONG),
])
def test_a_solution_text_that_is_no_json_is_a_solution_format_error(text, message):
    with pytest.raises(solutions.SolutionFormatError) as caught:
        solutions.deserialize_solution(text, "bits")
    assert str(caught.value).startswith(message)


def test_an_environment_text_holding_a_too_long_integer_is_refused_in_metafold_s_words():
    with pytest.raises(ValueError) as caught:
        env.Environment.deserialize(f'{{"rng": {{"seed": {LONG}, "counter": 0}}, "entries": {{}}}}')
    assert str(caught.value) == TOO_LONG
