"""A component's optional env key is read by one rule: absent, the
component goes without it; present with its tag, it is used; present with
another tag, the step raises ConfigurationError in `_require`'s words.
Gaussian's `problem.bounds` must also be two numbers lo <= hi, else the
step raises ComponentContractError naming the key. Each refusal reaches an
RPC caller as -32002 with the same message, and a `metafold run` trial as
a FAILED row."""

import csv
import json
import math

import pytest

from metafold import cli
from metafold.components import (
    K_BOUNDS,
    K_INCOMING_VALUE,
    K_INCUMBENT_VALUE,
    K_TABU_LIST,
    _box_muller_pairs,
    accept_tabu,
    perturb_gaussian,
)
from metafold.env import ComponentContractError, ConfigurationError, EnvValue, env_new
from metafold.palette import default_registry
from metafold.rpc import ERR_COMPONENT_FAILURE, handle_rpc
from metafold.solutions import BitVector, RealVector, solution_digest, solution_to_json

START = RealVector([0.0, 0.0, 0.0])
A = BitVector.from_string("0000")
B = BitVector.from_string("1111")
# a value of each tag but the one a key must hold
OTHER_TAGS = {
    "int": EnvValue.of_int(1), "real": EnvValue.of_real(1.0), "bool": EnvValue.of_bool(True),
    "text": EnvValue.of_text("x"), "rseq": EnvValue.of_rseq([-1.0, 1.0]),
    "iseq": EnvValue.of_iseq([-1, 1]), "dseq": EnvValue.of_dseq([1]), "sol": EnvValue.of_sol("x"),
}
BAD_BOUNDS = [[1.0], [], [-1.0, 0.0, 1.0], [2.0, 1.0], [math.nan, 1.0], [0.0, math.nan]]


def scored(env):
    return env.put(K_INCUMBENT_VALUE, EnvValue.of_real(1.0)).put(K_INCOMING_VALUE, EnvValue.of_real(2.0))


def bounds_message(bounds):
    return f"gaussian: problem.bounds must be two numbers lo <= hi, got {bounds!r}"


def call(method, component, payload, env):
    """The error that `handle_rpc` answers a `method` call with."""
    name = "solutions" if method == "accept" else "solution"
    params = {"component": component, "params": {}, name: payload, "env": env.to_json()}
    body = json.dumps({"jsonrpc": "2.0", "id": 1, "method": method, "params": params})
    return handle_rpc(default_registry(), body.encode())["error"]


class TestGaussianBounds:
    def test_absent_bounds_leave_the_move_unclamped(self):
        out, env = perturb_gaussian(100.0)(START, env_new(1))
        zs, drawn = _box_muller_pairs(env_new(1), 3)
        assert out.coords == tuple(100.0 * z for z in zs)
        assert env == drawn
        assert max(map(abs, out.coords)) > 1.0

    def test_equal_bounds_clamp_every_coordinate_to_them(self):
        env = env_new(1).put(K_BOUNDS, EnvValue.of_rseq([0.5, 0.5]))
        out, _ = perturb_gaussian(100.0)(START, env)
        assert out.coords == (0.5, 0.5, 0.5)

    @pytest.mark.parametrize("tag", [t for t in OTHER_TAGS if t != "rseq"])
    def test_bounds_of_another_tag_are_refused_as_a_missing_key(self, tag):
        env = env_new(1).put(K_BOUNDS, OTHER_TAGS[tag])
        with pytest.raises(ConfigurationError) as info:
            perturb_gaussian(0.1)(START, env)
        assert str(info.value) == "gaussian: missing rseq env key problem.bounds"
        error = call("perturb", "gaussian", solution_to_json(START), env)
        assert error == {"code": ERR_COMPONENT_FAILURE, "message": str(info.value)}

    @pytest.mark.parametrize("bounds", BAD_BOUNDS, ids=repr)
    def test_bounds_that_are_not_lo_and_hi_are_refused(self, bounds):
        env = env_new(1).put(K_BOUNDS, EnvValue.of_rseq(bounds))
        with pytest.raises(ComponentContractError) as info:
            perturb_gaussian(0.1)(START, env)
        assert str(info.value) == bounds_message(bounds)
        if all(map(math.isfinite, bounds)):  # JSON carries no NaN to the server
            error = call("perturb", "gaussian", solution_to_json(START), env)
            assert error == {"code": ERR_COMPONENT_FAILURE, "message": bounds_message(bounds)}

    def test_a_run_initializer_of_one_bound_fails_its_trial(self, tmp_path, capsys):
        spec = {"framework": "local_search", "slots": {
            "perturb": {"component": "gaussian", "params": {"sigma": 0.1}},
            "accept": {"component": "improving", "params": {}},
            "terminate": {"component": "max_iterations", "params": {"max": 5}},
        }, "initializers": [{"key": "problem.bounds", "value": {"t": "rseq", "v": [1.0]}}]}
        exp = tmp_path / "e.json"
        exp.write_text(json.dumps({
            "problems": [{"kind": "sphere", "d": 2, "lo": -1.0, "hi": 1.0}],
            "configs": [spec], "seeds": [1], "out": str(tmp_path / "out"),
        }))
        assert cli.main(["run", str(exp)]) == 1
        assert capsys.readouterr().err.endswith(f": {bounds_message([1.0])}\n")
        with open(tmp_path / "out" / "results.csv") as fh:
            assert [row["best_value"] for row in csv.DictReader(fh)] == ["FAILED"]


class TestTabuList:
    def test_an_absent_list_starts_empty(self):
        out, env = accept_tabu(3)((A, B), scored(env_new(0)))
        assert out == B
        assert env.get(K_TABU_LIST) == EnvValue.of_dseq([solution_digest(B)])

    @pytest.mark.parametrize("tag", [t for t in OTHER_TAGS if t != "dseq"])
    def test_a_list_of_another_tag_is_refused_as_a_missing_key(self, tag):
        env = scored(env_new(0)).put(K_TABU_LIST, OTHER_TAGS[tag])
        with pytest.raises(ConfigurationError) as info:
            accept_tabu(3)((A, B), env)
        assert str(info.value) == "tabu: missing dseq env key tabu.list"
        error = call("accept", "tabu", [solution_to_json(A), solution_to_json(B)], env)
        assert error == {"code": ERR_COMPONENT_FAILURE, "message": str(info.value)}
