import json
import threading
import urllib.request

import pytest

from metafold.assembly import UnknownComponentError
from metafold.components import (
    accept_improving,
    perturb_bitflip,
    terminate_iterations,
)
from metafold.env import env_new, rng_below
from metafold.frameworks import local_search
from metafold.palette import default_registry, registry_from_json
from metafold.problems import onemax
from metafold.rpc import (
    ERR_INVALID_PARAMS,
    ERR_INVALID_REQUEST,
    ERR_UNKNOWN_COMPONENT,
    RemoteUnavailableError,
    handle_rpc,
    remote_accept,
    remote_perturb,
    serve,
)
from metafold.solutions import BitVector, solution_to_json


@pytest.fixture(scope="module")
def server():
    s = serve(default_registry())
    yield s
    s.close()


def rpc(endpoint, method, params=None, req_id=1):
    body = {"jsonrpc": "2.0", "id": req_id, "method": method}
    if params is not None:
        body["params"] = params
    req = urllib.request.Request(
        endpoint,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req) as resp:
        return json.loads(resp.read())


class TestServer:
    def test_describe_matches_local_registry(self, server):
        response = rpc(server.endpoint, "describe")
        local = default_registry().to_json()
        assert response["result"] == json.loads(json.dumps(local))

    def test_perturb_matches_local(self, server):
        env = env_new(7)
        sol = BitVector.from_string("0000")
        response = rpc(
            server.endpoint,
            "perturb",
            {
                "component": "bitflip",
                "params": {"k": 1},
                "solution": solution_to_json(sol),
                "env": env.to_json(),
            },
        )
        local_out, local_env = perturb_bitflip(1)(sol, env)
        assert response["result"]["solution"] == solution_to_json(local_out)
        assert response["result"]["env"] == local_env.to_json()

    def test_unknown_component_error_code(self, server):
        response = rpc(
            server.endpoint,
            "perturb",
            {
                "component": "warp_drive",
                "params": {},
                "solution": solution_to_json(BitVector.from_string("01")),
                "env": env_new(0).to_json(),
            },
        )
        assert response["error"]["code"] == ERR_UNKNOWN_COMPONENT

    def test_malformed_params_error_code(self, server):
        response = rpc(server.endpoint, "perturb", {"component": "bitflip"})
        assert response["error"]["code"] == ERR_INVALID_PARAMS

    def test_handle_rpc_parse_error(self):
        response = handle_rpc(default_registry(), b"{not json")
        assert response["error"]["code"] == -32700

    @pytest.mark.parametrize("body", [
        b"[1,2]", b'"x"', b"3", b"null",
        # and objects whose id is no JSON-RPC id: a bool, a number past a float's range
        b'{"jsonrpc": "2.0", "id": true, "method": "describe"}',
        b'{"jsonrpc": "2.0", "id": 1e999, "method": "describe"}',
        b'{"jsonrpc": "2.0", "id": -1e999, "method": "describe"}',
    ])
    def test_non_object_body_is_invalid_request(self, server, body):
        req = urllib.request.Request(
            server.endpoint, data=body, headers={"Content-Type": "application/json"}
        )
        with urllib.request.urlopen(req) as resp:
            response = json.loads(resp.read())
        assert response == handle_rpc(default_registry(), body)
        assert response["jsonrpc"] == "2.0" and response["id"] is None
        assert response["error"]["code"] == ERR_INVALID_REQUEST

    @pytest.mark.parametrize("method", ["perturb", "accept"])
    @pytest.mark.parametrize("payload", [[0, 1], [1], 1, None, "0121", "01 "])
    def test_bits_payload_must_be_a_0_1_string(self, method, payload):
        bad = {"t": "bits", "v": payload}
        params = {"component": "bitflip", "params": {}, "env": env_new(0).to_json()}
        if method == "accept":
            params["component"] = "improving"
            params["solutions"] = [solution_to_json(BitVector.from_string("01")), bad]
        else:
            params["solution"] = bad
        body = json.dumps(
            {"jsonrpc": "2.0", "id": 4, "method": method, "params": params}
        ).encode()
        response = handle_rpc(default_registry(), body)
        assert response["id"] == 4
        assert response["error"]["code"] == ERR_INVALID_PARAMS

    @pytest.mark.parametrize(
        "value", [{"t": "int", "v": 2.7}, {"t": "bool", "v": "no"}, {"t": "dseq", "v": ["-1"]}]
    )
    def test_env_payload_must_fit_its_tag(self, value):
        env = env_new(0).to_json()
        env["entries"]["framework.iteration"] = value
        params = {
            "component": "bitflip",
            "params": {},
            "solution": solution_to_json(BitVector.from_string("01")),
            "env": env,
        }
        body = json.dumps({"jsonrpc": "2.0", "id": 5, "method": "perturb", "params": params})
        response = handle_rpc(default_registry(), body.encode())
        assert response["id"] == 5
        assert response["error"]["code"] == ERR_INVALID_PARAMS
        assert f"EnvValue {value['t']} payload must be" in response["error"]["message"]

    def test_component_failure_names_component(self, server):
        # permutation component on a bit vector
        response = rpc(
            server.endpoint,
            "perturb",
            {
                "component": "swap",
                "params": {},
                "solution": solution_to_json(BitVector.from_string("01")),
                "env": env_new(0).to_json(),
            },
        )
        assert response["error"]["code"] == -32002
        assert "swap" in response["error"]["message"]

    @pytest.mark.parametrize("name, message", [
        ("bitflip", "bitflip: expected a bit vector"),
        ("kick", "kick: bitflip: expected a bit vector"),
    ])
    def test_component_failure_names_component_once(self, name, message):
        # a built-in's error already starts with its name; an alias backed
        # by it is named in front of that
        registry = registry_from_json({"components": [{"name": name, "impl": "bitflip"}]})
        params = {
            "component": name,
            "params": {},
            "solution": {"t": "assignment", "v": {"x": 1}},
            "env": env_new(0).to_json(),
        }
        body = json.dumps({"jsonrpc": "2.0", "id": 6, "method": "perturb", "params": params})
        response = handle_rpc(registry, body.encode())
        assert response["error"] == {"code": -32002, "message": message}


class TestClientProxies:
    def test_remote_perturb_bit_identical(self, server):
        remote = remote_perturb(server.endpoint, "bitflip", {"k": 1})
        local = perturb_bitflip(1)
        env = env_new(123)
        for _ in range(100):
            n, env = rng_below(env, 12)
            sol_bits = []
            for _ in range(n + 2):
                b, env = rng_below(env, 2)
                sol_bits.append(b)
            sol = BitVector(sol_bits)
            out_r, env_r = remote(sol, env)
            out_l, env_l = local(sol, env)
            assert out_r == out_l
            assert env_r == env_l
            assert env_r.rng.counter == env_l.rng.counter

    def test_remote_accept(self, server):
        from metafold.components import K_INCOMING_VALUE, K_INCUMBENT_VALUE
        from metafold.env import EnvValue

        remote = remote_accept(server.endpoint, "improving")
        env = env_new(0)
        env = env.put(K_INCUMBENT_VALUE, EnvValue.of_real(10.0))
        env = env.put(K_INCOMING_VALUE, EnvValue.of_real(8.0))
        a, b = BitVector.from_string("0000"), BitVector.from_string("1111")
        out, _ = remote((a, b), env)
        assert out == b

    def test_descriptor_fetched_at_construction(self, server):
        remote = remote_perturb(server.endpoint, "bitflip", {"k": 2})
        assert remote.descriptor.name == "bitflip"
        assert remote.descriptor.kind == "perturb"

    def test_unknown_component_raises(self, server):
        with pytest.raises(UnknownComponentError):
            remote_perturb(server.endpoint, "warp_drive")

    def test_server_down_surfaces_unavailable(self):
        with pytest.raises(RemoteUnavailableError):
            remote_perturb("http://127.0.0.1:1/rpc", "bitflip")


class TestTrajectoryEquivalence:
    def test_onemax_local_vs_remote(self, server):
        problem = onemax(32)
        remote = remote_perturb(server.endpoint, "bitflip", {"k": 1})
        local = perturb_bitflip(1)
        for seed in (1, 2, 3):
            results = []
            for perturb in (local, remote):
                start, env = problem.sample_initial(env_new(seed))
                results.append(
                    local_search(
                        start,
                        problem.evaluate,
                        perturb,
                        accept_improving(),
                        terminate_iterations(100),
                        env,
                    )
                )
            a, b = results
            assert a.best == b.best
            assert a.best_value == b.best_value
            assert a.trace == b.trace
            assert a.final_env.serialize() == b.final_env.serialize()

    def test_statelessness_under_interleaving(self, server):
        # two concurrent runs through one endpoint must each match their
        # sequential counterparts exactly
        problem = onemax(16)
        remote = remote_perturb(server.endpoint, "bitflip", {"k": 1})

        def run(seed):
            start, env = problem.sample_initial(env_new(seed))
            return local_search(
                start,
                problem.evaluate,
                remote,
                accept_improving(),
                terminate_iterations(60),
                env,
            )

        sequential = {seed: run(seed) for seed in (5, 6)}
        outcomes = {}

        def worker(seed):
            outcomes[seed] = run(seed)

        threads = [threading.Thread(target=worker, args=(s,)) for s in (5, 6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for seed in (5, 6):
            assert outcomes[seed].trace == sequential[seed].trace
            assert outcomes[seed].final_env == sequential[seed].final_env

    def test_kind_mismatch_is_unknown(self, server):
        # a perturb name requested through the evaluate method
        response = rpc(
            server.endpoint,
            "evaluate",
            {
                "component": "bitflip",
                "params": {},
                "solution": solution_to_json(BitVector.from_string("010101")),
                "env": env_new(9).to_json(),
            },
        )
        assert response["error"]["code"] == ERR_UNKNOWN_COMPONENT


@pytest.mark.parametrize(
    "component, params, code",
    [
        ("bitflip", {"kk": 9}, ERR_INVALID_PARAMS),
        ("bitflip", {"k": 2.7}, ERR_INVALID_PARAMS),
        ("bitflip", {"k": "2"}, ERR_INVALID_PARAMS),
        ("bitflip", {"k": 0}, ERR_INVALID_PARAMS),
        ("warp_drive", {"kk": 9}, ERR_UNKNOWN_COMPONENT),
    ],
)
def test_component_params_are_checked_before_the_build(component, params, code):
    body = json.dumps(
        {
            "jsonrpc": "2.0",
            "id": 5,
            "method": "perturb",
            "params": {
                "component": component,
                "params": params,
                "solution": solution_to_json(BitVector.from_string("0000")),
                "env": env_new(0).to_json(),
            },
        }
    ).encode()
    response = handle_rpc(default_registry(), body)
    assert response["id"] == 5
    assert response["error"]["code"] == code


@pytest.mark.parametrize(
    "mutate, missing",
    [
        (lambda env: env["entries"].update({"framework.iteration": {"v": 1}}), "'t' at env entry"),
        (lambda env: env["entries"].update({"framework.iteration": {"t": "int"}}), "'v' at env entry"),
        # a key in its place: still the missing one is named
        (lambda env: env["entries"].update({"framework.iteration": {"v": 1, "x": 2}}), "'t' at env entry"),
        (lambda env: env["rng"].pop("counter"), "'counter' at env.rng"),
        (lambda env: env["rng"].pop("seed"), "'seed' at env.rng"),
        (lambda env: env.pop("rng"), "'rng' at env"),
        (lambda env: env.pop("entries"), "'entries' at env"),
    ],
    ids=["entry-t", "entry-v", "entry-t-for-x", "rng-counter", "rng-seed", "env-rng", "env-entries"],
)
def test_an_env_without_a_key_is_refused_naming_the_key(mutate, missing):
    env = env_new(0).to_json()
    mutate(env)
    params = {
        "component": "bitflip",
        "params": {},
        "solution": solution_to_json(BitVector.from_string("01")),
        "env": env,
    }
    body = json.dumps({"jsonrpc": "2.0", "id": 6, "method": "perturb", "params": params})
    response = handle_rpc(default_registry(), body.encode())
    assert response["error"] == {
        "code": ERR_INVALID_PARAMS, "message": f"malformed params: missing key {missing}"
    }


@pytest.mark.parametrize(
    "method, component, missing",
    [
        ("perturb", "bitflip", "env"),
        ("perturb", "bitflip", "solution"),
        ("evaluate", "onemax", "env"),
        ("evaluate", "onemax", "solution"),
        ("terminate", "max_iterations", "env"),
        ("terminate", "max_iterations", "solution"),
        ("accept", "improving", "env"),
        ("accept", "improving", "solutions"),
    ],
)
def test_a_request_without_its_env_or_solution_is_refused_naming_the_key(method, component, missing):
    sol = solution_to_json(BitVector.from_string("01"))
    field = {"accept": ("solutions", [sol, sol])}.get(method, ("solution", sol))
    params = {"component": component, "params": {}, "env": env_new(0).to_json(), field[0]: field[1]}
    del params[missing]
    body = json.dumps({"jsonrpc": "2.0", "id": 7, "method": method, "params": params})
    response = handle_rpc(default_registry(), body.encode())
    assert response["error"] == {
        "code": ERR_INVALID_PARAMS, "message": f"malformed params: missing key {missing!r} at params"
    }
