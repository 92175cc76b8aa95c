"""The RPC tier's boundary: a JSON-RPC error, never a traceback or a
dropped connection, for any body or Content-Length."""

import json
import socket
import struct
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metafold import rpc
from metafold.assembly import Registry
from metafold.components import Component
from metafold.env import env_new
from metafold.palette import default_registry
from metafold.rpc import (
    ERR_INVALID_PARAMS,
    ERR_INVALID_REQUEST,
    ERR_PARSE,
    MAX_REQUEST_BYTES,
    handle_rpc,
    serve,
)
from metafold.solutions import BitVector, solution_to_json

REGISTRY = default_registry()


@pytest.fixture(scope="module")
def server():
    s = serve(REGISTRY)
    yield s
    s.close()


def assert_well_formed(response):
    """One JSON-RPC 2.0 response object that the server can encode as
    strict JSON (no NaN or Infinity), whose id is no bool."""
    json.dumps(response, allow_nan=False)
    assert response["jsonrpc"] == "2.0"
    assert "id" in response
    assert type(response["id"]) in (str, int, float, type(None))
    assert ("result" in response) != ("error" in response)
    assert set(response) == {"jsonrpc", "id", "result" if "result" in response else "error"}
    if "error" in response:
        error = response["error"]
        assert isinstance(error["code"], int) and isinstance(error["message"], str)


@pytest.mark.parametrize(
    "body",
    [
        b"\x80abc", b"[" * 100000, b'{"a": ' * 5000, b"", b"1" * 5000,
        # tokens that Python's json reads, but that are no JSON
        b'{"jsonrpc": "2.0", "id": NaN, "method": "describe"}',
        b'{"jsonrpc": "2.0", "id": 1, "method": "describe", "params": [Infinity]}',
        b'{"jsonrpc": "2.0", "id": 1, "method": "perturb", "params": {"k": -Infinity}}',
    ],
)
def test_unreadable_bodies_are_parse_errors(body):
    response = handle_rpc(REGISTRY, body)
    assert_well_formed(response)
    assert response["error"]["code"] == ERR_PARSE
    assert response["id"] is None


@pytest.mark.parametrize("method", [[1], {}, 7, None, True, "warp"])
def test_non_string_method_is_an_unknown_method(method):
    body = json.dumps({"jsonrpc": "2.0", "id": 3, "method": method}).encode()
    response = handle_rpc(REGISTRY, body)
    assert_well_formed(response)
    assert response["id"] == 3
    assert response["error"]["code"] == ERR_INVALID_REQUEST
    assert response["error"]["message"].startswith("unknown method")


def test_deepest_readable_nesting_in_any_field_is_answered():
    depth = 1
    while True:  # the deepest nesting json.loads reads here
        try:
            json.loads("[" * (depth + 1) + "]" * (depth + 1))
        except RecursionError:
            break
        depth += 1
    deep = "[" * depth + "]" * depth
    env = json.dumps(env_new(1).to_json())
    templates = [
        '{"jsonrpc": "2.0", "id": %s, "method": "perturb"}',
        '{"jsonrpc": "2.0", "id": 1, "method": %s}',
        '{"jsonrpc": "2.0", "id": 1, "method": "perturb", "params": {"component": "bitflip", '
        '"params": {"k": %s}, "env": ' + env + ', "solution": {"t": "bits", "v": "01"}}}',
        '{"jsonrpc": "2.0", "id": 1, "method": "perturb", "params": {"component": %s, '
        '"params": {}, "env": ' + env + ', "solution": {"t": "bits", "v": "01"}}}',
        '{"jsonrpc": "2.0", "id": 1, "method": "perturb", "params": {"component": "bitflip", '
        '"params": {}, "env": %s, "solution": {"t": "bits", "v": "01"}}}',
    ]
    for template in templates:
        assert_well_formed(handle_rpc(REGISTRY, (template % deep).encode()))


leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4)
)
json_values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=8,
)
GOOD_ENV = env_new(1).to_json()
GOOD_SOLUTION = solution_to_json(BitVector.from_string("0110"))
rpc_params = st.fixed_dictionaries(
    {},
    optional={
        "component": st.one_of(
            st.sampled_from(["bitflip", "swap", "improving", "tabu", "max_iterations", "nope"]),
            json_values,
        ),
        "params": st.one_of(
            st.dictionaries(st.sampled_from(["k", "cooling", "max", "kk"]), json_values),
            json_values,
        ),
        "env": st.one_of(st.just(GOOD_ENV), json_values),
        "solution": st.one_of(st.just(GOOD_SOLUTION), json_values),
        "solutions": st.one_of(st.just([GOOD_SOLUTION, GOOD_SOLUTION]), json_values),
    },
)
requests = st.fixed_dictionaries(
    {},
    optional={
        "jsonrpc": st.one_of(st.just("2.0"), json_values),
        "id": json_values,
        "method": st.one_of(
            st.sampled_from(["describe", "perturb", "accept", "evaluate", "terminate"]),
            json_values,
        ),
        "params": st.one_of(rpc_params, json_values),
    },
)


@settings(max_examples=300, deadline=None)
@given(body=st.one_of(st.binary(max_size=64), requests.map(lambda r: json.dumps(r).encode())))
def test_any_bytes_get_a_well_formed_response(body):
    assert_well_formed(handle_rpc(REGISTRY, body))


@settings(max_examples=300, deadline=None)
@given(doc=requests)
def test_any_json_object_gets_a_well_formed_response(doc):
    response = handle_rpc(REGISTRY, json.dumps(doc).encode())
    assert_well_formed(response)
    if isinstance(doc.get("id"), (str, int, float)) and response["id"] is not None:
        assert response["id"] == doc["id"]


def perturb_with_env(env: dict) -> dict:
    params = {"component": "bitflip", "params": {"k": 1}, "env": env,
              "solution": {"t": "bits", "v": "0101"}}
    return handle_rpc(REGISTRY, json.dumps(
        {"jsonrpc": "2.0", "id": 6, "method": "perturb", "params": params}
    ).encode())


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", 2.7),  # read as 2 when the rng was parsed with `int`
        ("seed", 2.0),
        ("seed", True),
        ("seed", "1_0"),
        ("seed", "\u0663"),  # an Arabic-Indic three
        ("seed", " 1"),
        ("seed", "-1"),
        ("seed", -1),
        ("seed", str(2**64)),
        ("seed", 2**64),
        ("seed", None),
        ("counter", "0x1"),
        ("counter", 0.5),
        ("counter", [0]),
    ],
)
def test_an_rng_that_is_not_a_64_bit_word_is_invalid_params(field, value):
    env = env_new(1).to_json()
    env["rng"][field] = value
    response = perturb_with_env(env)
    assert_well_formed(response)
    assert response["id"] == 6
    assert response["error"]["code"] == ERR_INVALID_PARAMS
    assert "rng seed and counter must be" in response["error"]["message"]


@pytest.mark.parametrize("seed, counter", [(0, 0), ("007", "3"), (2**64 - 1, str(2**64 - 2))])
def test_an_rng_of_integers_or_decimal_strings_is_read_as_written(seed, counter):
    env = env_new(1).to_json()
    env["rng"] = {"seed": seed, "counter": counter}
    response = perturb_with_env(env)
    assert response["result"]["env"]["rng"] == {"seed": str(int(seed)), "counter": str(int(counter) + 1)}


@pytest.mark.parametrize("key", ["framework.iteration\n", "framework\n.iteration"])
def test_an_entry_key_with_a_line_break_is_invalid_params(key):
    env = env_new(1).to_json()
    env["entries"][key] = {"t": "int", "v": 1}
    response = perturb_with_env(env)
    assert_well_formed(response)
    assert response["error"]["code"] == ERR_INVALID_PARAMS
    assert "invalid env key token" in response["error"]["message"]


@pytest.mark.parametrize(
    "component, solution",
    [
        ("two_opt", {"t": "perm", "v": [0.7, 1, 2]}),
        ("two_opt", {"t": "perm", "v": ["1", "0", "2"]}),
        ("swap", {"t": "perm", "v": [True, False, 2]}),
        ("gaussian", {"t": "real", "v": ["1.5"]}),
        ("gaussian", {"t": "real", "v": [True, 0.5]}),
    ],
)
def test_a_mistyped_perm_or_real_payload_is_invalid_params(component, solution):
    response = handle_rpc(REGISTRY, json.dumps({
        "jsonrpc": "2.0", "id": 7, "method": "perturb",
        "params": {"component": component, "env": env_new(1).to_json(), "solution": solution},
    }).encode())
    assert_well_formed(response)
    assert response["error"]["code"] == ERR_INVALID_PARAMS
    assert f"{solution['t']} payload must be a list of JSON" in response["error"]["message"]


def recording(registry, ran):
    """`registry`, with each component's step appending its name to `ran`."""

    def wrap(factory):
        def build(bindings):
            component = factory(bindings)

            def step(payload, env):
                ran.append(component.descriptor.name)
                return component(payload, env)

            return Component(component.descriptor, step)

        return build

    factories = {key: wrap(factory) for key, factory in registry.factories.items()}
    return Registry(registry.descriptors, factories, registry.impls)


RAN = []
RECORDING = recording(REGISTRY, RAN)


def call(component, field, payload, env=GOOD_ENV):
    return {"component": component, "params": {}, "env": env, field: payload}


# One valid request of each kind the default registry serves; each runs
# its component, if it has one.
VALID = {
    "describe": {"jsonrpc": "2.0", "id": 1, "method": "describe"},
    "bitflip": {"jsonrpc": "2.0", "id": 2, "method": "perturb",
                "params": call("bitflip", "solution", GOOD_SOLUTION)},
    "tabu": {"jsonrpc": "2.0", "id": 3, "method": "accept",
             "params": call("tabu", "solutions", [GOOD_SOLUTION, GOOD_SOLUTION])},
    "max_iterations": {"jsonrpc": "2.0", "id": 4, "method": "terminate", "params": call(
        "max_iterations", "solution", GOOD_SOLUTION,
        {"rng": GOOD_ENV["rng"], "entries": {"framework.iteration": {"t": "int", "v": 3}}},
    )},
}
KNOWN_KEYS = {"jsonrpc", "id", "method", "params", "component", "env", "solution", "solutions"}
plain_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=2), st.dictionaries(st.text(max_size=2), inner, max_size=2)),
    max_leaves=4,
)


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(sorted(VALID)),
    in_params=st.booleans(),
    key=st.text(max_size=8).filter(lambda k: k not in KNOWN_KEYS),
    value=plain_values,
    position=st.integers(0, 5),
)
def test_one_unknown_key_is_refused_and_runs_no_component(name, in_params, key, value, position):
    request = json.loads(json.dumps(VALID[name]))
    RAN.clear()
    assert "result" in handle_rpc(RECORDING, json.dumps(request).encode())
    assert RAN == ([] if name == "describe" else [name])
    target = request.setdefault("params", {}) if in_params else request
    items = list(target.items())
    items.insert(position, (key, value))
    target.clear()
    target.update(items)
    RAN.clear()
    response = handle_rpc(RECORDING, json.dumps(request).encode())
    assert_well_formed(response)
    assert response["id"] == request["id"]
    assert response["error"]["code"] == (ERR_INVALID_PARAMS if in_params else ERR_INVALID_REQUEST)
    assert repr(key) in response["error"]["message"]
    assert RAN == []


@pytest.mark.parametrize(
    "request_, code, message",
    [
        # a misspelt member at the top level is named before one in params
        ({**VALID["bitflip"], "extra": 1, "params": {**VALID["bitflip"]["params"], "parms": {"k": 4}}},
         ERR_INVALID_REQUEST, "unknown request member 'extra'"),
        ({**VALID["bitflip"], "params": {**VALID["bitflip"]["params"], "parms": {"k": 4}}},
         ERR_INVALID_PARAMS, "unknown params member 'parms'"),
        # the request field of another method
        ({**VALID["bitflip"], "params": {**VALID["bitflip"]["params"], "solutions": []}},
         ERR_INVALID_PARAMS, "unknown params member 'solutions'"),
        ({**VALID["describe"], "params": {"verbose": True}}, ERR_INVALID_PARAMS, "describe takes no params; got 'verbose'"),
        ({**VALID["describe"], "params": [1]}, ERR_INVALID_PARAMS, "describe takes no params"),
        ({**VALID["describe"], "params": None}, ERR_INVALID_PARAMS, "describe takes no params"),
    ],
    ids=["top-level-first", "params", "other-method-field", "describe-object", "describe-list", "describe-null"],
)
def test_an_unknown_key_is_named_in_its_error(request_, code, message):
    RAN.clear()
    response = handle_rpc(RECORDING, json.dumps(request_).encode())
    assert response["error"] == {"code": code, "message": message}
    assert RAN == []


@pytest.mark.parametrize("params", [{}, []])
def test_describe_with_empty_params_describes(params):
    response = handle_rpc(REGISTRY, json.dumps({**VALID["describe"], "params": params}).encode())
    assert response["result"] == REGISTRY.to_json()


def raw_post(endpoint, head: bytes, body: bytes = b"", timeout: float = 5.0) -> dict:
    """Send one hand-written HTTP request and return the JSON body of the
    reply; fails if none arrives within `timeout` seconds."""
    host, port = endpoint.split("//")[1].split("/")[0].split(":")
    with socket.create_connection((host, int(port)), timeout=timeout) as sock:
        sock.sendall(b"POST /rpc HTTP/1.0\r\nHost: x\r\n" + head + b"\r\n" + body)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    status, _, content = b"".join(chunks).partition(b"\r\n\r\n")
    assert status.startswith(b"HTTP/1.0 200"), status
    return json.loads(content)


@pytest.mark.parametrize(
    "head",
    [
        b"Content-Length: abc\r\n",
        b"Content-Length: -1\r\n",
        b"Content-Length: 1.5\r\n",
        b"",
        b"Content-Length: %d\r\n" % (MAX_REQUEST_BYTES + 1),
        b"Content-Length: 99999999999999999999999\r\n",
    ],
    ids=["abc", "negative", "fraction", "missing", "over-cap", "huge"],
)
def test_bad_content_length_is_answered_then_service_continues(server, head):
    body = b'{"jsonrpc": "2.0", "id": 1, "method": "describe"}'
    response = raw_post(server.endpoint, head, body)
    assert_well_formed(response)
    assert response["id"] is None
    assert response["error"]["code"] == ERR_INVALID_REQUEST
    assert str(MAX_REQUEST_BYTES) in response["error"]["message"]
    good = raw_post(server.endpoint, b"Content-Length: %d\r\n" % len(body), body)
    assert good["result"]["components"]


def test_invalid_utf8_body_is_a_parse_error_then_service_continues(server):
    response = raw_post(server.endpoint, b"Content-Length: 4\r\n", b"\x80abc")
    assert response["error"]["code"] == ERR_PARSE
    body = b'{"jsonrpc": "2.0", "id": 9, "method": "describe"}'
    good = raw_post(server.endpoint, b"Content-Length: %d\r\n" % len(body), body)
    assert good["id"] == 9 and good["result"]["components"]


DESCRIBE = b'{"jsonrpc": "2.0", "id": 1, "method": "describe"}'


def open_short_body(endpoint):
    """A connection that announces a 100-byte body and sends 10 bytes."""
    host, port = endpoint.split("//")[1].split("/")[0].split(":")
    sock = socket.create_connection((host, int(port)), timeout=5.0)
    sock.sendall(b"POST /rpc HTTP/1.0\r\nHost: x\r\nContent-Length: 100\r\n\r\n" + b"{" * 10)
    return sock


def test_body_shorter_than_its_length_times_out_then_service_continues(monkeypatch, capfd):
    monkeypatch.setattr(rpc, "REQUEST_TIMEOUT_S", 0.2)
    s = serve(REGISTRY)
    try:
        with open_short_body(s.endpoint) as sock:
            started = time.monotonic()
            assert sock.recv(65536) == b""  # closed without a reply
            assert time.monotonic() - started < 4.0
        good = raw_post(s.endpoint, b"Content-Length: %d\r\n" % len(DESCRIBE), DESCRIBE)
        assert good["result"]["components"]
    finally:
        s.close()
    assert capfd.readouterr().err == ""


def test_client_gone_before_the_reply_prints_nothing(capfd):
    s = serve(REGISTRY)
    try:
        sock = open_short_body(s.endpoint)
        time.sleep(0.1)
        # close with a reset, as a client that is killed does
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()
        time.sleep(0.3)
        good = raw_post(s.endpoint, b"Content-Length: %d\r\n" % len(DESCRIBE), DESCRIBE)
        assert good["result"]["components"]
    finally:
        s.close()
    assert capfd.readouterr().err == ""
