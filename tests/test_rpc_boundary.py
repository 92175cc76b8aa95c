"""The RPC tier's boundary: a JSON-RPC error, never a traceback or a
dropped connection, for any body or Content-Length."""

import json
import socket
import struct
import threading
import time
import urllib.request

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
    RemoteProtocolError,
    handle_rpc,
    remote_perturb,
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


def with_params(name, **changes):
    """VALID[name] with its params changed: a value of None drops the key."""
    params = {**VALID[name]["params"], **changes}
    return {**VALID[name], "params": {k: v for k, v in params.items() if v is not None}}


GOOD_RNG = GOOD_ENV["rng"]


@pytest.mark.parametrize(
    "request_, message",
    [
        (with_params("bitflip", component=None), "missing key 'component' at params"),
        (with_params("bitflip", component=5), "params.component must be a string, got number"),
        (with_params("bitflip", component=["bitflip"]), "params.component must be a string, got array"),
        (with_params("bitflip", params=[1]), "params.params must be an object, got array"),
        (with_params("bitflip", params="k=1"), "params.params must be an object, got string"),
        (with_params("bitflip", env=[]), "env must be an object, got array"),
        (with_params("bitflip", env={"rng": [], "entries": {}}), "env.rng must be an object, got array"),
        (with_params("bitflip", env={"rng": GOOD_RNG, "entries": []}),
         "env.entries must be an object, got array"),
        (with_params("bitflip", env={"rng": GOOD_RNG, "entries": {"a.b": 3}}),
         "env entry must be an object, got number"),
        (with_params("bitflip", solution=[0, 1]), "params.solution must be an object, got array"),
        (with_params("bitflip", solution={**GOOD_SOLUTION, "x": 1}), "unknown key 'x' at params.solution"),
        (with_params("bitflip", solution={"v": "01"}), "missing key 't' at params.solution"),
        (with_params("bitflip", solution={"t": 5, "v": "01"}), "params.solution.t must be a string, got number"),
        (with_params("tabu", solutions=GOOD_SOLUTION), "params.solutions must be an array, got object"),
        (with_params("tabu", solutions=[GOOD_SOLUTION]), "params.solutions must hold two solutions, not 1"),
        (with_params("tabu", solutions=[GOOD_SOLUTION] * 3), "params.solutions must hold two solutions, not 3"),
        (with_params("tabu", solutions=[GOOD_SOLUTION, None]), "params.solutions[1] must be an object, got null"),
        ({**VALID["bitflip"], "params": [1]}, "params must be an object, got array"),
        ({k: v for k, v in VALID["bitflip"].items() if k != "params"}, "params must be an object, got null"),
    ],
    ids=[
        "no-component", "component-number", "component-array", "component-params-array",
        "component-params-string", "env-array", "rng-array", "entries-array", "entry-number",
        "solution-array", "solution-extra-key", "solution-no-tag", "solution-tag-number",
        "solutions-object", "one-solution", "three-solutions", "solution-null", "params-array", "no-params",
    ],
)
def test_a_malformed_params_member_is_named_by_its_path(request_, message):
    RAN.clear()
    response = handle_rpc(RECORDING, json.dumps(request_).encode())
    assert response == {"jsonrpc": "2.0", "id": request_["id"], "error": {
        "code": ERR_INVALID_PARAMS, "message": f"malformed params: {message}",
    }}
    assert RAN == []


@pytest.mark.parametrize("params", [{}, []])
def test_describe_with_empty_params_describes(params):
    response = handle_rpc(REGISTRY, json.dumps({**VALID["describe"], "params": params}).encode())
    assert response["result"] == REGISTRY.to_json()


def exchange(endpoint, data: bytes, per_write: int = 0, timeout: float = 5.0) -> bytes:
    """Send `data` on a connection of its own, `per_write` bytes per write
    if given, and return all the server sends before it closes; fails if it
    does not close within `timeout` seconds."""
    host, port = endpoint.split("//")[1].split("/")[0].split(":")
    step = per_write or len(data)
    with socket.create_connection((host, int(port)), timeout=timeout) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for at in range(0, len(data), step):
            sock.sendall(data[at:at + step])
        chunks = []
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        except ConnectionResetError:  # the server closed with request bytes unread
            pass
    return b"".join(chunks)


def raw_post(endpoint, head: bytes, body: bytes = b"", timeout: float = 5.0) -> dict:
    """Send one hand-written HTTP request and return the JSON body of the
    reply; fails if none arrives within `timeout` seconds."""
    request = b"POST /rpc HTTP/1.0\r\nHost: x\r\n" + head + b"\r\n" + body
    status, _, content = exchange(endpoint, request, timeout=timeout).partition(b"\r\n\r\n")
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


def assert_describe_is_answered(endpoint):
    good = raw_post(endpoint, b"Content-Length: %d\r\n" % len(DESCRIBE), DESCRIBE)
    assert good["result"]["components"]


def post(head: bytes, body: bytes = DESCRIBE) -> bytes:
    return b"POST /rpc HTTP/1.0\r\n" + head + b"\r\n" + body


LINE = 65536  # the longest line read, its CRLF included
TRANSPORT = {
    "request line too long": (b"POST /" + b"r" * (LINE - 16) + b" HTTP/1.0\r\n\r\n", 414),
    "header line too long": (post(b"X: " + b"x" * (LINE - 4) + b"\r\n"), 431),
    "101 header lines": (post(b"X: 1\r\n" * 100 + b"Content-Length: 49\r\n"), 431),
    "two words": (b"POST /rpc\r\n\r\n", 400),
    "an empty line first": (b"\r\n" + post(b"Content-Length: 49\r\n"), 400),
    "four words": (b"POST /rpc HTTP/1.0 x\r\nContent-Length: 49\r\n\r\n" + DESCRIBE, 400),
    "HTTP/2.0": (b"POST /rpc HTTP/2.0\r\nContent-Length: 49\r\n\r\n" + DESCRIBE, 400),
    "HTTP/1.x": (b"POST /rpc HTTP/1.x\r\nContent-Length: 49\r\n\r\n" + DESCRIBE, 400),
    "lower-case http": (b"POST /rpc http/1.0\r\nContent-Length: 49\r\n\r\n" + DESCRIBE, 400),
    "header without a colon": (post(b"Content-Length 49\r\n"), 400),
    "space before the colon": (post(b"Content-Length : 49\r\n"), 400),
    "folded header line": (post(b"Content-Length: 49\r\nX: 1\r\n\tY: 2\r\n"), 400),
    "empty header name": (post(b": 1\r\nContent-Length: 49\r\n"), 400),
    "GET": (b"GET /rpc HTTP/1.0\r\n\r\n", 501),
    "PUT": (b"PUT /rpc HTTP/1.0\r\nContent-Length: 49\r\n\r\n" + DESCRIBE, 501),
    "lower-case post": (b"post /rpc HTTP/1.0\r\nContent-Length: 49\r\n\r\n" + DESCRIBE, 501),
    "target /": (b"POST / HTTP/1.0\r\nContent-Length: 49\r\n\r\n" + DESCRIBE, 404),
    "target /rpc/": (b"POST /rpc/ HTTP/1.0\r\nContent-Length: 49\r\n\r\n" + DESCRIBE, 404),
    "target with a query": (b"POST /rpc?x=1 HTTP/1.1\r\nContent-Length: 49\r\n\r\n" + DESCRIBE, 404),
    "target /RPC": (b"POST /RPC HTTP/1.1\r\nContent-Length: 49\r\n\r\n" + DESCRIBE, 404),
    # one byte under each limit: read, then refused for its target
    "request line of the longest length": (b"POST /" + b"r" * (LINE - 17) + b" HTTP/1.0\r\n\r\n", 404),
}


@pytest.mark.parametrize("data, status", TRANSPORT.values(), ids=TRANSPORT.keys())
def test_a_request_that_cannot_be_served_gets_a_bare_status_then_service_continues(
    server, data, status
):
    assert len(DESCRIBE) == 49
    head, _, body = exchange(server.endpoint, data).partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    assert lines[0].startswith(b"HTTP/1.0 %d " % status), lines[0]
    assert lines[1:] == [b"Content-Length: 0"]
    assert body == b""
    assert_describe_is_answered(server.endpoint)


SERVED = {
    "lower-case name": post(b"content-length: 49\r\n"),
    "upper-case name": post(b"CONTENT-LENGTH: 49\r\n"),
    "the same length twice": post(b"Content-Length: 49\r\ncontent-length: 49\r\n"),
    "spaces and tabs around the value": post(b"Content-Length: \t49 \t\r\n"),
    "leading zeros": post(b"Content-Length: " + b"0" * 5000 + b"49\r\n"),
    "100 header lines": post(b"X: 1\r\n" * 99 + b"Content-Length: 49\r\n"),
    "header line of the longest length": post(b"X: " + b"x" * (LINE - 5) + b"\r\nContent-Length: 49\r\n"),
    "bare LF line ends": b"POST /rpc HTTP/1.1\nHost: x\nContent-Length: 49\n\n" + DESCRIBE,
    "HTTP/1.1": b"POST /rpc HTTP/1.1\r\nHost: x\r\nContent-Length: 49\r\n\r\n" + DESCRIBE,
}


@pytest.mark.parametrize("data", SERVED.values(), ids=SERVED.keys())
def test_a_request_in_the_served_subset_is_answered(server, data):
    head, _, body = exchange(server.endpoint, data).partition(b"\r\n\r\n")
    assert head == b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d" % len(body)
    assert json.loads(body)["result"] == REGISTRY.to_json()


@pytest.mark.parametrize(
    "head",
    [
        b"Content-Length: 49\r\nContent-Length: 50\r\n",
        b"Content-Length: 49\r\ncontent-length: 0\r\n",
        b"Content-Length: " + b"9" * 5000 + b"\r\n",
        b"Content-Length: 49, 49\r\n",
    ],
    ids=["two lengths", "two lengths, either case", "5000 digits", "a list"],
)
def test_a_length_that_frames_no_body_is_invalid_then_service_continues(server, head):
    response = raw_post(server.endpoint, head, DESCRIBE)
    assert response == {"jsonrpc": "2.0", "id": None, "error": {
        "code": ERR_INVALID_REQUEST,
        "message": f"Content-Length must be an integer in [0, {MAX_REQUEST_BYTES}]",
    }}
    assert_describe_is_answered(server.endpoint)


def test_a_request_sent_one_byte_per_write_is_answered(server):
    reply = exchange(server.endpoint, post(b"Host: x\r\nContent-Length: 49\r\n"), per_write=1)
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.0 200 OK\r\n")
    assert json.loads(body)["id"] == 1 and json.loads(body)["result"]["components"]
    assert_describe_is_answered(server.endpoint)


def test_a_head_that_stalls_times_out_silently_then_service_continues(monkeypatch, capfd):
    monkeypatch.setattr(rpc, "REQUEST_TIMEOUT_S", 0.2)
    s = serve(REGISTRY)
    try:
        for partial in (b"POST /rpc HTT", b"POST /rpc HTTP/1.0\r\nContent-Le"):
            started = time.monotonic()
            assert exchange(s.endpoint, partial) == b""  # closed without a reply
            assert time.monotonic() - started < 4.0
        assert_describe_is_answered(s.endpoint)
    finally:
        s.close()
    assert capfd.readouterr().err == ""


def test_a_client_gone_mid_head_prints_nothing(capfd):
    s = serve(REGISTRY)
    try:
        for partial in (b"POST /rpc HTT", b"POST /rpc HTTP/1.0\r\nContent-Le"):
            host, port = s.endpoint.split("//")[1].split("/")[0].split(":")
            for reset in (False, True):
                sock = socket.create_connection((host, int(port)), timeout=5.0)
                sock.sendall(partial)
                if reset:  # as a client that is killed does
                    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                sock.close()
            assert_describe_is_answered(s.endpoint)
    finally:
        s.close()
    assert capfd.readouterr().err == ""


# Bodies the server does not read: it must still drain them, within
# bounds, after its reply, or the close resets the connection and the
# client, still sending, never reads the reply.
OVER_CAP = MAX_REQUEST_BYTES + 1024 * 1024  # 17 MiB


def test_a_body_over_the_cap_gets_its_reply_every_time(server):
    for _ in range(3):
        req = urllib.request.Request(server.endpoint, b" " * OVER_CAP, {"Content-Type": "application/json"})
        with urllib.request.urlopen(req, timeout=30) as resp:
            response = json.loads(resp.read())
        assert response["error"]["code"] == ERR_INVALID_REQUEST
    assert_describe_is_answered(server.endpoint)


def test_a_proxy_call_over_the_cap_is_a_protocol_error(server):
    perturb = remote_perturb(server.endpoint, "bitflip")
    with pytest.raises(RemoteProtocolError) as caught:
        perturb(BitVector.from_string("0" * OVER_CAP), env_new(1))
    assert caught.value.code == ERR_INVALID_REQUEST


UNREAD = 8 * 1024 * 1024


@pytest.mark.parametrize(
    "head, status",
    [(b"POST /rpc HTTP/1.0\r\n\r\n", 200), (b"POST /nope HTTP/1.0\r\n\r\n", 404)],
    ids=["no length", "another target"],
)
def test_an_unread_body_does_not_lose_the_reply(server, head, status):
    reply = exchange(server.endpoint, head + b" " * UNREAD, timeout=30)
    assert reply.startswith(b"HTTP/1.0 %d " % status)
    response_head, _, body = reply.partition(b"\r\n\r\n")
    assert b"Content-Length: %d" % len(body) in response_head
    if status == 200:
        assert json.loads(body)["error"]["code"] == ERR_INVALID_REQUEST


def test_the_drain_ends_after_the_timeout(monkeypatch):
    monkeypatch.setattr(rpc, "REQUEST_TIMEOUT_S", 0.2)
    s = serve(REGISTRY)
    host, port = s.endpoint.split("//")[1].split("/")[0].split(":")
    sock = socket.create_connection((host, int(port)), timeout=5.0)
    try:
        sock.sendall(b"GET /rpc HTTP/1.0\r\n\r\n")
        assert sock.recv(65536).startswith(b"HTTP/1.0 501 ")
        # the connection stays open and silent: close waits for its thread
        closer = threading.Thread(target=s.close)
        closer.start()
        closer.join(5.0)
        assert not closer.is_alive()
    finally:
        sock.close()
        s.close()


def test_the_drain_ends_after_its_byte_limit(monkeypatch):
    monkeypatch.setattr(rpc, "MAX_DRAIN_BYTES", 64 * 1024)
    s = serve(REGISTRY)
    host, port = s.endpoint.split("//")[1].split("/")[0].split(":")
    try:
        with socket.create_connection((host, int(port)), timeout=10.0) as sock:
            sock.sendall(b"GET /rpc HTTP/1.0\r\n\r\n")
            with pytest.raises((BrokenPipeError, ConnectionResetError)):
                for _ in range(64):  # up to 64 MiB, far past the limit
                    sock.sendall(b" " * (1024 * 1024))
        assert_describe_is_answered(s.endpoint)
    finally:
        s.close()
