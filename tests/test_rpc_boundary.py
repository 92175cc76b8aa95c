"""The RPC tier's boundary: a JSON-RPC error, never a traceback or a
dropped connection, for any body or Content-Length."""

import json
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metafold.env import env_new
from metafold.palette import default_registry
from metafold.rpc import ERR_INVALID_REQUEST, ERR_PARSE, MAX_REQUEST_BYTES, handle_rpc, serve
from metafold.solutions import BitVector, solution_to_json

REGISTRY = default_registry()


@pytest.fixture(scope="module")
def server():
    s = serve(REGISTRY)
    yield s
    s.close()


def assert_well_formed(response):
    """One JSON-RPC 2.0 response object that the server can encode."""
    json.dumps(response)
    assert response["jsonrpc"] == "2.0"
    assert "id" in response
    assert isinstance(response["id"], (str, int, float, type(None)))
    assert ("result" in response) != ("error" in response)
    assert set(response) == {"jsonrpc", "id", "result" if "result" in response else "error"}
    if "error" in response:
        error = response["error"]
        assert isinstance(error["code"], int) and isinstance(error["message"], str)


@pytest.mark.parametrize(
    "body", [b"\x80abc", b"[" * 100000, b'{"a": ' * 5000, b"", b"1" * 5000]
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
