"""The RPC client's boundary: a proxy raises RemoteProtocolError, never a
JSON, lookup or type error, for any reply it cannot read."""

import json
import os
import subprocess
import sys
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from metafold import rpc
from metafold.components import perturb_bitflip
from metafold.env import env_new
from metafold.palette import default_registry
from metafold.rpc import (
    BACKOFF_S,
    ERR_BAD_REPLY,
    ERR_COMPONENT_FAILURE,
    RemoteProtocolError,
    handle_rpc,
    remote_evaluate,
    remote_perturb,
    remote_terminate,
    serve,
)
from metafold.solutions import BitVector, solution_to_json

REGISTRY = default_registry()
SOLUTION = BitVector.from_string("0101")
EXPECTED = perturb_bitflip(1)(SOLUTION, env_new(3))


class StubServer:
    """Answers every POST with status 200: a method named in `replies`
    gets those bytes, any other the registry's true reply."""

    def __init__(self):
        self.replies = {}
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):  # noqa: N802 (http.server naming)
                body = self.rfile.read(int(self.headers["Content-Length"]))
                data = stub.replies.get(json.loads(body)["method"])
                if data is None:
                    data = json.dumps(handle_rpc(REGISTRY, body)).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)
        self.thread.start()
        host, port = self.httpd.server_address[:2]
        self.endpoint = f"http://{host}:{port}/rpc"

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join()


@pytest.fixture(scope="module")
def stub():
    s = StubServer()
    yield s
    s.close()


@pytest.fixture
def proxy(stub):
    stub.replies = {}
    yield remote_perturb(stub.endpoint, "bitflip", {"k": 1})
    stub.replies = {}


def reply(**fields) -> bytes:
    return json.dumps({"jsonrpc": "2.0", "id": 1, **fields}).encode()


def result_without(field) -> bytes:
    out, env = EXPECTED
    result = {"solution": solution_to_json(out), "env": env.to_json()}
    del result[field]
    return reply(result=result)


UNREADABLE = {
    "not JSON": b"<html>bad gateway</html>",
    "not UTF-8": b"\x80abc",
    "neither result nor error": reply(),
    "error is a string": reply(error="boom"),
    "error without a message": reply(error={"code": 5}),
    "a list": b"[1, 2]",
    "a number": b"7",
    "result without env": result_without("env"),
    "result without solution": result_without("solution"),
    "result is a list": reply(result=[1]),
    "env is a number": reply(result={"env": 3, "solution": solution_to_json(SOLUTION)}),
    "perm of floats": reply(result={"env": EXPECTED[1].to_json(), "solution": {"t": "perm", "v": [0.7, 1]}}),
    "perm of booleans": reply(result={"env": EXPECTED[1].to_json(), "solution": {"t": "perm", "v": [True, False]}}),
    "real of strings": reply(result={"env": EXPECTED[1].to_json(), "solution": {"t": "real", "v": ["1.5"]}}),
}


def test_the_stub_relays_a_true_reply(proxy):
    assert proxy(SOLUTION, env_new(3)) == EXPECTED


@pytest.mark.parametrize("data", UNREADABLE.values(), ids=UNREADABLE.keys())
def test_an_unreadable_reply_is_a_protocol_error(stub, proxy, data):
    stub.replies = {"perturb": data}
    with pytest.raises(RemoteProtocolError) as caught:
        proxy(SOLUTION, env_new(3))
    assert caught.value.code == ERR_BAD_REPLY
    assert stub.endpoint in str(caught.value)


def test_an_error_reply_keeps_its_code_and_message(stub, proxy):
    stub.replies = {
        "perturb": reply(error={"code": ERR_COMPONENT_FAILURE, "message": "bitflip: broke"})
    }
    with pytest.raises(RemoteProtocolError, match=r"^\[-32002\] bitflip: broke$") as caught:
        proxy(SOLUTION, env_new(3))
    assert caught.value.code == ERR_COMPONENT_FAILURE


@pytest.mark.parametrize(
    "data",
    [b"not JSON", reply(result={}), reply(result={"components": [{"kind": "perturb"}]})],
    ids=["not JSON", "no components", "a component without a name"],
)
def test_an_unreadable_describe_reply_is_a_protocol_error(stub, data):
    stub.replies = {"describe": data}
    try:
        with pytest.raises(RemoteProtocolError) as caught:
            remote_perturb(stub.endpoint, "bitflip")
    finally:
        stub.replies = {}
    assert caught.value.code == ERR_BAD_REPLY


# The default registry has no evaluate component, so the stub describes one.
ONEMAX = {"name": "onemax", "kind": "evaluate", "params": [], "requires": [], "provides": []}


@pytest.mark.parametrize(
    "method, field, wrong",
    [
        ("terminate", "flag", "no"),
        ("terminate", "flag", 1),
        ("evaluate", "value", "1e3"),
        ("evaluate", "value", True),
        # json.dumps writes these as NaN, Infinity and -Infinity, which are no JSON
        ("evaluate", "value", float("nan")),
        ("evaluate", "value", float("inf")),
        ("evaluate", "value", float("-inf")),
    ],
)
def test_a_reply_field_of_the_wrong_json_type_is_a_protocol_error(stub, method, field, wrong):
    stub.replies = {method: reply(result={"env": env_new(3).to_json(), field: wrong})}
    if method == "evaluate":
        stub.replies["describe"] = reply(result={"components": [ONEMAX]})
    try:
        proxy = (remote_evaluate(stub.endpoint, "onemax") if method == "evaluate"
                 else remote_terminate(stub.endpoint, "max_iterations"))
        with pytest.raises(RemoteProtocolError) as caught:
            proxy(SOLUTION, env_new(3))
    finally:
        stub.replies = {}
    assert caught.value.code == ERR_BAD_REPLY


@pytest.mark.parametrize("value", [1000, 2.5, 0])
def test_an_int_or_float_value_is_read_as_a_float(stub, value):
    stub.replies = {
        "describe": reply(result={"components": [ONEMAX]}),
        "evaluate": reply(result={"env": env_new(3).to_json(), "value": value}),
    }
    try:
        out, env = remote_evaluate(stub.endpoint, "onemax")(SOLUTION, env_new(3))
    finally:
        stub.replies = {}
    assert type(out) is float and out == value and env == env_new(3)


@pytest.mark.parametrize("flag", [True, False])
def test_a_boolean_flag_is_read_as_itself(stub, flag):
    stub.replies = {"terminate": reply(result={"env": env_new(3).to_json(), "flag": flag})}
    try:
        out, _ = remote_terminate(stub.endpoint, "max_iterations")(SOLUTION, env_new(3))
    finally:
        stub.replies = {}
    assert out is flag


def test_an_http_error_status_is_a_protocol_error_at_once(monkeypatch):
    attempts = []
    urlopen = urllib.request.urlopen

    def counting(*args, **kwargs):
        attempts.append(args[0].full_url)
        return urlopen(*args, **kwargs)

    monkeypatch.setattr(urllib.request, "urlopen", counting)
    server = serve(REGISTRY)
    try:
        endpoint = server.endpoint.replace("/rpc", "/rcp")
        started = time.monotonic()
        with pytest.raises(RemoteProtocolError) as caught:
            remote_perturb(endpoint, "bitflip")
        took = time.monotonic() - started
    finally:
        server.close()
    assert caught.value.code == ERR_BAD_REPLY
    assert str(caught.value) == f"[{ERR_BAD_REPLY}] {endpoint}: HTTP status 404"
    assert attempts == [endpoint] and took < BACKOFF_S


def test_importing_the_rpc_module_leaves_the_http_client_unloaded():
    # only a proxy's call needs urllib.request, and with it http.client
    src = str(Path(rpc.__file__).resolve().parent.parent)
    code = (
        "import sys, metafold.rpc; "
        "print(sorted(m for m in ('urllib.request', 'http.client') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
