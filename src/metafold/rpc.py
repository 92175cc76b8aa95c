"""Stateless JSON-RPC tier: component interfaces lifted 1-1 onto HTTP.

The server constructs the named component per request, threads the
deserialized Environment through it, and returns the full Environment in
the response; nothing survives between requests. Client proxies are
ordinary components, so a framework cannot tell local from remote.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Iterator, Optional

from .assembly import Registry, UnknownComponentError
from .components import Component, ComponentDescriptor
from .env import Environment
from .solutions import solution_from_json, solution_to_json

ERR_PARSE = -32700
ERR_INVALID_REQUEST = -32600
ERR_INVALID_PARAMS = -32602
ERR_UNKNOWN_COMPONENT = -32001
ERR_COMPONENT_FAILURE = -32002

# The largest request body the server reads. A call carries one Environment
# and at most two solutions, a few KiB at n=1024; the cap bounds what one
# request can make the server allocate while leaving room for solutions
# thousands of times larger.
MAX_REQUEST_BYTES = 16 * 1024 * 1024


def _pair_from_json(obj):
    incumbent, incoming = obj
    return solution_from_json(incumbent), solution_from_json(incoming)


# The wire table. Each component method is named after the component kind
# it calls and maps to its request field and its reply field, each given as
# (name, to JSON, from JSON). A request's params are {"component",
# "params", "env", <request field>}; its result is {"env", <reply field>}.
_SOLUTION = ("solution", solution_to_json, solution_from_json)
_PAIR = ("solutions", lambda pair: [solution_to_json(s) for s in pair], _pair_from_json)
_METHODS = {
    "perturb": (_SOLUTION, _SOLUTION),
    "accept": (_PAIR, _SOLUTION),
    "evaluate": (_SOLUTION, ("value", float, float)),
    "terminate": (_SOLUTION, ("flag", bool, bool)),
}


class RemoteUnavailableError(Exception):
    pass


class RemoteProtocolError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        super().__init__(f"[{code}] {message}")


def _error(req_id, code, message):
    return {"jsonrpc": "2.0", "id": req_id, "error": {"code": code, "message": message}}


def _result(req_id, payload):
    return {"jsonrpc": "2.0", "id": req_id, "result": payload}


def handle_rpc(registry: Registry, body: bytes) -> dict:
    """Pure request handler: one JSON-RPC request in, one response out."""
    try:
        request = json.loads(body)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
        return _error(None, ERR_PARSE, f"parse error: {exc}")
    if not isinstance(request, dict):
        return _error(None, ERR_INVALID_REQUEST, "request must be a JSON object")
    req_id = request.get("id")
    if not isinstance(req_id, (str, int, float, type(None))):
        return _error(None, ERR_INVALID_REQUEST, "id must be a string, a number or null")
    if request.get("jsonrpc") != "2.0" or "method" not in request:
        return _error(req_id, ERR_INVALID_REQUEST, "not a JSON-RPC 2.0 request")
    method = request["method"]
    if method == "describe":
        return _result(req_id, registry.to_json())
    if not isinstance(method, str) or method not in _METHODS:
        return _error(req_id, ERR_INVALID_REQUEST, f"unknown method {method!r}")
    (in_name, _, decode_in), (out_name, encode_out, _) = _METHODS[method]
    params = request.get("params")
    if not isinstance(params, dict):
        return _error(req_id, ERR_INVALID_PARAMS, "params must be an object")
    name = params.get("component")
    try:
        env = Environment.from_json(params["env"])
        payload = decode_in(params[in_name])
    except Exception as exc:
        return _error(req_id, ERR_INVALID_PARAMS, f"malformed params: {exc}")
    try:
        component = registry.build(method, name, params.get("params", {}))
    except UnknownComponentError as exc:
        return _error(req_id, ERR_UNKNOWN_COMPONENT, str(exc))
    except Exception as exc:
        return _error(req_id, ERR_INVALID_PARAMS, f"malformed params: {exc}")
    try:
        out, env = component(payload, env)
        result = {"env": env.to_json(), out_name: encode_out(out)}
    except Exception as exc:
        return _error(req_id, ERR_COMPONENT_FAILURE, f"{name}: {exc}")
    return _result(req_id, result)


class RpcServer:
    """Background HTTP server hosting a registry at POST /rpc."""

    def __init__(self, registry: Registry, host: str = "127.0.0.1", port: int = 0):
        reg = registry

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):  # noqa: N802 (http.server naming)
                if self.path != "/rpc":
                    self.send_error(404)
                    return
                length = self.headers.get("Content-Length", "")
                if length.isascii() and length.isdigit() and int(length) <= MAX_REQUEST_BYTES:
                    response = handle_rpc(reg, self.rfile.read(int(length)))
                else:  # the body is left unread
                    response = _error(
                        None, ERR_INVALID_REQUEST,
                        f"Content-Length must be an integer in [0, {MAX_REQUEST_BYTES}]",
                    )
                data = json.dumps(response).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()

    @property
    def endpoint(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}/rpc"

    def serve_forever(self):
        self._thread.join()

    def close(self):
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join()


def serve(registry: Registry, host: str = "127.0.0.1", port: int = 0) -> RpcServer:
    if not registry.descriptors:
        raise ValueError("registry is empty")
    return RpcServer(registry, host, port)


def _post(endpoint: str, request: dict, retries: int = 2, backoff: float = 0.1) -> dict:
    data = json.dumps(request).encode("utf-8")
    attempt = 0
    while True:
        try:
            req = urllib.request.Request(
                endpoint, data=data, headers={"Content-Type": "application/json"}
            )
            with urllib.request.urlopen(req, timeout=30) as resp:
                response = json.loads(resp.read())
            break
        except (urllib.error.URLError, OSError) as exc:
            if attempt >= retries:
                raise RemoteUnavailableError(f"{endpoint}: {exc}") from exc
            attempt += 1
            time.sleep(backoff)
    if "error" in response:
        err = response["error"]
        raise RemoteProtocolError(err.get("code", 0), err.get("message", ""))
    return response["result"]


def _fetch_descriptor(endpoint: str, kind: str, name: str, ids: Iterator[int]):
    result = _post(endpoint, {"jsonrpc": "2.0", "id": next(ids), "method": "describe"})
    for obj in result["components"]:
        if obj["kind"] == kind and obj["name"] == name:
            return ComponentDescriptor.from_json(obj)
    raise UnknownComponentError(f"no {kind} component named {name!r} at {endpoint}")


def _remote(endpoint: str, method: str, name: str, params: Optional[Dict]) -> Component:
    ids = itertools.count(1)  # no lock: replies are never matched by id
    descriptor = _fetch_descriptor(endpoint, method, name, ids)
    bindings = dict(params or {})
    (in_name, encode_in, _), (out_name, _, decode_out) = _METHODS[method]

    def step(payload, env):
        req_params = {"component": name, "params": bindings, "env": env.to_json()}
        req_params[in_name] = encode_in(payload)
        result = _post(
            endpoint,
            {"jsonrpc": "2.0", "id": next(ids), "method": method, "params": req_params},
        )
        env = Environment.from_json(result["env"])
        return decode_out(result[out_name]), env

    return Component(descriptor, step)


def remote_perturb(endpoint: str, component: str, params: Optional[Dict] = None) -> Component:
    return _remote(endpoint, "perturb", component, params)


def remote_accept(endpoint: str, component: str, params: Optional[Dict] = None) -> Component:
    return _remote(endpoint, "accept", component, params)


def remote_evaluate(endpoint: str, component: str, params: Optional[Dict] = None) -> Component:
    return _remote(endpoint, "evaluate", component, params)


def remote_terminate(endpoint: str, component: str, params: Optional[Dict] = None) -> Component:
    return _remote(endpoint, "terminate", component, params)
