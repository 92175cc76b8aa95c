"""Stateless JSON-RPC tier: component interfaces lifted 1-1 onto HTTP.

The server constructs the named component per request, threads the
deserialized Environment through it, and returns the full Environment in
the response; nothing survives between requests. Client proxies are
ordinary components, so a framework cannot tell local from remote.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional

from .assembly import Registry, UnknownComponentError
from .components import Component, ComponentDescriptor
from .env import Environment
from .solutions import solution_from_json, solution_to_json

ERR_PARSE = -32700
ERR_INVALID_REQUEST = -32600
ERR_INVALID_PARAMS = -32602
ERR_UNKNOWN_COMPONENT = -32001
ERR_COMPONENT_FAILURE = -32002

# Each component method is named after the component kind it calls.
_METHODS = ("perturb", "accept", "evaluate", "terminate")


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
    except json.JSONDecodeError as exc:
        return _error(None, ERR_PARSE, f"parse error: {exc}")
    if not isinstance(request, dict):
        return _error(None, ERR_INVALID_REQUEST, "request must be a JSON object")
    req_id = request.get("id")
    if request.get("jsonrpc") != "2.0" or "method" not in request:
        return _error(req_id, ERR_INVALID_REQUEST, "not a JSON-RPC 2.0 request")
    method = request["method"]
    if method == "describe":
        return _result(req_id, registry.to_json())
    if method not in _METHODS:
        return _error(req_id, ERR_INVALID_REQUEST, f"unknown method {method!r}")
    params = request.get("params")
    if not isinstance(params, dict):
        return _error(req_id, ERR_INVALID_PARAMS, "params must be an object")
    name = params.get("component")
    try:
        env = Environment.from_json(params["env"])
        if method == "accept":
            incumbent, incoming = params["solutions"]
            payload = (solution_from_json(incumbent), solution_from_json(incoming))
        else:
            payload = solution_from_json(params["solution"])
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
    except Exception as exc:
        return _error(req_id, ERR_COMPONENT_FAILURE, f"{name}: {exc}")
    result: Dict = {"env": env.to_json()}
    if method in ("perturb", "accept"):
        result["solution"] = solution_to_json(out)
    elif method == "evaluate":
        result["value"] = out
    else:
        result["flag"] = bool(out)
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
                length = int(self.headers.get("Content-Length", 0))
                response = handle_rpc(reg, self.rfile.read(length))
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


class _RequestIds:
    def __init__(self):
        self._next = 0
        self._lock = threading.Lock()

    def take(self) -> int:
        with self._lock:
            self._next += 1
            return self._next


def _fetch_descriptor(endpoint: str, kind: str, name: str, ids: _RequestIds):
    result = _post(endpoint, {"jsonrpc": "2.0", "id": ids.take(), "method": "describe"})
    for obj in result["components"]:
        if obj["kind"] == kind and obj["name"] == name:
            return ComponentDescriptor.from_json(obj)
    raise UnknownComponentError(f"no {kind} component named {name!r} at {endpoint}")


def _remote(endpoint: str, method: str, name: str, params: Optional[Dict]) -> Component:
    ids = _RequestIds()
    descriptor = _fetch_descriptor(endpoint, method, name, ids)
    bindings = dict(params or {})

    def step(payload, env):
        req_params: Dict = {"component": name, "params": bindings, "env": env.to_json()}
        if method == "accept":
            incumbent, incoming = payload
            req_params["solutions"] = [
                solution_to_json(incumbent),
                solution_to_json(incoming),
            ]
        else:
            req_params["solution"] = solution_to_json(payload)
        result = _post(
            endpoint,
            {"jsonrpc": "2.0", "id": ids.take(), "method": method, "params": req_params},
        )
        env = Environment.from_json(result["env"])
        if method in ("perturb", "accept"):
            return solution_from_json(result["solution"]), env
        if method == "evaluate":
            return float(result["value"]), env
        return bool(result["flag"]), env

    return Component(descriptor, step)


def remote_perturb(endpoint: str, component: str, params: Optional[Dict] = None) -> Component:
    return _remote(endpoint, "perturb", component, params)


def remote_accept(endpoint: str, component: str, params: Optional[Dict] = None) -> Component:
    return _remote(endpoint, "accept", component, params)


def remote_evaluate(endpoint: str, component: str, params: Optional[Dict] = None) -> Component:
    return _remote(endpoint, "evaluate", component, params)


def remote_terminate(endpoint: str, component: str, params: Optional[Dict] = None) -> Component:
    return _remote(endpoint, "terminate", component, params)
