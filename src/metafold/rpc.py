"""Stateless JSON-RPC tier: component interfaces lifted 1-1 onto HTTP.

The server constructs the named component per request, threads the
deserialized Environment through it, and returns the full Environment in
the response; nothing survives between requests. Client proxies are
ordinary components, so a framework cannot tell local from remote.

The server reads the subset of HTTP/1.x (RFC 9112) that a proxy sends: one
`POST /rpc` per connection, its body framed by `Content-Length`. It reads
the request head itself and answers with HTTP/1.0 in one write, then closes
the connection. A request it cannot serve gets a bare status: 400 for a
malformed request line or header line, 404 for another target, 414 or 431
for a line or a head too long, and 501 for another method. After replying
to a request it did not read to its end (a bare status, or a body that
`Content-Length` does not frame within MAX_REQUEST_BYTES), it reads and
discards what the client still sends before closing, within bounds, so
the client can read the reply.

The HTTP server itself, which serves each connection on a thread of its
own, is in `_rpc_server`. `serve` loads it on its first call and
`RpcServer` names its class, so a client that imports this module for its
proxies loads neither the server nor urllib until it calls.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import time
from typing import Dict, Optional, Tuple

from .assembly import Registry, UnknownComponentError
from .components import _DESCRIPTOR, Component, ComponentDescriptor
from .env import Environment, ShapeError, loads, read, unknown_key
from .solutions import _SOLUTION_SHAPE, solution_from_json, solution_to_json

ERR_PARSE = -32700
ERR_INVALID_REQUEST = -32600
ERR_INVALID_PARAMS = -32602
ERR_UNKNOWN_COMPONENT = -32001
ERR_COMPONENT_FAILURE = -32002
ERR_BAD_REPLY = -32003  # a client's own, for a reply it cannot read; never sent

# The largest request body the server reads. A call carries one Environment
# and at most two solutions, a few KiB at n=1024; the cap bounds what one
# request can make the server allocate while leaving room for solutions
# thousands of times larger.
MAX_REQUEST_BYTES = 16 * 1024 * 1024

# Seconds a server thread waits on one read or write of a connection. A
# client sends its whole request at once, so a body shorter than its
# Content-Length would otherwise hold the thread until the client leaves;
# a wait this long only ends such a stalled request.
REQUEST_TIMEOUT_S = 10.0

# The most bytes a server thread reads and discards, after its reply, from
# a request it did not read to its end, such as a body over
# MAX_REQUEST_BYTES: a connection closed with request bytes unread is
# reset, and the reset can discard the reply before the client reads it.
# REQUEST_TIMEOUT_S bounds the drain's time in all.
MAX_DRAIN_BYTES = 4 * MAX_REQUEST_BYTES

# The longest request line or header line the server reads, its line break
# included, and the most header lines it reads; http.server's limits.
MAX_LINE_BYTES = 65536
MAX_HEADER_LINES = 100

# A proxy call whose connection fails is retried this many times, this
# many seconds apart, before it raises RemoteUnavailableError.
RETRIES = 2
BACKOFF_S = 0.1


def _not_json(token):
    raise ValueError(f"{token} is not JSON")


# NaN and ±Infinity are no JSON (RFC 8259), so a request or a reply holding
# one is unreadable. One decoder for all bodies (json.loads builds one per
# hooked call).
_DECODER = json.JSONDecoder(parse_constant=_not_json)


def _loads(body: bytes):
    """`body` decoded as json.loads decodes bytes, but by `_DECODER`."""
    return loads(body.decode(json.detect_encoding(body), "surrogatepass"), _DECODER.decode)


def _pair_from_json(obj):
    if len(obj) != 2:
        raise ValueError(f"params.solutions must hold two solutions, not {len(obj)}")
    incumbent, incoming = obj
    return solution_from_json(incumbent), solution_from_json(incoming)


def _value_from_json(value) -> float:
    """An evaluate reply's value, a JSON number, as a float."""
    try:
        return float(value)
    except OverflowError:  # an int past the largest float
        raise ShapeError(
            f"result.value must be a number a float holds, got an integer of {len(str(abs(value)))} digits"
        ) from None


# The wire table. Each component method is named after the component kind
# it calls and maps to its request field and its reply field, each given as
# (name, shape, to JSON, from JSON), the shape as `read` takes it. A
# request's params are {"component", "params", "env", <request field>}; its
# result is {"env", <reply field>}. A reply's value must be a JSON number
# and its flag a JSON boolean; no other JSON type is read as one.
_SOLUTION = ("solution", _SOLUTION_SHAPE, solution_to_json, solution_from_json)
_PAIR = ("solutions", ("array of", _SOLUTION_SHAPE),
         lambda pair: list(map(solution_to_json, pair)), _pair_from_json)
_METHODS = {
    "perturb": (_SOLUTION, _SOLUTION),
    "accept": (_PAIR, _SOLUTION),
    "evaluate": (_SOLUTION, ("value", "number", float, _value_from_json)),
    "terminate": (_SOLUTION, ("flag", "boolean", bool, bool)),
}
# method -> the shape of its params and of its result, closed: the env is
# read by Environment.from_json, a solution's payload by its
# representation, the component's params by its Params, and a described
# component by ComponentDescriptor.from_json
_CALL = {"component": "string", "params": ("optional", "object"), "env": "any"}
_PARAMS = {method: {**_CALL, name: shape} for method, ((name, shape, _, _), _) in _METHODS.items()}
_RESULTS = {
    "describe": {"components": ("array of", _DESCRIPTOR)},
    **{method: {"env": "any", name: shape} for method, (_, (name, shape, _, _)) in _METHODS.items()},
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


# A response, as `read` takes it; it holds one of result and error
# (JSON-RPC 2.0 §5).
_RESPONSE = {
    "jsonrpc": "string", "id": "any", "result": ("optional", "any"),
    "error": ("optional", {"code": "integer", "message": "string", "data": ("optional", "any")}),
}
# The members a request may hold; any other is refused, as is a member of a
# component method's params that its shape in `_PARAMS` lacks, so a
# misspelt key is never ignored.
_REQUEST_MEMBERS = frozenset(("jsonrpc", "id", "method", "params"))


def handle_rpc(registry: Registry, body: bytes) -> dict:
    """Pure request handler: one JSON-RPC request in, one response out."""
    try:
        request = _loads(body)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
        return _error(None, ERR_PARSE, f"parse error: {exc}")
    if not isinstance(request, dict):
        return _error(None, ERR_INVALID_REQUEST, "request must be a JSON object")
    req_id = request.get("id")
    # a bool is no JSON number; 1e999 reads as inf, which no JSON reply can carry
    if not (type(req_id) in (str, int, type(None)) or type(req_id) is float and math.isfinite(req_id)):
        return _error(None, ERR_INVALID_REQUEST, "id must be a string, a finite number or null")
    if request.get("jsonrpc") != "2.0" or "method" not in request:
        return _error(req_id, ERR_INVALID_REQUEST, "not a JSON-RPC 2.0 request")
    unknown = unknown_key(request, _REQUEST_MEMBERS)
    if unknown is not None:
        return _error(req_id, ERR_INVALID_REQUEST, f"unknown request member {unknown!r}")
    method = request["method"]
    if method == "describe":
        params = request.get("params", {})
        if params in ({}, []):
            return _result(req_id, registry.to_json())
        named = f"; got {next(iter(params))!r}" if isinstance(params, dict) else ""
        return _error(req_id, ERR_INVALID_PARAMS, f"describe takes no params{named}")
    if not isinstance(method, str) or method not in _METHODS:
        return _error(req_id, ERR_INVALID_REQUEST, f"unknown method {method!r}")
    (in_name, _, _, decode_in), (out_name, _, encode_out, _) = _METHODS[method]
    params, shape = request.get("params"), _PARAMS[method]
    unknown = unknown_key(params, shape) if type(params) is dict else None
    if unknown is not None:
        return _error(req_id, ERR_INVALID_PARAMS, f"unknown params member {unknown!r}")
    try:
        read(params, shape, "params")
        env = Environment.from_json(params["env"])
        payload = decode_in(params[in_name])
    except Exception as exc:
        return _error(req_id, ERR_INVALID_PARAMS, f"malformed params: {exc}")
    name = params["component"]
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
        # a built-in's own error starts with its name already; an alias's does not
        message, named = str(exc), f"{name}: "
        if not message.startswith(named):
            message = named + message
        return _error(req_id, ERR_COMPONENT_FAILURE, message)
    return _result(req_id, result)


_REPLY_HEAD = b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n"
# The phrases are http.HTTPStatus's of Python 3.10-3.12, written out so that
# no client loads the http package for them and the bytes do not vary with
# the interpreter (3.13 renamed 414 "URI Too Long").
_BARE = {
    status: b"HTTP/1.0 %d %s\r\nContent-Length: 0\r\n\r\n" % (status, phrase)
    for status, phrase in (
        (400, b"Bad Request"), (404, b"Not Found"), (414, b"Request-URI Too Long"),
        (431, b"Request Header Fields Too Large"), (501, b"Not Implemented"),
    )
}
_VERSION = re.compile(rb"HTTP/1\.[0-9]+")
_BLANK = (b"\r\n", b"\n")  # a bare LF ends a line too (RFC 9112 §2.2)


def _answer(registry: Registry, rfile) -> Tuple[Optional[bytes], bool]:
    """The reply to the one request that `rfile` holds, head and body, or
    None if the client closed before the end of the head; and whether bytes
    of the request may be left unread."""
    line = rfile.readline(MAX_LINE_BYTES + 1)
    if len(line) > MAX_LINE_BYTES:
        return _BARE[414], True
    if not line.endswith(b"\n"):
        return None, False
    request_line = line.split()
    if len(request_line) != 3 or not _VERSION.fullmatch(request_line[2]):
        return _BARE[400], True
    lengths = set()
    for count in range(MAX_HEADER_LINES + 1):
        line = rfile.readline(MAX_LINE_BYTES + 1)
        if line in _BLANK:
            break
        if len(line) > MAX_LINE_BYTES:
            return _BARE[431], True
        if not line.endswith(b"\n"):
            return None, False
        if count == MAX_HEADER_LINES:
            return _BARE[431], True
        name, colon, value = line.partition(b":")
        # no colon, no name, or whitespace around the name: a line folded
        # onto the one before it, too (RFC 9112 §5)
        if not colon or not name or name != name.strip():
            return _BARE[400], True
        if name.lower() == b"content-length":
            lengths.add(value.strip())
    method, target, _ = request_line
    if method != b"POST":
        return _BARE[501], True
    if target != b"/rpc":
        return _BARE[404], True
    # two Content-Length values that differ frame no body (RFC 9112 §6.3)
    length = lengths.pop() if len(lengths) == 1 else b""
    digits = length.lstrip(b"0")  # int() reads no more than 4300 digits
    size = int(digits or b"0") if length.isdigit() and len(digits) < 10 else -1
    framed = 0 <= size <= MAX_REQUEST_BYTES
    if framed:
        response = handle_rpc(registry, rfile.read(size))
    else:  # the body is left unread
        response = _error(
            None, ERR_INVALID_REQUEST, f"Content-Length must be an integer in [0, {MAX_REQUEST_BYTES}]"
        )
    data = json.dumps(response).encode("utf-8")
    return _REPLY_HEAD % len(data) + data, not framed


def serve(registry: Registry, host: str = "127.0.0.1", port: int = 0):
    """A running `RpcServer` hosting `registry` at POST /rpc on `host`:`port`
    (0 picks a free port)."""
    if not registry.descriptors:
        raise ValueError("registry is empty")
    from ._rpc_server import RpcServer

    return RpcServer(registry, host, port)


def __getattr__(name: str):
    # PEP 562: `RpcServer` loads the server module only when it is named
    if name == "RpcServer":
        from ._rpc_server import RpcServer

        return RpcServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _post(endpoint: str, request: dict, decode):
    """`decode` of the result of `request` at `endpoint`, read against its
    method's shape in `_RESULTS`. Raises RemoteUnavailableError if it cannot
    be reached, RemoteProtocolError for an error or unreadable reply."""
    import urllib.error  # here: it and urllib.request bring in http.client and ssl
    import urllib.request
    req = urllib.request.Request(
        endpoint, json.dumps(request).encode("utf-8"), {"Content-Type": "application/json"}
    )
    for attempt in range(RETRIES + 1):
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                body = resp.read()
            break
        except urllib.error.HTTPError as exc:  # a reply, so no retry
            exc.close()
            raise RemoteProtocolError(ERR_BAD_REPLY, f"{endpoint}: HTTP status {exc.code}") from exc
        except (urllib.error.URLError, OSError) as exc:
            if attempt == RETRIES:
                raise RemoteUnavailableError(f"{endpoint}: {exc}") from exc
            time.sleep(BACKOFF_S)
    try:
        response = read(_loads(body), _RESPONSE, "response")
        if ("result" in response) == ("error" in response):
            raise ShapeError("response must hold one of 'result' and 'error'")
        if "result" in response:
            return decode(read(response["result"], _RESULTS[request["method"]], "result"))
        code, message = response["error"]["code"], response["error"]["message"]
    # not JSON, too deep, or a part not of its shape or refused by its codec
    except (ValueError, RecursionError) as exc:
        raise RemoteProtocolError(ERR_BAD_REPLY, f"{endpoint}: unreadable reply: {exc}") from exc
    raise RemoteProtocolError(code, message)


def _remote(endpoint: str, method: str, name: str, params: Optional[Dict]) -> Component:
    ids = itertools.count(1)  # no lock: replies are never matched by id
    descriptor = _post(
        endpoint, {"jsonrpc": "2.0", "id": next(ids), "method": "describe"},
        lambda result: next((
            ComponentDescriptor.from_json(obj, f"result.components[{i}]")
            for i, obj in enumerate(result["components"])
            if obj["kind"] == method and obj["name"] == name
        ), None),
    )
    if descriptor is None:
        raise UnknownComponentError(f"no {method} component named {name!r} at {endpoint}")
    bindings = dict(params or {})
    (in_name, _, encode_in, _), (out_name, _, _, decode_out) = _METHODS[method]

    def decode(result):
        return decode_out(result[out_name]), Environment.from_json(result["env"])

    def step(payload, env):
        req_params = {"component": name, "params": bindings, "env": env.to_json()}
        req_params[in_name] = encode_in(payload)
        request = {"jsonrpc": "2.0", "id": next(ids), "method": method, "params": req_params}
        return _post(endpoint, request, decode)

    return Component(descriptor, step)


def remote_perturb(endpoint: str, component: str, params: Optional[Dict] = None) -> Component:
    return _remote(endpoint, "perturb", component, params)


def remote_accept(endpoint: str, component: str, params: Optional[Dict] = None) -> Component:
    return _remote(endpoint, "accept", component, params)


def remote_evaluate(endpoint: str, component: str, params: Optional[Dict] = None) -> Component:
    return _remote(endpoint, "evaluate", component, params)


def remote_terminate(endpoint: str, component: str, params: Optional[Dict] = None) -> Component:
    return _remote(endpoint, "terminate", component, params)
