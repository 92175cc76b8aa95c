"""One node of a valid reply, changed: a proxy reads it or names it.

A valid `describe` reply and a valid reply of each component method get
one change at one node: a key dropped, an unknown key added, or the node
replaced by a value of another JSON type. Each change either leaves the
proxy's step with the result of the unchanged reply, or makes the proxy
raise RemoteProtocolError with code -32003 whose message starts with the
endpoint and names the node's path, or for a key the path of its object.
No other exception escapes, and no message holds Python's own text. The
nodes whose value a codec reads (an rng word, an entry's or a solution's
payload) are not replaced: a value of another JSON type can be a valid
other reply there, and other tests pin their messages.
"""

import builtins
import json
import re

import pytest
from test_boundary_mutations import JSON_TYPE, OTHER_TYPES, mutated, nodes
from test_rpc_client import ONEMAX, REGISTRY, StubServer

from metafold.components import accept_tabu, perturb_bitflip, terminate_iterations
from metafold.env import EnvKey, EnvValue, env_new
from metafold.rpc import (
    ERR_BAD_REPLY, RemoteProtocolError, handle_rpc, remote_accept, remote_evaluate, remote_perturb,
    remote_terminate,
)
from metafold.solutions import BitVector, solution_to_json

START = BitVector.from_string("0110")
OTHER = BitVector.from_string("1011")
ENV = env_new(7).put_many({
    EnvKey("framework", "iteration"): EnvValue.of_int(3),
    EnvKey("tabu", "list"): EnvValue.of_dseq((5,)),
    EnvKey("sa", "temperature"): EnvValue.of_real(1.5),
})

# method -> (a proxy, the payload it is called with, what the step returns)
STEPS = {
    "perturb": (lambda e: remote_perturb(e, "bitflip", {"k": 1}), START, perturb_bitflip(1)(START, ENV)),
    "accept": (lambda e: remote_accept(e, "tabu", {"tenure": 3}), (START, OTHER),
               accept_tabu(3)((START, OTHER), ENV)),
    "evaluate": (lambda e: remote_evaluate(e, "onemax"), START, (2.5, ENV)),
    "terminate": (lambda e: remote_terminate(e, "max_iterations", {"max": 5}), START,
                  terminate_iterations(5)(START, ENV)),
}


def call(method, params):
    request = {"jsonrpc": "2.0", "id": 1, "method": method, "params": params}
    return handle_rpc(REGISTRY, json.dumps(request).encode())


def valid_replies():
    """method -> the response a server sends it: the registry's own reply,
    or for evaluate, which the registry lacks, one written out."""
    env = ENV.to_json()
    replies = {
        "describe": call("describe", {}),
        "perturb": call("perturb", {"component": "bitflip", "params": {"k": 1}, "env": env,
                                    "solution": solution_to_json(START)}),
        "accept": call("accept", {"component": "tabu", "params": {"tenure": 3}, "env": env,
                                  "solutions": [solution_to_json(START), solution_to_json(OTHER)]}),
        "evaluate": {"jsonrpc": "2.0", "id": 1, "result": {"env": env, "value": 2.5}},
        "terminate": call("terminate", {"component": "max_iterations", "params": {"max": 5}, "env": env,
                                        "solution": solution_to_json(START)}),
    }
    assert all("result" in reply for reply in replies.values())
    return replies


REPLIES = valid_replies()
# the nodes whose value a codec reads, with all under them, and the objects whose keys are free
VALUES = ("env.rng.", "env entry.v", "result.solution.v")
MAPS = ("env.entries",)


def name_reply(path):
    """A response is named `response`, its result `result`, the result's
    env `env`, and each entry of the env `env entry`."""
    if not path:
        return "response"
    if path[0] != "result":
        return "response" + "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in path)
    rest, root = path[1:], "result"
    if rest[:1] == ["env"]:
        root, rest = "env", rest[1:]
        if rest[:1] == ["entries"] and len(rest) > 1:
            root, rest = "env entry", rest[2:]
    return root + "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in rest)


def mutations(doc):
    """(path, change, key or new value, the name the message must hold, the
    key's repr it must hold or None) for each one-node change of `doc`."""
    out = []
    for path, node in nodes(doc):
        where = name_reply(path)
        if where.startswith(VALUES):
            continue
        if isinstance(node, dict) and where not in MAPS:
            out.append((path, "add", "zz_unknown", where, "'zz_unknown'"))
            out.extend((path, "drop", key, where, repr(key)) for key in node)
        out.extend((path, "retype", other, where, None)
                   for other in OTHER_TYPES if JSON_TYPE[type(other)] != JSON_TYPE[type(node)])
    return out


CASES = [(method, *m) for method, reply in REPLIES.items() for m in mutations(reply)]
# Python's own text: an exception class's name, or what its message says
PYTHON_TEXT = re.compile(
    r"\b(%s)\b|not subscriptable|indices must be|not supported between|Traceback"
    % "|".join(name for name, obj in vars(builtins).items()
               if isinstance(obj, type) and issubclass(obj, BaseException))
)


@pytest.fixture(scope="module")
def stub():
    s = StubServer()
    yield s
    s.close()


def outcome(stub, method, reply):
    """What the step of `method`'s proxy returns, or raises, when `method`
    (or describe) is answered with `reply`."""
    stub.replies = {method: json.dumps(reply).encode()}
    if method == "evaluate":  # the registry has no evaluate component
        described = {"jsonrpc": "2.0", "id": 1, "result": {"components": [ONEMAX]}}
        stub.replies["describe"] = json.dumps(described).encode()
    try:
        proxy_of, payload, _ = STEPS["perturb" if method == "describe" else method]
        return proxy_of(stub.endpoint)(payload, ENV)
    finally:
        stub.replies = {}


def test_each_valid_reply_yields_its_step(stub):
    for method in REPLIES:
        expected = STEPS["perturb" if method == "describe" else method][2]
        assert outcome(stub, method, REPLIES[method]) == expected, method


def test_the_mutations_reach_every_reply_and_change():
    assert {(method, change) for method, _, change, *_ in CASES} == {
        (m, c) for m in REPLIES for c in ("add", "drop", "retype")
    }
    named = {where for *_, where, _ in CASES}
    for where in ("response", "response.jsonrpc", "result", "result.components[3].params[0].min",
                  "result.components[3].params[0].max",
                  "result.components[9].requires", "result.solution", "result.solution.t",
                  "result.value", "result.flag", "env", "env.rng", "env.entries", "env entry"):
        assert where in named, where


@pytest.mark.parametrize(
    "case", CASES, ids=[f"{m}-{change}-{where}-{i}" for i, (m, _, change, _, where, _) in enumerate(CASES)]
)
def test_one_changed_node_is_read_or_named(stub, case):
    method, path, change, arg, where, key = case
    expected = STEPS["perturb" if method == "describe" else method][2]
    try:
        got = outcome(stub, method, mutated(REPLIES[method], path, change, arg))
    except RemoteProtocolError as exc:
        message = str(exc)
        assert exc.code == ERR_BAD_REPLY, message
        assert message.startswith(f"[{ERR_BAD_REPLY}] {stub.endpoint}: unreadable reply: "), message
        assert where in message, (where, message)
        if key is not None:
            assert key in message, (key, message)
        assert not PYTHON_TEXT.search(message), message
    else:
        assert got == expected


@pytest.mark.parametrize("value", [10**400, -(10**400)])
def test_a_value_no_float_holds_is_an_unreadable_reply(stub, value):
    # a JSON number json reads as an int, which `float` cannot convert
    reply = {"jsonrpc": "2.0", "id": 1, "result": {"env": ENV.to_json(), "value": value}}
    with pytest.raises(RemoteProtocolError) as caught:
        outcome(stub, "evaluate", reply)
    assert caught.value.code == ERR_BAD_REPLY
    assert str(caught.value) == (
        f"[{ERR_BAD_REPLY}] {stub.endpoint}: unreadable reply: "
        "result.value must be a number a float holds, got an integer of 401 digits"
    )
