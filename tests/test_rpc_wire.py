"""The RPC tier's wire format: the exact bytes each component method's
proxy posts and the server answers, recorded as literals."""

import io
import json
import urllib.request

import pytest

from metafold.assembly import register
from metafold.components import K_INCOMING_VALUE, K_INCUMBENT_VALUE, K_ITERATION
from metafold.env import EnvValue, env_new
from metafold.palette import default_registry
from metafold.problems import onemax
from metafold.rpc import (
    handle_rpc,
    remote_accept,
    remote_evaluate,
    remote_perturb,
    remote_terminate,
    serve,
)
from metafold.solutions import BitVector

ONEMAX4 = onemax(4).evaluate
REGISTRY = register(default_registry(), ONEMAX4.descriptor, lambda bindings: ONEMAX4)


@pytest.fixture(scope="module")
def server():
    s = serve(REGISTRY)
    yield s
    s.close()


ENV = (
    '"env": {"rng": {"seed": "3", "counter": "%s"}, "entries": '
    '{"framework.incumbent_value": {"t": "real", "v": 2.0}, '
    '"framework.incoming_value": {"t": "real", "v": 1.0}, '
    '"framework.iteration": {"t": "int", "v": 5}}}'
)


def request_bytes(method, component, params, field):
    return (
        '{"jsonrpc": "2.0", "id": 2, "method": "%s", "params": {"component": "%s", '
        '"params": %s, %s, %s}}' % (method, component, params, ENV % 0, field)
    ).encode()


def reply_bytes(counter, field):
    return ('{"jsonrpc": "2.0", "id": 2, "result": {%s, %s}}' % (ENV % counter, field)).encode()


SOLUTION = '"solution": {"t": "bits", "v": "0110"}'

# (proxy, component, bindings, its input, request bytes, reply bytes, output,
# RNG counter after the call)
WIRE = [
    (
        remote_perturb, "bitflip", {"k": 2}, BitVector.from_string("0110"),
        request_bytes("perturb", "bitflip", '{"k": 2}', SOLUTION),
        reply_bytes(4, '"solution": {"t": "bits", "v": "0011"}'),
        BitVector.from_string("0011"), 4,
    ),
    (
        remote_accept, "improving", None,
        (BitVector.from_string("0110"), BitVector.from_string("1110")),
        request_bytes(
            "accept", "improving", "{}",
            '"solutions": [{"t": "bits", "v": "0110"}, {"t": "bits", "v": "1110"}]',
        ),
        reply_bytes(0, '"solution": {"t": "bits", "v": "1110"}'),
        BitVector.from_string("1110"), 0,
    ),
    (
        remote_evaluate, "onemax", None, BitVector.from_string("0110"),
        request_bytes("evaluate", "onemax", "{}", SOLUTION),
        reply_bytes(0, '"value": 2.0'),
        2.0, 0,
    ),
    (
        remote_terminate, "max_iterations", {"max": 5}, BitVector.from_string("0110"),
        request_bytes("terminate", "max_iterations", '{"max": 5}', SOLUTION),
        reply_bytes(0, '"flag": true'),
        True, 0,
    ),
]


@pytest.mark.parametrize(
    "proxy, component, bindings, payload, sent, answer, out, counter",
    WIRE,
    ids=[w[0].__name__ for w in WIRE],
)
def test_each_method_exchanges_the_pinned_bytes(
    server, monkeypatch, proxy, component, bindings, payload, sent, answer, out, counter
):
    exchanges = []
    urlopen = urllib.request.urlopen

    def recording(req, *args, **kwargs):
        with urlopen(req, *args, **kwargs) as resp:
            body = resp.read()
        exchanges.append((req.data, body))
        return io.BytesIO(body)

    monkeypatch.setattr(urllib.request, "urlopen", recording)
    env = (
        env_new(3)
        .put(K_INCUMBENT_VALUE, EnvValue.of_real(2.0))
        .put(K_INCOMING_VALUE, EnvValue.of_real(1.0))
        .put(K_ITERATION, EnvValue.of_int(5))
    )
    got, got_env = proxy(server.endpoint, component, bindings)(payload, env)
    describe, call = exchanges
    assert describe[0] == b'{"jsonrpc": "2.0", "id": 1, "method": "describe"}'
    assert call == (sent, answer)
    assert got == out and type(got) is type(out)
    assert got_env.rng.counter == counter
    assert json.dumps(handle_rpc(REGISTRY, sent)).encode() == answer
