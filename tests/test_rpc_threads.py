"""The RPC server's thread model: each connection is served at once on a
thread of its own, a thread whose request is done serves a later
connection, and `close` ends every thread it started."""

import json
import socket
import struct
import sys
import threading
import time

from test_rpc_boundary import DESCRIBE, open_short_body, raw_post

from metafold import rpc
from metafold.assembly import Registry, register
from metafold.components import Component, perturb_bitflip
from metafold.env import env_new
from metafold.rpc import serve
from metafold.solutions import BitVector, solution_to_json

START = BitVector.from_string("0110")


def recording_registry(threads):
    """One perturb, bitflip with k = 1, whose every call appends the thread
    it runs on to `threads`."""
    bitflip = perturb_bitflip(1)

    def factory(bindings):
        def step(sol, env):
            threads.append(threading.current_thread())
            return bitflip(sol, env)

        return Component(bitflip.descriptor, step)

    return register(Registry(), bitflip.descriptor, factory)


def perturb(server, seed=1):
    """One bitflip perturb, posted on a connection of its own and read to
    the server's close; its reply must be the local step's."""
    body = json.dumps({"jsonrpc": "2.0", "id": seed, "method": "perturb", "params": {
        "component": "bitflip", "params": {},
        "solution": solution_to_json(START), "env": env_new(seed).to_json(),
    }}).encode()
    reply = raw_post(server.endpoint, b"Content-Length: %d\r\n" % len(body), body)
    child, env = perturb_bitflip(1)(START, env_new(seed))
    assert reply["result"] == {"solution": solution_to_json(child), "env": env.to_json()}


def wait_until_idle(server, count):
    """Wait until exactly `count` of the server's threads are idle."""
    deadline = time.monotonic() + 5.0
    while server._idle != count:
        assert time.monotonic() < deadline, f"{server._idle} idle, not {count}"
        time.sleep(0.005)


def test_sequential_requests_are_served_by_one_thread():
    threads = []
    s = serve(recording_registry(threads))
    try:
        for seed in range(50):
            perturb(s, seed)
    finally:
        s.close()
    assert len(threads) == 50
    assert len({t.ident for t in threads}) == 1


def test_a_stalled_connection_delays_no_other():
    threads = []
    s = serve(recording_registry(threads))
    try:
        perturb(s)
        with open_short_body(s.endpoint):
            wait_until_idle(s, 0)  # the one thread waits for the rest of the body
            started = time.monotonic()
            perturb(s, 2)
            assert time.monotonic() - started < rpc.REQUEST_TIMEOUT_S / 5
        assert threads[1] is not threads[0]
    finally:
        s.close()


def test_close_ends_every_thread_idle_or_busy(monkeypatch):
    monkeypatch.setattr(rpc, "REQUEST_TIMEOUT_S", 0.5)
    before = set(threading.enumerate())
    threads = []
    s = serve(recording_registry(threads))
    sock = None
    try:
        perturb(s)
        perturb(s, 2)
        sock = open_short_body(s.endpoint)
        wait_until_idle(s, 0)  # busy until its read times out
        perturb(s, 3)  # on a second thread, idle once answered
    finally:
        started = time.monotonic()
        s.close()  # ends the idle thread, waits for the busy one
        closing = time.monotonic() - started
        if sock is not None:
            sock.close()
    assert closing < 5.0
    assert len({t.ident for t in threads}) == 2
    assert [t for t in threading.enumerate() if t not in before] == []



def test_an_idle_server_closes_within_a_poll():
    # the accept loop looks for a shutdown every 0.05 s; at socketserver's
    # default of 0.5 s, a close 0.1 s after the start took about 0.4 s
    s = serve(recording_registry([]))
    time.sleep(0.1)
    started = time.monotonic()
    s.close()
    assert time.monotonic() - started < 0.25


def test_a_with_block_closes_the_server():
    before = set(threading.enumerate())
    threads = []
    with serve(recording_registry(threads)) as s:
        perturb(s)
    assert len(threads) == 1
    assert [t for t in threading.enumerate() if t not in before] == []

def test_a_reset_mid_request_leaves_its_thread_reusable(capfd):
    threads = []
    s = serve(recording_registry(threads))
    try:
        perturb(s)
        sock = open_short_body(s.endpoint)
        wait_until_idle(s, 0)  # the thread is reading the body
        # close with a reset, as a client that is killed does
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()
        wait_until_idle(s, 1)
        for seed in range(2, 12):
            perturb(s, seed)
    finally:
        s.close()
    assert len(threads) == 11 and len({t.ident for t in threads}) == 1
    assert capfd.readouterr().err == ""


def test_concurrent_clients_get_every_reply_from_at_most_one_thread_each():
    clients, calls = 8, 15
    threads, failures = [], []
    s = serve(recording_registry(threads))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)

    def client(c):
        try:
            for i in range(calls):
                perturb(s, c * calls + i)
            good = raw_post(s.endpoint, b"Content-Length: %d\r\n" % len(DESCRIBE), DESCRIBE)
            assert good["result"]["components"]
        except Exception as exc:  # reported below, from the test's own thread
            failures.append(exc)

    try:
        running = [threading.Thread(target=client, args=(c,)) for c in range(clients)]
        for t in running:
            t.start()
        for t in running:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in running)
    finally:
        sys.setswitchinterval(interval)
        s.close()
    assert failures == []
    assert len(threads) == clients * calls
    # a thread is idle before its client sees the close, so no more threads
    # start than connections are ever open at once
    assert len({t.ident for t in threads}) <= clients
    assert not any(t.is_alive() for t in threads)
