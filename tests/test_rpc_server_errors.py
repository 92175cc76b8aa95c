"""An unexpected error while serving a connection: the server reports it
once, the thread that met it serves the next connection, and `close` still
ends every thread."""

import json
import threading

from test_rpc_boundary import exchange
from test_rpc_threads import perturb, recording_registry

from metafold import rpc
from metafold.rpc import serve

DESCRIBE = b'{"jsonrpc": "2.0", "id": 1, "method": "describe"}'


def test_an_unexpected_error_is_reported_once_and_its_thread_serves_on(monkeypatch, capfd):
    before = set(threading.enumerate())
    answer, answered_on = rpc._answer, []

    def fails_once(registry, rfile):
        reply = answer(registry, rfile)  # the request is read to its end
        answered_on.append(threading.current_thread())
        if len(answered_on) == 1:
            raise RuntimeError("an unexpected fault")
        return reply

    monkeypatch.setattr(rpc, "_answer", fails_once)
    threads = []
    s = serve(recording_registry(threads))
    try:
        request = b"POST /rpc HTTP/1.0\r\nContent-Length: %d\r\n\r\n" % len(DESCRIBE) + DESCRIBE
        assert exchange(s.endpoint, request) == b""  # closed without a reply
        perturb(s, 2)
    finally:
        s.close()
    err = capfd.readouterr().err
    assert err.count("Traceback") == 1
    assert "RuntimeError: an unexpected fault" in err
    assert len(answered_on) == 2 and answered_on[0] is answered_on[1] is threads[0]
    assert [t for t in threading.enumerate() if t not in before] == []
