"""The HTTP server of the RPC tier, which only `metafold serve` runs.

`rpc.serve` loads this module on its first call, as does naming
`rpc.RpcServer`, so a client that imports `metafold.rpc` for its proxies
loads no server stack. Each connection is served at once on a thread of its
own, so a stalled connection delays no other. A thread whose connection is
done takes the next one from a queue instead of exiting, and a connection
that finds no idle thread starts a new one.

Each connection's request is read and answered by `rpc._answer`, with the
limits `rpc.REQUEST_TIMEOUT_S` and `rpc.MAX_DRAIN_BYTES`; all three are
read from `rpc` at call time.
"""

from __future__ import annotations

import itertools
import queue
import socket
import socketserver
import threading
import time

from . import rpc
from .assembly import Registry


def _drain(sock) -> None:
    """Ends a connection whose request may not have been read to its end:
    with the reply sent, it reads and discards what the client still sends
    until the client closes, for at most MAX_DRAIN_BYTES and
    REQUEST_TIMEOUT_S."""
    try:
        sock.shutdown(socket.SHUT_WR)  # the client reads the reply to its end
    except OSError:  # the client has reset the connection already
        return
    deadline = time.monotonic() + rpc.REQUEST_TIMEOUT_S
    left = rpc.MAX_DRAIN_BYTES
    while left > 0:
        wait = deadline - time.monotonic()
        if wait <= 0:
            return
        sock.settimeout(wait)
        chunk = sock.recv(min(left, 65536))
        if not chunk:
            return
        left -= len(chunk)


# The accept loop's poll for a shutdown, which `close` waits for; at
# socketserver's default of 0.5 s, each close took ~0.45 s.
_POLL_S = 0.05


class RpcServer(socketserver.TCPServer):
    """HTTP server hosting a registry at POST /rpc, which starts the thread
    that runs its accept loop. `close` stops the loop, ends the idle
    connection threads and waits for the busy ones."""

    allow_reuse_address = True

    def __init__(self, registry: Registry, host: str = "127.0.0.1", port: int = 0):
        self.registry = registry
        # set before binding, as a failed bind calls server_close
        self._idle_lock = threading.Lock()
        self._idle = 0  # threads that will take a connection off _queue
        self._queue = queue.SimpleQueue()  # (request, client_address), or None to end a thread
        self._threads = []
        super().__init__((host, port), None)
        self._accepting = threading.Thread(target=super().serve_forever, args=(_POLL_S,), daemon=True)
        self._accepting.start()

    @property
    def endpoint(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}/rpc"

    def serve_forever(self):  # until the server is closed
        self._accepting.join()

    def close(self):
        self.shutdown()
        self.server_close()
        self._accepting.join()

    def __exit__(self, *exc_info):  # TCPServer's would leave the accept loop running
        self.close()

    def process_request(self, request, client_address):
        connection = (request, client_address)
        with self._idle_lock:
            idle = self._idle > 0
            self._idle -= idle
        if idle:
            self._queue.put(connection)
        else:
            thread = threading.Thread(target=self._work, args=(connection,), daemon=True)
            thread.start()
            self._threads.append(thread)

    def _work(self, connection):
        """Serves `connection`, then each connection that it takes off the
        queue, until it takes None."""
        for request, client_address in itertools.chain([connection], iter(self._queue.get, None)):
            try:
                request.settimeout(rpc.REQUEST_TIMEOUT_S)  # a read or write past it ends the connection
                with request.makefile("rb") as rfile:
                    reply, unread = rpc._answer(self.registry, rfile)
                if reply is not None:
                    request.sendall(reply)
                    if unread:
                        _drain(request)
            except (ConnectionError, TimeoutError):  # the client left, or stalled
                pass
            except Exception:
                self.handle_error(request, client_address)
            # idle before the connection is closed, so a client that reads
            # to the close finds this thread free for its next one
            with self._idle_lock:
                self._idle += 1
            self.shutdown_request(request)

    def server_close(self):
        super().server_close()
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join()
