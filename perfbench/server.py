"""Child processes: the `metafold serve --port 0` server and the import probe.

The server is always stopped and waited for, even when the run fails, so
no process is left behind and its port is released.

Children are reaped with os.wait4, which reports the peak resident memory
of that one child (Popen.wait would discard it). On Linux that figure
starts from the parent's resident size when the child was spawned, since
the high-water mark survives exec; the server's own peak is therefore read
as VmHWM from /proc/<pid>/status just before it is stopped.
"""

from __future__ import annotations

import os
import re
import selectors
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from time import monotonic, sleep

START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0
POLL_S = 0.005

_ENDPOINT_RE = re.compile(r"serving on (http://\S+)")


class ServerError(Exception):
    pass


class Server:
    """A running server: its endpoint and, once stopped, its own peak
    resident memory (`peak_kb`) and the one wait4 reported (`reaped_kb`),
    both in KiB."""

    def __init__(self, endpoint: str):
        self.endpoint = endpoint
        self.peak_kb = 0
        self.reaped_kb = 0


def own_peak_kb(pid: int) -> int:
    """VmHWM of a live process: its peak resident memory since exec. 0 once
    it has exited."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def reap(proc: subprocess.Popen, timeout: float) -> int:
    """Wait for `proc`, killing it after `timeout` seconds, and return the
    peak resident memory wait4 reports for it, in KiB."""
    deadline = monotonic() + timeout
    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
    while not pid and monotonic() < deadline:
        sleep(POLL_S)
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
    if not pid:
        os.kill(proc.pid, signal.SIGKILL)
        _pid, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss


def run_probe(args, env, timeout: float) -> tuple:
    """Run a short child that prints a few bytes; return (its stdout, its
    peak resident memory in KiB). Raises CalledProcessError if it fails."""
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            env=env, text=True)
    with proc.stdout:
        peak_kb = reap(proc, timeout)
        out = proc.stdout.read()
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, args, out)
    return out, peak_kb


@contextmanager
def metafold_server(src: Path, log: Path):
    """Yield a `Server` for a fresh server process importing from `src`."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with open(log, "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "metafold.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=err,
            stdin=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        server = Server("")
        try:
            server.endpoint = _read_endpoint(proc, log)
            yield server
        finally:
            server.peak_kb = own_peak_kb(proc.pid)
            server.reaped_kb = stop(proc)


def _read_endpoint(proc, log: Path) -> str:
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(timeout=START_TIMEOUT_S):
            raise ServerError(f"server printed no endpoint within {START_TIMEOUT_S} s")
    line = proc.stdout.readline()
    match = _ENDPOINT_RE.search(line)
    if match is None:
        raise ServerError(f"server did not start: {line!r} {log.read_text()[-500:]!r}")
    return match.group(1)


def stop(proc: subprocess.Popen) -> int:
    """Stop and reap the server; return the peak memory wait4 reports."""
    peak_kb = 0
    if proc.returncode is None:
        # Not proc.terminate(): it polls first, and a poll that reaps the
        # process loses its memory figure.
        os.kill(proc.pid, signal.SIGTERM)
        peak_kb = reap(proc, STOP_TIMEOUT_S)
    proc.stdout.close()
    return peak_kb
