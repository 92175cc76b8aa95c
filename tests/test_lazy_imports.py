"""A metafold process loads only what its command runs: importing the
package, the CLI, the RPC client and the white-box solver loads no
argparse, csv, hashlib, statistics or HTTP server, and the commands that
use them still run once loaded."""

import json
import os
import subprocess
import sys
from pathlib import Path

import metafold
from metafold import rpc

SRC = str(Path(metafold.__file__).resolve().parent.parent)

LAZY = (
    "argparse", "csv", "hashlib", "http", "socketserver", "socket", "queue",
    "metafold.stats", "metafold._rpc_server",
)

# Run in a fresh interpreter: it prints what the imports loaded that a bare
# interpreter had not, then serves a describe and runs `compare`.
PROBE = """
import sys
bare = set(sys.modules)
import metafold, metafold.cli, metafold.rpc, metafold.whitebox
loaded = sorted(set(sys.modules) - bare)

import json
from metafold import cli, rpc
from metafold.palette import default_registry

server = rpc.serve(default_registry())
try:
    described = rpc._post(
        server.endpoint, {"jsonrpc": "2.0", "id": 1, "method": "describe"},
        lambda result: len(result["components"]),
    )
finally:
    server.close()
compared = cli.main(["compare", sys.argv[1], "--problem", "p"])
print(json.dumps({"loaded": loaded, "described": described, "compared": compared}))
"""


def test_the_imports_leave_each_command_s_modules_unloaded_until_it_runs(tmp_path):
    results = tmp_path / "results.csv"
    rows = [f"p,{cid},{seed},{seed + bias}" for cid, bias in (("a", 0), ("b", 3)) for seed in range(5)]
    results.write_text("\n".join(["problem,config_id,seed,best_value", *rows]) + "\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(results)], env=env, capture_output=True, text=True, check=True
    )
    report = json.loads(done.stdout.splitlines()[-1])
    assert [m for m in LAZY if m in report["loaded"]] == []
    assert "metafold.whitebox" in report["loaded"]  # the probe saw the imports
    assert report["described"] > 0
    assert report["compared"] == 0


def test_the_bare_status_replies_keep_their_bytes():
    # written out in rpc.py, so no client loads the http package for them
    assert rpc._BARE == {
        400: b"HTTP/1.0 400 Bad Request\r\nContent-Length: 0\r\n\r\n",
        404: b"HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\n\r\n",
        414: b"HTTP/1.0 414 Request-URI Too Long\r\nContent-Length: 0\r\n\r\n",
        431: b"HTTP/1.0 431 Request Header Fields Too Large\r\nContent-Length: 0\r\n\r\n",
        501: b"HTTP/1.0 501 Not Implemented\r\nContent-Length: 0\r\n\r\n",
    }
