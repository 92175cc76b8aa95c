"""Tests of the benchmark itself, at the tiny size.

Run with the program's sources on the path:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import json
import socket
import urllib.parse
from pathlib import Path

import pytest

from metafold import cli

from perfbench import bench, inputs
from perfbench.server import metafold_server
from perfbench.workloads import make

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SEED = 21
END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def timed(workload):
    _lines, result = bench.run(workload, SEED, 0.2, 0, ROOT, SRC, size="tiny")
    return result


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_every_workload_runs_and_matches_the_golden(workload):
    result = timed(workload)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tampered_output_is_counted_as_failed(monkeypatch):
    tampered_seed = inputs.solve_seeds("solve_tsp", "tiny", inputs.slot_of(SEED))[0]
    original = cli.dispatch_solve
    tampered = []

    def dispatch(model, budget, env, penalty):
        result, env_out = original(model, budget, env, penalty=penalty)
        if env.rng.seed == tampered_seed:
            tampered.append(1)
            result = dataclasses.replace(result, value=result.value + 1.0)
        return result, env_out

    monkeypatch.setattr(cli, "dispatch_solve", dispatch)
    result = timed("solve_tsp")
    assert tampered and result["failed"] == len(tampered) < result["attempted"]
    assert result["correct"] is False


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_traced_replay_reproduces_the_untraced_fingerprint(workload, tmp_path):
    _m, tracer, attempted, failed, plain, traced = bench.traced_procedure(
        workload, "tiny", inputs.slot_of(SEED), tmp_path, ROOT, SRC)
    assert failed == 0 and attempted > 0 and tracer.spans
    assert plain.checks and plain.checks == traced.checks


def test_rpc_layer_is_measured_on_the_bytes_the_proxies_sent(tmp_path):
    m, _tracer, _a, _f, _plain, traced = bench.traced_procedure(
        "remote", "tiny", inputs.slot_of(SEED), tmp_path, ROOT, SRC)
    assert len(traced.rpc_exchanges) == traced.ops
    request, response = traced.rpc_exchanges[0]
    assert json.loads(request)["method"] in ("perturb", "accept")
    assert "result" in json.loads(response)
    assert m["rpc.errors"] == 0 and m["rpc.request_bytes"] > 0 and m["rpc.response_bytes"] > 0


def test_rpc_errors_are_counted_not_raised(tmp_path):
    wl = make("remote", "tiny", 0, tmp_path, SRC)
    wl.setup()
    wl.close()  # the server is gone, so the first call of the next run fails
    outcome = wl.step(0)
    assert outcome.errors == 1 and outcome.ops == 1 and not outcome.checks


def test_server_port_is_released_when_the_run_fails(tmp_path):
    with pytest.raises(RuntimeError):
        with metafold_server(SRC, tmp_path / "server.log") as server:
            port = urllib.parse.urlsplit(server.endpoint).port
            socket.create_connection(("127.0.0.1", port), timeout=5).close()
            raise RuntimeError("run failed")
    assert server.peak_kb > 0
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", port), timeout=5)
