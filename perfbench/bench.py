"""One benchmark run: the timed run (--trace 0) or the traced run (--trace 1).

The timed run sets up, then repeats the workload's operation until
--seconds have passed and reports the end-to-end metrics; the further
set-ups it times are spread over the run. The traced
run measures the unit-cost probes, then replays a fixed number of the
workload's operations twice through public functions, once plain and once
with spans, and derives the per-layer metrics. A layer the workload never
reaches (the RPC tier in `sweep`, say) is measured on tiny replays of the
other workloads instead, so every per-layer metric is measured in every
traced run. Every operation of every pass is checked against golden.json.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

from metafold.palette import default_registry
from metafold.rpc import handle_rpc

from . import inputs
from .hostspeed import HostSpeed
from .probes import per_call_s, probes
from .server import run_probe
from .tracing import Tracer
from .workloads import Outcome, make

SETUP_REPEATS = 7
# Imports what a `metafold` command imports, in a fresh interpreter, and
# prints how long that took.
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import metafold, metafold.cli, metafold.rpc, metafold.whitebox; "
    "print(time.perf_counter() - t)"
)
SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}
# What one operation is called in each workload; printed next to the generic
# end-to-end metric names (op_ms_p50 is trial_ms_p50 in sweep, and so on).
OP_NAMES = {
    "sweep": "trial",
    "remote": "rpc",
    "solve_tsp": "solve_tsp",
    "solve_generic": "solve_generic",
}


class GoldenError(Exception):
    pass


def _percentile(xs, pct: int) -> float:
    return statistics.quantiles(xs, n=100, method="inclusive")[pct - 1]


def _golden(root: Path, size: str, workload: str, slot: int) -> dict:
    path = root / "perfbench" / "golden.json"
    try:
        table = json.loads(path.read_text())["digests"][size][workload][str(slot)]
    except (OSError, KeyError, ValueError) as exc:
        raise GoldenError(f"no replay golden for {size}/{workload}/slot {slot} in {path}") from exc
    return table


def failures(outcome: Outcome, golden: dict) -> int:
    """Operations the program failed, plus those whose output differs from
    the golden recorded at the seed commit."""
    return outcome.errors + sum(w for key, d, w in outcome.checks if golden.get(key) != d)


def _context_line(host: HostSpeed) -> str:
    return (f"context python={platform.python_version()} nproc={os.cpu_count()} "
            f"host_kernel_ms={host.kernel_ms():.4f} (median of {len(host.samples())}) "
            f"duration_scale={host.scale():.4f}")


def _peak_rss_mb(servers, probe_kb) -> float:
    """Peak resident memory of the program: the benchmark process, plus the
    `metafold serve` server's own peak (one runs at a time), plus the
    largest other child process the program started (a process pool's
    worker, say). RUSAGE_CHILDREN holds the largest figure wait4 reported
    for any reaped child, the import probes and servers included, so it is
    added only when it exceeds every one of theirs."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    server = max((s.peak_kb for s in servers), default=0)
    known = max([*probe_kb, *(s.reaped_kb for s in servers)], default=0)
    other = children if children > known else 0
    return (own + server + other) / 1024.0


# ---------------------------------------------------------------------------
# timed run


def import_seconds(src: Path) -> tuple:
    """(seconds the import took, peak memory of the probe in KiB)."""
    out, peak_kb = run_probe([sys.executable, "-c", IMPORT_PROBE],
                             dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    return float(out), peak_kb


def timed_run(workload, seed, seconds, size, workdir, root, src):
    slot = inputs.slot_of(seed)
    golden = _golden(root, size, workload, slot)
    host = HostSpeed()
    wl = make(workload, size, slot, workdir, src)
    steps = []
    try:
        imports, setups, probe_kb = [], [], []

        def set_up() -> float:
            begin = perf_counter()
            seconds_taken, peak_kb = import_seconds(src)
            imports.append(seconds_taken)
            probe_kb.append(peak_kb)
            start = perf_counter()
            wl.setup()
            setups.append(perf_counter() - start)
            return perf_counter() - begin

        # Set-up time drifts with the host from one second to the next but
        # hardly within one, so the set-ups are spread over the run rather
        # than timed back to back; the time they take is not run time.
        set_up()
        start, paused = perf_counter(), 0.0
        while not steps or perf_counter() - start - paused < seconds:
            if (len(setups) < SETUP_REPEATS
                    and perf_counter() - start - paused >= len(setups) * seconds / SETUP_REPEATS):
                paused += set_up()
            host.keep_up(sum(setups) + sum(o.seconds for o in steps))
            steps.append(wl.step(len(steps)))
        while len(setups) < SETUP_REPEATS:
            set_up()
        host.finish()
        post = wl.post_checks(range(len(steps)))
    finally:
        wl.close()

    total = Outcome()
    for o in steps + [post]:
        total.add(o)
    failed = min(failures(total, golden), total.ops)
    factors = [host.step_scale(j) for j in range(len(steps))]
    scaled_s = sum(o.seconds * f for o, f in zip(steps, factors))
    scaled_lat = [ms * f for o, f in zip(steps, factors) for ms in o.latencies_ms]
    lat = total.latencies_ms
    raw = {
        "evals_per_s": total.evaluations / total.seconds,
        "ops_per_s": total.ops / total.seconds,
        "op_ms_p50": statistics.median(lat),
        "op_ms_p90": _percentile(lat, 90),
        "setup_s": statistics.median(i + s for i, s in zip(imports, setups)),
    }
    metrics = {
        "evals_per_s": total.evaluations / scaled_s,
        "ops_per_s": total.ops / scaled_s,
        "op_ms_p50": statistics.median(scaled_lat),
        "op_ms_p90": _percentile(scaled_lat, 90),
        # Not scaled: interpreter start and imports do not follow the
        # arithmetic kernel (their times differ by half between runs whose
        # kernel times differ by a tenth), so scaling only adds its noise.
        "setup_s": raw["setup_s"],
        "peak_rss_mb": _peak_rss_mb(wl.servers, probe_kb),
    }
    op = OP_NAMES[workload]
    names = {
        "evals_per_s": ("evals_per_s", "1/s"),
        "ops_per_s": (f"{'trials' if workload == 'sweep' else op}_per_s", "1/s"),
        "op_ms_p50": (f"{op}_ms_p50", "ms"),
        "op_ms_p90": (f"{op}_ms_p90", "ms"),
        "setup_s": ("setup_s", "s"),
    }
    lines = [
        _context_line(host),
        f"run workload={workload} seed={seed} slot={slot} seconds={seconds} "
        f"steps={len(steps)} operations={total.ops} latency_samples={len(lat)}",
    ]
    for key, (name, unit) in names.items():
        lines.append(f"{workload}.{name} {metrics[key]:.6g} {unit} "
                     f"(as measured {raw[key]:.6g}; reported as {key})")
    if workload == "remote":
        lines.append(f"remote.rpc_ms_p99 {_percentile(scaled_lat, 99):.6g} ms "
                     f"(as measured {_percentile(lat, 99):.6g}; not gated: rare host stalls "
                     f"move it by more than any bound)")
    lines += [
        f"{workload}.setup_s parts (as measured): imports "
        + ", ".join(f"{s:.4f}" for s in imports) + " s; set-ups "
        + ", ".join(f"{s:.4f}" for s in setups) + " s",
        f"{workload}.peak_rss_mb {metrics['peak_rss_mb']:.6g} MB (benchmark process "
        f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.6g} MB, server "
        f"{max((s.peak_kb for s in wl.servers), default=0) / 1024:.6g} MB)",
        f"{workload}.failed_frac {failed / max(total.ops, 1):.6g} ({failed}/{total.ops})",
    ]
    return lines, metrics, total.ops, failed


# ---------------------------------------------------------------------------
# traced run


def _rpc_metrics(tracer, traced: Outcome, errors: int) -> dict:
    """RPC layer figures from the bytes the proxies really exchanged with the
    server. Each recorded request is handled again in-process; a reply that
    differs from the server's counts as an error, on top of the calls that
    failed in the client."""
    roundtrips = tracer.durations("rpc.perturb") + tracer.durations("rpc.accept")
    if not roundtrips:
        return {}
    if not traced.rpc_exchanges:
        raise RuntimeError("no RPC body was recorded: the proxies no longer post "
                           "through urllib.request.urlopen")
    registry = default_registry()
    handle, requests, responses = [], [], []
    for request, response in traced.rpc_exchanges:
        start = perf_counter()
        replayed = handle_rpc(registry, request)
        handle.append(perf_counter() - start)
        requests.append(len(request))
        responses.append(len(response))
        errors += json.dumps(replayed).encode("utf-8") != response
    roundtrip_us = statistics.median(roundtrips) * 1e6
    handle_us = statistics.median(handle) * 1e6
    return {
        "rpc.roundtrip_us": roundtrip_us,
        "rpc.handle_us": handle_us,
        "rpc.transport_us": roundtrip_us - handle_us,
        "rpc.request_bytes": statistics.median(requests),
        "rpc.response_bytes": statistics.median(responses),
        "rpc.errors": errors,
    }


def traced_procedure(workload, size, slot, workdir, root, src):
    """Replay a fixed set of the workload's operations plain and traced.

    Returns (layer metrics of the layers this workload reaches, tracer,
    attempted, failed, plain outcome, traced outcome).
    """
    golden = _golden(root, size, workload, slot)
    workdir.mkdir(parents=True, exist_ok=True)
    wl = make(workload, size, slot, workdir, src)
    tracer = Tracer()
    cli_pass, plain, traced = Outcome(), Outcome(), Outcome()
    try:
        wl.setup()
        indices = list(range(wl.traced_rounds))
        if workload == "sweep":
            for i in indices:
                cli_pass.add(wl.step(i))
        for i in indices:
            plain.add(wl.replay(i))
        for i in indices:
            traced.add(wl.replay(i, tracer))
        post = wl.post_checks(indices)
    finally:
        wl.close()
    attempted = cli_pass.ops + plain.ops + traced.ops
    failed = min(attempted, sum(failures(o, golden) for o in (cli_pass, plain, traced, post)))

    agg = tracer.by_name()
    self_s = lambda name: agg[name][2] if name in agg else None
    m = {
        "components.perturb.self_s": self_s("components.perturb"),
        "components.accept.self_s": self_s("components.accept"),
        "components.terminate.self_s": self_s("components.terminate"),
        "problems.evaluate.self_s": self_s("problems.evaluate"),
        "whitebox.route.tsp.self_s": self_s("whitebox.route.tsp"),
        "whitebox.route.generic.self_s": self_s("whitebox.route.generic"),
        "env.rng_draws_per_eval": traced.rng_draws / traced.evaluations,
        "trace.overhead_frac": (plain.evaluations / plain.seconds)
        / (traced.evaluations / traced.seconds) - 1.0,
        "trace.spans": len(tracer.spans),
    }
    calls = tracer.counts["accept.calls"]
    if calls:
        m["components.accept_ratio"] = tracer.counts["accept.accepted"] / calls
    if "problems.evaluate" in agg:
        m["problems.evaluations"] = agg["problems.evaluate"][0]
    for fw, name in (("local_search", "frameworks.local_search.self_us_per_iter"),
                     ("ils", "frameworks.ils.self_us_per_iter"),
                     ("ga", "frameworks.ga.self_us_per_gen")):
        if traced.iterations[fw] and f"frameworks.{fw}" in agg:
            m[name] = agg[f"frameworks.{fw}"][2] / traced.iterations[fw] * 1e6
    if traced.iterations:
        m["frameworks.trace_rows"] = sum(traced.iterations.values())
    if cli_pass.ops:
        m["cli.parallel_speedup"] = plain.seconds / cli_pass.seconds
        m["cli.trace_rows_written"] = cli_pass.cli_rows
        m["cli.bytes_written"] = cli_pass.cli_bytes
    m.update(_rpc_metrics(tracer, traced, plain.errors + traced.errors))
    return {k: v for k, v in m.items() if v is not None}, tracer, attempted, failed, plain, traced


def _self_time_lines(workload, tracer) -> list:
    layers = {}
    for name, (_calls, _total, own) in tracer.by_name().items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + own
    whole = sum(layers.values()) or 1.0
    return [
        f"self_time {workload} {layer} {own:.6f} s ({100 * own / whole:.1f}%)"
        for layer, own in sorted(layers.items(), key=lambda kv: -kv[1])
    ]


def traced_run(workload, seed, size, workdir, root, src, units):
    slot = inputs.slot_of(seed)
    host = HostSpeed()
    values = {name: per_call_s(fn) * SCALE[units[name]] for name, fn in probes(slot).items()}
    sources = dict.fromkeys(values, "probe")
    lines = []
    attempted = failed = 0
    order = [(workload, size)] + [(w, "tiny") for w in inputs.WORKLOADS if w != workload]
    for w, w_size in order:
        m, tracer, a, f, plain, traced = traced_procedure(
            w, w_size, slot, workdir / w, root, src)
        attempted += a
        failed += f
        for name, value in m.items():
            if name not in values:
                values[name] = value
                sources[name] = w if w == workload else f"{w}/{w_size}"
        if w == workload:
            tracer.write(root / "perfbench" / ".out" / f"spans-{workload}-{seed}.jsonl")
            lines += _self_time_lines(workload, tracer)
            lines.append(
                f"tracing_overhead {workload} untraced_evals_per_s="
                f"{plain.evaluations / plain.seconds:.6g} traced_evals_per_s="
                f"{traced.evaluations / traced.seconds:.6g} "
                f"fingerprints_equal={plain.checks == traced.checks}")
    host.finish()
    lines.insert(0, _context_line(host))
    lines.insert(1, f"traced workload={workload} seed={seed} slot={slot} "
                    f"operations={attempted} failed={failed}")
    for name in units:
        lines.append(f"{name} {values.get(name)} {units[name]} [{sources.get(name)}]")
    return lines, values, attempted, failed


# ---------------------------------------------------------------------------


def run(workload, seed, seconds, trace, root: Path, src: Path, size="full"):
    """Returns (human-readable lines, result object)."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    workdir = root / "perfbench" / ".work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            lines, values, attempted, failed = traced_run(
                workload, seed, size, workdir, root, src, units)
        else:
            lines, values, attempted, failed = timed_run(
                workload, seed, seconds, size, workdir, root, src)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"benchmark produced no value for {missing}")
    result = {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return lines, result
