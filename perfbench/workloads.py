"""The four workloads.

Each workload has a user-facing `step` (what the timed run measures: the
`metafold` command line called in-process, or the remote proxies) and a
`replay` of the same operation through the library's public functions,
which the traced run uses with and without spans. Both paths produce one
digest per operation; every digest must equal the one stored in
golden.json, which was recorded from the seed commit's code.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import shutil
import urllib.request
from collections import Counter
from contextlib import ExitStack, contextmanager, nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from metafold import cli
from metafold.assembly import ConfigurationSpec, Registry, instantiate, register, validate
from metafold.components import (
    Component,
    accept_improving,
    perturb_two_opt,
    terminate_evaluations,
)
from metafold.env import env_new
from metafold.frameworks import local_search
from metafold.palette import default_registry, load_registry
from metafold.problems import onemax, parse_dimacs_cnf, trap
from metafold.rpc import RemoteProtocolError, RemoteUnavailableError, remote_accept, remote_perturb
from metafold.solutions import serialize_solution
from metafold.whitebox import DEFAULT_PENALTY, generic_solve, match_tsp, parse_model, rewrite_to_tsp

from . import inputs
from .server import metafold_server
from .tracing import NULL


class SetupError(Exception):
    """Generated inputs failed the program's own validation."""


class RoundAborted(Exception):
    """An RPC failed, so the search it belonged to cannot continue."""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class Outcome:
    """What one or more operations did. `checks` holds (golden key, digest,
    operations covered); a digest that differs from the golden fails them."""

    seconds: float = 0.0
    ops: int = 0
    errors: int = 0
    evaluations: int = 0
    rng_draws: int = 0
    latencies_ms: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    iterations: Counter = field(default_factory=Counter)  # framework -> trace rows
    cli_rows: int = 0
    cli_bytes: int = 0
    rpc_exchanges: list = field(default_factory=list)  # (request, response) bytes

    def add(self, other: "Outcome") -> "Outcome":
        for name in ("seconds", "ops", "errors", "evaluations", "rng_draws", "cli_rows", "cli_bytes"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.latencies_ms += other.latencies_ms
        self.checks += other.checks
        self.iterations.update(other.iterations)
        self.rpc_exchanges += other.rpc_exchanges
        return self


def _trace_csv(trace, stride: int) -> str:
    """The trace file `metafold run` writes for one trial."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["iteration", "evaluations", "best_value"])
    last = len(trace) - 1
    for i, (iteration, evals, value) in enumerate(trace):
        if (i + 1) % stride == 0 or i == last:
            writer.writerow([iteration, evals, repr(value)])
    return buf.getvalue()


def _trial_digest(row, trace_text: str) -> str:
    """A results.csv row without wall_ms, plus the trial's trace file."""
    return digest("\x1f".join(row) + "\n" + trace_text)


def _run_digest(result) -> str:
    return digest(json.dumps({
        "best": serialize_solution(result.best),
        "best_value": repr(result.best_value),
        "trace": [[i, e, repr(v)] for i, e, v in result.trace],
        "rng_counter": result.final_env.rng.counter,
    }, sort_keys=True))


class Workload:
    def __init__(self, size: str, slot: int, workdir: Path, src: Path):
        self.size, self.slot, self.workdir, self.src = size, slot, workdir, src
        self.servers = []  # every `metafold serve` run, once stopped

    def close(self):
        pass

    def post_checks(self, indices) -> Outcome:
        return Outcome()


# ---------------------------------------------------------------------------


def _problem(entry: dict):
    if entry["kind"] == "onemax":
        return onemax(entry["n"])
    if entry["kind"] == "trap":
        return trap(entry["n"], entry["b"])
    return parse_dimacs_cnf(Path(entry["path"]).read_text())


class Sweep(Workload):
    """`metafold run` over three problems x five configs, one trial seed per
    round; a run cycles through the slot's trial seeds."""

    name = "sweep"
    traced_rounds = 1

    def __init__(self, *args):
        super().__init__(*args)
        self.seeds = inputs.sweep_trial_seeds(self.size, self.slot)
        self.distinct = len(self.seeds)

    def setup(self):
        self.template = inputs.sweep_inputs(self.size, self.slot, self.workdir)
        self.registry = load_registry(self.template["registry"])
        self.problems = [_problem(e) for e in self.template["problems"]]
        specs = [ConfigurationSpec.from_json(c) for c in self.template["configs"]]
        for spec in specs:
            violations = validate(spec, self.registry)
            if violations:
                raise SetupError(f"invalid sweep config: {violations}")
        self.configs = [(f"{i:04d}-{s.content_hash()}", s) for i, s in enumerate(specs)]
        self.budget = self.template["budget"]["evaluations"]
        self.stride = self.template["trace_stride"]

    def step(self, i: int) -> Outcome:
        seed = self.seeds[i % self.distinct]
        out = self.workdir / f"round{i}"
        path = self.workdir / "experiment.json"
        path.write_text(json.dumps(dict(self.template, seeds=[seed], out=str(out))))
        o = Outcome()
        start = perf_counter()
        code = cli.main(["run", str(path)])
        o.seconds = perf_counter() - start
        expected = len(self.problems) * len(self.configs)
        results = out / "results.csv"
        rows = []
        if code in (cli.EXIT_OK, cli.EXIT_TRIAL_FAILURES) and results.exists():
            with open(results, newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            o.cli_bytes = results.stat().st_size
        for row in rows:
            problem, config_id, seed_text, best, evals, wall_ms = row
            if best == "FAILED":
                o.errors += 1
                continue
            data = (out / "traces" / f"{problem}__{config_id}__{seed_text}.csv").read_bytes()
            text = data.decode("utf-8")
            o.cli_bytes += len(data)
            o.cli_rows += text.count("\n") - 1
            o.checks.append((f"{problem}|{config_id}|{seed_text}", _trial_digest(row[:5], text), 1))
            o.latencies_ms.append(float(wall_ms))
            o.evaluations += int(evals)
        o.ops = max(expected, len(rows))
        o.errors += o.ops - len(rows)
        shutil.rmtree(out, ignore_errors=True)
        return o

    def replay(self, i: int, tracer=NULL) -> Outcome:
        seed = self.seeds[i % self.distinct]
        reg = tracer.registry(self.registry)
        budget = tracer.wrap(terminate_evaluations(self.budget), "components.terminate")
        o = Outcome()
        for problem in self.problems:
            traced_problem = tracer.problem(problem)
            for config_id, spec in self.configs:
                tracer.next_op()
                o.ops += 1
                start = perf_counter()
                try:
                    with tracer.span("cli.trial"):
                        with tracer.span("assembly.instantiate"):
                            run = instantiate(spec, reg, traced_problem, seed, extra_terminate=budget)
                        with tracer.span(f"frameworks.{spec.framework}"):
                            result = run()
                except Exception:  # a FAILED row in `metafold run`
                    o.errors += 1
                    continue
                elapsed = perf_counter() - start
                o.seconds += elapsed
                o.latencies_ms.append(elapsed * 1000)
                evaluations = result.trace[-1][1] if result.trace else 1
                row = [problem.name, config_id, str(seed), repr(result.best_value), str(evaluations)]
                o.checks.append((
                    f"{problem.name}|{config_id}|{seed}",
                    _trial_digest(row, _trace_csv(result.trace, self.stride)),
                    1,
                ))
                o.evaluations += evaluations
                o.rng_draws += result.final_env.rng.counter
                o.iterations[spec.framework] += len(result.trace)
        return o


# ---------------------------------------------------------------------------


class _RpcLog:
    def __init__(self):
        self.ms = []
        self.errors = 0
        self.exchanges = []  # (request body, response body) as sent


@contextmanager
def _recording_http(exchanges: list):
    """Record the bytes of every request the RPC client posts and of every
    reply, by wrapping the `urllib.request.urlopen` it posts through."""
    urlopen = urllib.request.urlopen

    def recording(request, *args, **kwargs):
        with urlopen(request, *args, **kwargs) as resp:
            body = resp.read()
        exchanges.append((request.data, body))
        return io.BytesIO(body)

    urllib.request.urlopen = recording
    try:
        yield
    finally:
        urllib.request.urlopen = urlopen


def _rpc_component(proxy, method, log: _RpcLog, tracer):
    """The proxy, timed around each call; RPC errors are counted and end
    the search instead of escaping the benchmark."""
    step = proxy.step

    def timed(payload, env):
        token = tracer.begin(f"rpc.{method}")
        start = perf_counter()
        try:
            out = step(payload, env)
        except (RemoteUnavailableError, RemoteProtocolError) as exc:
            log.errors += 1
            raise RoundAborted(str(exc)) from exc
        finally:
            log.ms.append((perf_counter() - start) * 1000)
            tracer.end(token)
        if method == "accept":
            tracer.accepted(out[0], payload)
        return out

    return Component(proxy.descriptor, timed)


class Remote(Workload):
    """Local search whose perturb and accept run in a `metafold serve`
    subprocess; one closed-loop client making sequential calls.

    The client and the server share one CPU. Only one of them is busy at a
    time, and a hand-off on one CPU costs the same from run to run, whereas
    waking a process on the other CPU of a shared virtual machine varies
    with the load of the host (p99 of one round: 4-6 ms on one CPU, 4-13 ms
    across two).
    """

    name = "remote"
    traced_rounds = 1

    def __init__(self, *args):
        super().__init__(*args)
        self.spec = ConfigurationSpec.from_json(inputs.remote_spec(self.size))
        self.n = inputs.SIZES[self.size]["remote"]["n"]
        self.seeds = inputs.remote_run_seeds(self.size, self.slot)
        self.distinct = len(self.seeds)
        self._server = ExitStack()
        self._live = None  # the running server
        local = default_registry()
        self._terminate = (local.lookup("terminate", "max_iterations"),
                           local.factories[("terminate", "max_iterations")])

    def setup(self):
        self.close()
        self._server = ExitStack()
        cpus = os.sched_getaffinity(0)
        self._server.callback(os.sched_setaffinity, 0, cpus)
        os.sched_setaffinity(0, {min(cpus)})  # the server inherits it
        self._live = self._server.enter_context(
            metafold_server(self.src, self.workdir / "server.log"))
        endpoint = self._live.endpoint
        slots = self.spec.slot_map()
        self.proxies = {}
        for method, make in (("perturb", remote_perturb), ("accept", remote_accept)):
            name, bindings = slots[method]
            self.proxies[method] = make(endpoint, name, bindings)
        violations = validate(self.spec, self._registry(_RpcLog(), NULL))
        if violations:
            raise SetupError(f"invalid remote config: {violations}")

    def close(self):
        self._server.close()
        if self._live is not None:
            self.servers.append(self._live)
            self._live = None

    def _registry(self, log, tracer) -> Registry:
        reg = Registry()
        for method, proxy in self.proxies.items():
            component = _rpc_component(proxy, method, log, tracer)
            reg = register(reg, proxy.descriptor, lambda b, c=component: c)
        desc, factory = self._terminate
        return register(reg, desc, lambda b: tracer.wrap(factory(b), "components.terminate"))

    def step(self, i: int) -> Outcome:
        return self.replay(i)

    def replay(self, i: int, tracer=NULL) -> Outcome:
        seed = self.seeds[i % self.distinct]
        log = _RpcLog()
        reg = self._registry(log, tracer)
        problem = tracer.problem(onemax(self.n))
        tracer.next_op()
        o = Outcome()
        recording = _recording_http(log.exchanges) if tracer.enabled else nullcontext()
        start = perf_counter()
        try:
            with recording, tracer.span("client.run"):
                with tracer.span("assembly.instantiate"):
                    run = instantiate(self.spec, reg, problem, seed)
                with tracer.span("frameworks.local_search"):
                    result = run()
        except RoundAborted:
            result = None
        o.seconds = perf_counter() - start
        o.ops, o.errors, o.latencies_ms = len(log.ms), log.errors, log.ms
        o.rpc_exchanges = log.exchanges
        if result is not None:
            o.checks.append((f"run|{seed}", _run_digest(result), len(log.ms)))
            o.evaluations = result.trace[-1][1] if result.trace else 1
            o.rng_draws = result.final_env.rng.counter
            o.iterations["local_search"] += len(result.trace)
        return o

    def post_checks(self, indices) -> Outcome:
        """The same runs with local components must match the golden too."""
        o = Outcome()
        rpcs = 2 * inputs.SIZES[self.size]["remote"]["iterations"]
        for seed in sorted({self.seeds[i % self.distinct] for i in indices}):
            result = instantiate(self.spec, default_registry(), onemax(self.n), seed)()
            o.checks.append((f"run|{seed}", _run_digest(result), rpcs))
        return o


# ---------------------------------------------------------------------------


class Solve(Workload):
    """`metafold solve` on one generated model, cycling through seeds."""

    traced_rounds = 8

    def __init__(self, name, *args):
        super().__init__(*args)
        self.name = name
        self.budget = inputs.SIZES[self.size][name]["budget"]
        self.seeds = inputs.solve_seeds(name, self.size, self.slot)
        self.distinct = len(self.seeds)

    def setup(self):
        self.path = inputs.solve_inputs(self.name, self.size, self.slot, self.workdir)
        self.text = self.path.read_text()
        if (match_tsp(parse_model(self.text)) is not None) != (self.name == "solve_tsp"):
            raise SetupError(f"{self.name}: generated model takes the wrong route")

    def step(self, i: int) -> Outcome:
        seed = self.seeds[i % self.distinct]
        argv = ["solve", str(self.path), "--budget", str(self.budget), "--seed", str(seed)]
        buf = io.StringIO()
        start = perf_counter()
        with redirect_stdout(buf):
            code = cli.main(argv)
        elapsed = perf_counter() - start
        o = Outcome(seconds=elapsed, ops=1, latencies_ms=[elapsed * 1000])
        if code != cli.EXIT_OK:
            o.errors = 1
        else:
            o.checks.append((f"seed|{seed}", digest(buf.getvalue()), 1))
            # `metafold solve` reports no evaluation count; both routes
            # spend exactly the --budget they are given.
            o.evaluations = self.budget
        return o

    def replay(self, i: int, tracer=NULL) -> Outcome:
        """What `metafold solve` does, through the whitebox functions."""
        seed = self.seeds[i % self.distinct]
        tracer.next_op()
        start = perf_counter()
        with tracer.span("cli.solve"):
            with tracer.span("whitebox.parse_model"):
                model = parse_model(self.text)
            match = match_tsp(model)
            if match is not None:
                with tracer.span("whitebox.route.tsp"):
                    problem = tracer.problem(rewrite_to_tsp(match))
                    begin, env = problem.sample_initial(env_new(seed))
                    with tracer.span("frameworks.local_search"):
                        result = local_search(
                            begin,
                            problem.evaluate,
                            tracer.wrap(perturb_two_opt(), "components.perturb"),
                            tracer.wrap_accept(accept_improving()),
                            tracer.wrap(terminate_evaluations(self.budget), "components.terminate"),
                            env,
                        )
                    tour = result.best.order
                    printed = {
                        "route_taken": "tsp",
                        "assignment": {v: tour[k] for k, v in enumerate(match.variables)},
                        "value": result.best_value,
                        "violations": 0,
                    }
                    env = result.final_env
                    iterations = len(result.trace)
                    evaluations = result.trace[-1][1]
            else:
                with tracer.span("whitebox.route.generic"):
                    solved, env = generic_solve(model, self.budget, env_new(seed), DEFAULT_PENALTY)
                printed = {
                    "route_taken": solved.route,
                    "assignment": solved.assignment,
                    "value": solved.value,
                    "violations": solved.violations,
                }
                iterations = 0
                evaluations = self.budget  # generic_solve reports no count
        elapsed = perf_counter() - start
        o = Outcome(seconds=elapsed, ops=1, latencies_ms=[elapsed * 1000],
                    evaluations=evaluations, rng_draws=env.rng.counter)
        o.checks.append((f"seed|{seed}", digest(json.dumps(printed, sort_keys=True) + "\n"), 1))
        if iterations:
            o.iterations["local_search"] += iterations
        return o


def make(workload: str, size: str, slot: int, workdir: Path, src: Path) -> Workload:
    if workload == "sweep":
        return Sweep(size, slot, workdir, src)
    if workload == "remote":
        return Remote(size, slot, workdir, src)
    return Solve(workload, size, slot, workdir, src)
