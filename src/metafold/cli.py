"""Operator-facing command line: experiment sweeps, comparison statistics,
design-space enumeration, the RPC server, and white-box solving.

Results are plain CSV so they diff and feed external analysis; everything
except wall-clock time is a pure function of the experiment file bytes.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Tuple

from . import problems as prob
from .assembly import (
    ConfigurationSpec,
    InvalidConfigurationError,
    Registry,
    RegistrationError,
    UnknownComponentError,
    enumerate_valid,
    instantiate,
    parse_initializers,
    require_shape,
    validate,
)
from .components import Param, terminate_evaluations, terminate_iterations
from .env import env_new
from .frameworks import terminate_any
from .palette import default_registry, load_registry
from .problems import ParseError, ProblemInstance
from .stats import interquartile_range, mann_whitney_u, median
from .whitebox import dispatch_solve, match_tsp, parse_model, tsplib_explicit_text, ModelError

EXIT_OK = 0
EXIT_TRIAL_FAILURES = 1
EXIT_INPUT_ERROR = 2
EXIT_ENVIRONMENT_ERROR = 3

MIN_SEEDS_FOR_COMPARE = 5


# kind -> (constructor, its fields in call order); a "path" field hands the
# constructor the text of the named file
PROBLEM_KINDS = {
    "onemax": (prob.onemax, (Param("n", "int", None),)),
    "checkerboard": (prob.checkerboard, (Param("s", "int", None),)),
    "royal_road": (prob.royal_road, (Param("n", "int", None), Param("b", "int", None))),
    "trap": (prob.trap, (Param("n", "int", None), Param("b", "int", None))),
    "hiff": (prob.hiff, (Param("n", "int", None),)),
    "sphere": (
        prob.sphere,
        (Param("d", "int", None), Param("lo", "real", None), Param("hi", "real", None)),
    ),
    "magic_square": (prob.magic_square, (Param("k", "int", None),)),
    "dimacs": (prob.parse_dimacs_cnf, (Param("path", "path", None),)),
    "tsplib": (prob.parse_tsplib, (Param("path", "path", None),)),
}


# experiment fields that are integers
SEED = Param("seed", "int", None, min=0, max=2**64 - 1)
TRACE_STRIDE = Param("trace_stride", "int", None, min=1)
WORKERS = Param("workers", "int", None)


def _build_problem(entry: Dict, where: str) -> ProblemInstance:
    require_shape(entry, dict, where)
    kind = entry.get("kind")
    if not isinstance(kind, str) or kind not in PROBLEM_KINDS:
        raise ValueError(f"unknown problem kind: {kind!r}")
    ctor, fields = PROBLEM_KINDS[kind]
    args = []
    for field in fields:
        value = entry[field.name]
        if field.type == "path":
            args.append(Path(require_shape(value, str, f"{where}.{field.name}")).read_text())
        else:
            args.append(field.checked(where, value))
    return ctor(*args)


def _grids(obj) -> Dict[str, Dict[str, list]]:
    """Parameter grids read from JSON: component -> param -> list of values."""
    for name, grid in require_shape(obj, dict, "grids").items():
        for pname, values in require_shape(grid, dict, f"grids.{name}").items():
            require_shape(values, list, f"grids.{name}.{pname}")
    return obj


def _budget_terminate(budget: Dict):
    parts = []
    if "iterations" in budget:
        parts.append(terminate_iterations(budget["iterations"]))
    if "evaluations" in budget:
        parts.append(terminate_evaluations(budget["evaluations"]))
    if not parts:
        return None
    return parts[0] if len(parts) == 1 else terminate_any(*parts)


def _configs_for(spec: Dict, registry: Registry) -> List[Tuple[str, ConfigurationSpec]]:
    """Numbered configurations, every one valid; raises
    InvalidConfigurationError naming each violation otherwise."""
    if "configs" in spec:
        configs = [
            ConfigurationSpec.from_json(c, f"configs[{i}]")
            for i, c in enumerate(require_shape(spec["configs"], list, "configs"))
        ]
    else:
        configs = enumerate_valid(
            registry,
            require_shape(spec["framework"], str, "framework"),
            _grids(spec.get("grids", {})),
            initializers=parse_initializers(spec.get("initializers", [])),
            framework_params=require_shape(
                spec.get("framework_params", {}), dict, "framework_params"
            ),
        )
    numbered = [(f"{i:04d}-{c.content_hash()}", c) for i, c in enumerate(configs)]
    violations = [f"config {cid}: {v}" for cid, c in numbered for v in validate(c, registry)]
    if violations:
        raise InvalidConfigurationError(violations)
    return numbered


def cmd_run(args) -> int:
    try:
        spec = require_shape(json.loads(Path(args.experiment).read_text()), dict, "experiment")
        problems = [
            _build_problem(e, f"problems[{i}]")
            for i, e in enumerate(require_shape(spec["problems"], list, "problems"))
        ]
        seeds = [
            SEED.checked("experiment", s) for s in require_shape(spec["seeds"], list, "seeds")
        ]
        if not problems or not seeds:
            raise ValueError("problems and seeds must be nonempty")
        registry = (
            load_registry(require_shape(spec["registry"], str, "registry"))
            if spec.get("registry")
            else default_registry()
        )
        configs = _configs_for(spec, registry)
        budget = _budget_terminate(require_shape(spec.get("budget") or {}, dict, "budget"))
        stride = TRACE_STRIDE.checked("experiment", spec.get("trace_stride", 1))
        out_dir = Path(require_shape(spec["out"], str, "out"))
        workers = WORKERS.checked("experiment", spec.get("workers", 1))
    except (OSError, KeyError, ValueError, ParseError, RegistrationError,
            UnknownComponentError, InvalidConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    trials = [
        (problem, config_id, config, seed)
        for problem in problems
        for config_id, config in configs
        for seed in seeds
    ]

    def execute(trial):
        problem, config_id, config, seed = trial
        start_clock = time.perf_counter()
        try:
            result = instantiate(
                config, registry, problem, seed, extra_terminate=budget
            )()
        except Exception as exc:
            return (problem.name, config_id, seed, None, None, None, str(exc))
        wall_ms = int((time.perf_counter() - start_clock) * 1000)
        rows = [
            row
            for i, row in enumerate(result.trace)
            if (i + 1) % stride == 0 or i == len(result.trace) - 1
        ]
        return (
            problem.name,
            config_id,
            seed,
            result.best_value,
            result.evaluations,
            wall_ms,
            rows,
        )

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(execute, trials))
    else:
        outcomes = [execute(t) for t in trials]

    out_dir.mkdir(parents=True, exist_ok=True)
    traces_dir = out_dir / "traces"
    traces_dir.mkdir(exist_ok=True)
    failures = 0
    outcomes.sort(key=lambda o: (o[0], o[1], o[2]))
    with open(out_dir / "results.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["problem", "config_id", "seed", "best_value", "evaluations", "wall_ms"])
        for outcome in outcomes:
            problem_id, config_id, seed = outcome[:3]
            if outcome[3] is None:
                failures += 1
                print(f"error: trial {problem_id} {config_id} {seed}: {outcome[6]}", file=sys.stderr)
                writer.writerow([problem_id, config_id, seed, "FAILED", "", ""])
                continue
            best_value, evaluations, wall_ms, rows = outcome[3:]
            writer.writerow([problem_id, config_id, seed, repr(best_value), evaluations, wall_ms])
            trace_path = traces_dir / f"{problem_id}__{config_id}__{seed}.csv"
            with open(trace_path, "w", newline="") as tfh:
                twriter = csv.writer(tfh)
                twriter.writerow(["iteration", "evaluations", "best_value"])
                for iteration, evals, value in rows:
                    twriter.writerow([iteration, evals, repr(value)])
    return EXIT_TRIAL_FAILURES if failures else EXIT_OK


COMPARE_COLUMNS = ("problem", "config_id", "best_value")


def cmd_compare(args) -> int:
    try:
        with open(args.results, newline="") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in COMPARE_COLUMNS if c not in (reader.fieldnames or ())]
            rows = list(reader)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if missing:
        print(f"error: {args.results} lacks column(s): {', '.join(missing)}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    groups: Dict[str, List[float]] = {}
    for number, row in enumerate(rows, start=1):
        if row["problem"] != args.problem or row["best_value"] == "FAILED":
            continue
        try:
            value = float(row["best_value"])
        except (TypeError, ValueError):  # None when the row is short
            print(
                f"error: {args.results} row {number}: best_value "
                f"{row['best_value']!r} is not a number",
                file=sys.stderr,
            )
            return EXIT_INPUT_ERROR
        groups.setdefault(row["config_id"], []).append(value)
    config_ids = sorted(groups)
    if len(config_ids) < 2:
        print("error: need at least 2 configs for the named problem", file=sys.stderr)
        return EXIT_INPUT_ERROR
    for cid in config_ids:
        if len(groups[cid]) < MIN_SEEDS_FOR_COMPARE:
            print(
                f"error: config {cid} has {len(groups[cid])} seeds; "
                f"minimum is {MIN_SEEDS_FOR_COMPARE}",
                file=sys.stderr,
            )
            return EXIT_INPUT_ERROR
    print(f"problem: {args.problem}  metric: {args.metric}")
    print(f"{'config':<24} {'n':>4} {'median':>12} {'iqr':>12}")
    for cid in config_ids:
        xs = groups[cid]
        print(f"{cid:<24} {len(xs):>4} {median(xs):>12.6g} {interquartile_range(xs):>12.6g}")
    print("pairwise Mann-Whitney U (two-sided, tie-corrected normal approximation):")
    for i, a in enumerate(config_ids):
        for b in config_ids[i + 1 :]:
            r = mann_whitney_u(groups[a], groups[b])
            print(f"  {a} vs {b}: U={r.u:g} p={r.p:.6g}")
    return EXIT_OK


def cmd_enumerate(args) -> int:
    try:
        registry = load_registry(args.registry)
        grids = _grids(json.loads(Path(args.grids).read_text())) if args.grids else {}
        initializers = (
            parse_initializers(json.loads(Path(args.initializers).read_text()))
            if args.initializers
            else ()
        )
        configs = enumerate_valid(registry, args.framework, grids, initializers)
    except (OSError, KeyError, ValueError, RegistrationError, UnknownComponentError,
            InvalidConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    out = {
        "count": len(configs),
        "configs": [
            {"id": f"{i:04d}-{c.content_hash()}", "spec": c.to_json()}
            for i, c in enumerate(configs)
        ],
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_serve(args) -> int:
    from .rpc import serve

    try:
        registry = load_registry(args.registry) if args.registry else default_registry()
    except (OSError, KeyError, ValueError, RegistrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        server = serve(registry, host=args.host, port=args.port)
    except OSError as exc:
        print(f"error: cannot bind port {args.port}: {exc}", file=sys.stderr)
        return EXIT_ENVIRONMENT_ERROR
    print(f"serving on {server.endpoint}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.close()
    return EXIT_OK


def cmd_solve(args) -> int:
    if args.budget <= 0:
        print("error: --budget must be positive", file=sys.stderr)
        return EXIT_INPUT_ERROR
    seed_problem = SEED.violation("solve", args.seed)
    if seed_problem is not None:
        print(f"error: {seed_problem}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        model = parse_model(Path(args.model).read_text())
        result, _env = dispatch_solve(model, args.budget, env_new(args.seed), penalty=args.penalty)
    except (OSError, UnicodeDecodeError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if result.route == "tsp":
        audit_path = Path(args.model).with_suffix(".tsplib")
        try:
            audit_path.write_text(tsplib_explicit_text(match_tsp(model)))
        except OSError as exc:
            print(f"error: cannot write the audit file: {exc}", file=sys.stderr)
            return EXIT_ENVIRONMENT_ERROR
    print(
        json.dumps(
            {
                "route_taken": result.route,
                "assignment": result.assignment,
                "value": result.value,
                "violations": result.violations,
            },
            sort_keys=True,
        )
    )
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="metafold")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment sweep")
    p_run.add_argument("experiment")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="summary statistics over results.csv")
    p_cmp.add_argument("results")
    p_cmp.add_argument("--problem", required=True)
    p_cmp.add_argument("--metric", default="final", choices=["final"])
    p_cmp.set_defaults(func=cmd_compare)

    p_enum = sub.add_parser("enumerate", help="enumerate valid configurations")
    p_enum.add_argument("registry")
    p_enum.add_argument("--framework", required=True)
    p_enum.add_argument("--grids")
    p_enum.add_argument("--initializers")
    p_enum.set_defaults(func=cmd_enumerate)

    p_srv = sub.add_parser("serve", help="host components over JSON-RPC")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, required=True)
    p_srv.add_argument("--registry")
    p_srv.set_defaults(func=cmd_serve)

    p_solve = sub.add_parser("solve", help="solve a declarative model")
    p_solve.add_argument("model")
    p_solve.add_argument("--budget", type=int, default=10000)
    p_solve.add_argument("--seed", type=int, default=1)
    p_solve.add_argument("--penalty", type=float, default=1000.0)
    p_solve.set_defaults(func=cmd_solve)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
