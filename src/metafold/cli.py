"""Operator-facing command line: experiment sweeps, comparison statistics,
design-space enumeration, the RPC server, and white-box solving.

Results are plain CSV so they diff and feed external analysis; everything
except wall-clock time is a pure function of the experiment file bytes.
A command loads what only it uses (argparse, csv, the statistics, the RPC
server) on its first call.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from . import problems as prob
from .assembly import (
    ConfigurationSpec,
    InvalidConfigurationError,
    Registry,
    enumerate_valid,
    instantiate,
    parse_initializers,
    runs_as,
    validate,
)
from .components import Param, terminate_evaluations, terminate_iterations
from .env import ShapeError, env_new, loads, read, read_variant
from .frameworks import terminate_any
from .palette import default_registry, load_registry
from .problems import ProblemInstance
from .whitebox import (
    AUDIT_FIRST_LINE, DEFAULT_PENALTY, dispatch_solve, match_tsp, parse_model,
    tsplib_explicit_text,
)

EXIT_OK = 0
EXIT_TRIAL_FAILURES = 1
EXIT_INPUT_ERROR = 2
EXIT_ENVIRONMENT_ERROR = 3

MIN_SEEDS_FOR_COMPARE = 5


# what bad input raises at each command's boundary: every reader refuses
# bad outside input with a ValueError, its own error classes included;
# RecursionError is JSON nested too deep to read
INPUT_ERRORS = (OSError, KeyError, ValueError, RecursionError)


def _refuse(message, code: int = EXIT_INPUT_ERROR) -> int:
    """`code`, after printing `error: <message>` to stderr."""
    print(f"error: {message}", file=sys.stderr)
    return code


# kind -> (constructor, its fields in call order); a "path" field hands the
# constructor the text of the named file. Sizes are capped so that no
# problem has more than prob.MAX_SIZE elements; s and k are squared.
SIZE_MAX = prob.MAX_SIZE
SIDE_MAX = math.isqrt(prob.MAX_SIZE)
PROBLEM_KINDS = {
    "onemax": (prob.onemax, (Param("n", "int", None, max=SIZE_MAX),)),
    "checkerboard": (prob.checkerboard, (Param("s", "int", None, max=SIDE_MAX),)),
    "royal_road": (
        prob.royal_road, (Param("n", "int", None, max=SIZE_MAX), Param("b", "int", None))
    ),
    "trap": (prob.trap, (Param("n", "int", None, max=SIZE_MAX), Param("b", "int", None))),
    "hiff": (prob.hiff, (Param("n", "int", None, max=SIZE_MAX),)),
    "sphere": (
        prob.sphere,
        (Param("d", "int", None, max=SIZE_MAX), Param("lo", "real", None),
         Param("hi", "real", None)),
    ),
    "magic_square": (prob.magic_square, (Param("k", "int", None, max=SIDE_MAX),)),
    "dimacs": (prob.parse_dimacs_cnf, (Param("path", "path", None),)),
    "tsplib": (prob.parse_tsplib, (Param("path", "path", None),)),
}


# kind -> the shape of its entries, as `read` takes it: "kind" and its
# fields, a path as a string and any other field read by its Param
_PROBLEM_SHAPES = {
    kind: {"kind": "string", **{f.name: "string" if f.type == "path" else "any" for f in fields}}
    for kind, (_, fields) in PROBLEM_KINDS.items()
}

# An experiment file. Each problem entry is read by its kind, the seeds by
# SEED, and the keys configs are made from by `_configs_for`, which
# `enumerate` shares; "workers", from older files, is ignored.
_EXPERIMENT = {
    "problems": "array",
    "seeds": "array",
    "out": "string",
    "registry": ("optional", "string"),
    "budget": ("optional", "object"),
    "trace_stride": ("optional", "any"),
    "workers": ("optional", "any"),
    "framework": ("optional", "any"),
    "grids": ("optional", "any"),
    "initializers": ("optional", "any"),
    "framework_params": ("optional", "any"),
    "configs": ("optional", "any"),
}
# component -> param -> the values its grid takes
_GRIDS = ("object of", ("object of", "array"))

# experiment fields that are integers
SEED = Param("seed", "int", None, min=0, max=2**64 - 1)
TRACE_STRIDE = Param("trace_stride", "int", None, min=1)


def _build_problem(entry: Dict, where: str) -> ProblemInstance:
    if read_variant(entry, _PROBLEM_SHAPES, "kind", where) is None:
        raise ValueError(f"unknown problem kind: {entry['kind']!r}")
    ctor, fields = PROBLEM_KINDS[entry["kind"]]
    return ctor(*(
        Path(entry[field.name]).read_text() if field.type == "path"
        else field.checked(where, entry[field.name])
        for field in fields
    ))


def _budget_terminate(budget: Dict):
    for key in budget:
        if key not in ("iterations", "evaluations"):
            raise ValueError(f"budget: unknown key {key!r}; want iterations or evaluations")
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
        # the keys configs are enumerated from, which listed configs would ignore
        enumeration = ("framework", "grids", "initializers", "framework_params")
        ignored = [key for key in enumeration if key in spec]
        if ignored:
            raise ValueError(f"an experiment with configs cannot have {', '.join(ignored)}")
        configs = [
            ConfigurationSpec.from_json(c, f"configs[{i}]")
            for i, c in enumerate(read(spec["configs"], "array", "configs"))
        ]
    elif "framework" not in spec:
        raise ShapeError("missing key 'framework' at experiment")
    else:
        configs = enumerate_valid(
            registry,
            read(spec["framework"], "string", "framework"),
            read(spec.get("grids", {}), _GRIDS, "grids"),
            initializers=parse_initializers(spec.get("initializers", [])),
            framework_params=read(spec.get("framework_params", {}), "object", "framework_params"),
        )
    numbered = [(f"{i:04d}-{c.content_hash()}", c) for i, c in enumerate(configs)]
    if "configs" in spec:  # enumerate_valid yields valid configurations only
        violations = [f"config {cid}: {v}" for cid, c in numbered for v in validate(c, registry)]
        if violations:
            raise InvalidConfigurationError(violations)
        # one run twice would be two configs in `compare`: a parameter left
        # at its default and one bound to it run alike, and initializers
        # hold distinct keys, so their order does not matter
        runs = [runs_as(c, registry) for c in configs]
        for i, run in enumerate(runs):
            first = runs.index(run)
            if first < i:
                raise ValueError(f"configs[{i}] repeats configs[{first}]")
    return numbered


def cmd_run(args) -> int:
    try:
        spec = loads(Path(args.experiment).read_text())
        read(spec, _EXPERIMENT, "experiment", "")
        problems = [_build_problem(e, f"problems[{i}]") for i, e in enumerate(spec["problems"])]
        names = [p.name for p in problems]  # a name keys each row and trace file
        for i, name in enumerate(names):
            if "/" in name or "\0" in name:
                raise ValueError(f"problems[{i}]: name {name!r} cannot name a trace file")
            first = names.index(name)
            if first < i:
                raise ValueError(f"problems[{i}] repeats the name {name!r} of problems[{first}]")
        seeds = [SEED.checked("experiment", s) for s in spec["seeds"]]
        for i, seed in enumerate(seeds):
            if seeds.index(seed) < i:
                raise ValueError(f"seeds[{i}] repeats seed {seed}")
        if not problems or not seeds:
            raise ValueError("problems and seeds must be nonempty")
        # only an absent registry or budget takes the default: "registry": ""
        # names no file, and "budget": null is no object
        registry = load_registry(spec["registry"]) if "registry" in spec else default_registry()
        configs = _configs_for(spec, registry)
        if not configs:
            raise ValueError("the experiment yields no configuration to run")
        budget = _budget_terminate(spec.get("budget", {}))
        stride = TRACE_STRIDE.checked("experiment", spec.get("trace_stride", 1))
        out_dir = Path(spec["out"])
    except INPUT_ERRORS as exc:
        return _refuse(exc)
    traces_dir = out_dir / "traces"
    try:
        traces_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _refuse(f"cannot create the output directory: {exc}", EXIT_ENVIRONMENT_ERROR)

    # in output order, so each trial's row and trace are written as it ends
    trials = sorted(
        ((problem, config_id, config, seed)
         for problem in problems for config_id, config in configs for seed in seeds),
        key=lambda t: (t[0].name, t[1], t[3]),
    )
    import csv

    failed = False
    try:
        with open(out_dir / "results.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["problem", "config_id", "seed", "best_value", "evaluations", "wall_ms"])
            for problem, config_id, config, seed in trials:
                start_clock = time.perf_counter()
                try:
                    run = instantiate(config, registry, problem, seed, extra_terminate=budget)
                    result = run()
                except Exception as exc:
                    failed = True
                    print(f"error: trial {problem.name} {config_id} {seed}: {exc}", file=sys.stderr)
                    writer.writerow([problem.name, config_id, seed, "FAILED", "", ""])
                    continue
                # to the microsecond: many trials take less than a millisecond
                wall_ms = round((time.perf_counter() - start_clock) * 1000, 3)
                best = repr(result.best_value)
                writer.writerow([problem.name, config_id, seed, best, result.evaluations, wall_ms])
                trace_path = traces_dir / f"{problem.name}__{config_id}__{seed}.csv"
                with open(trace_path, "w", newline="") as tfh:
                    twriter = csv.writer(tfh)
                    twriter.writerow(["iteration", "evaluations", "best_value"])
                    last = len(result.trace) - 1
                    for i, (iteration, evals, value) in enumerate(result.trace):
                        if (i + 1) % stride == 0 or i == last:
                            twriter.writerow([iteration, evals, repr(value)])
    except OSError as exc:  # say, results.csv is a directory
        return _refuse(f"cannot write the results: {exc}", EXIT_ENVIRONMENT_ERROR)
    return EXIT_TRIAL_FAILURES if failed else EXIT_OK


COMPARE_COLUMNS = ("problem", "config_id", "best_value")


def cmd_compare(args) -> int:
    import csv

    from .stats import interquartile_range, mann_whitney_u, median

    try:
        with open(args.results, newline="") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in COMPARE_COLUMNS if c not in (reader.fieldnames or ())]
            rows = list(reader)
    except (OSError, ValueError, csv.Error) as exc:  # ValueError: not UTF-8
        return _refuse(f"{args.results}: {exc}")
    if missing:
        return _refuse(f"{args.results} lacks column(s): {', '.join(missing)}")
    groups: Dict[str, List[float]] = {}
    trials: Dict[Tuple[str, str], int] = {}  # (config_id, seed) -> its first row's number
    for number, row in enumerate(rows, start=1):
        if row["problem"] != args.problem or row["best_value"] == "FAILED":
            continue
        try:
            value = float(row["best_value"])
        except (TypeError, ValueError):  # None when the row is short
            value = math.nan
        if math.isnan(value):  # a nan does not order, so no rank test can use it
            return _refuse(
                f"{args.results} row {number}: best_value {row['best_value']!r} is not a number"
            )
        if row["config_id"] is None:  # a short row whose header puts config_id last
            return _refuse(f"{args.results} row {number}: no config_id")
        if "seed" in reader.fieldnames:  # one trial counted twice would be two samples
            first = trials.setdefault((row["config_id"], row["seed"]), number)
            if first != number:
                return _refuse(
                    f"{args.results} rows {first} and {number} repeat config "
                    f"{row['config_id']} seed {row['seed']}"
                )
        groups.setdefault(row["config_id"], []).append(value)
    config_ids = sorted(groups)
    if len(config_ids) < 2:
        return _refuse("need at least 2 configs for the named problem")
    for cid in config_ids:
        if len(groups[cid]) < MIN_SEEDS_FOR_COMPARE:
            return _refuse(
                f"config {cid} has {len(groups[cid])} seeds; minimum is {MIN_SEEDS_FOR_COMPARE}"
            )
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
    spec = {"framework": args.framework}
    try:
        registry = load_registry(args.registry)
        if args.grids is not None:
            spec["grids"] = loads(Path(args.grids).read_text())
        if args.initializers is not None:
            spec["initializers"] = loads(Path(args.initializers).read_text())
        configs = _configs_for(spec, registry)
    except INPUT_ERRORS as exc:
        return _refuse(exc)
    out = {
        "count": len(configs),
        "configs": [{"id": config_id, "spec": c.to_json()} for config_id, c in configs],
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_serve(args) -> int:
    from .rpc import serve

    try:
        registry = default_registry() if args.registry is None else load_registry(args.registry)
    except INPUT_ERRORS as exc:
        return _refuse(exc)
    try:
        server = serve(registry, host=args.host, port=args.port)
    except (ValueError, OverflowError) as exc:  # an empty registry, a port past 0-65535
        return _refuse(exc)
    except OSError as exc:
        return _refuse(f"cannot bind port {args.port}: {exc}", EXIT_ENVIRONMENT_ERROR)
    print(f"serving on {server.endpoint}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.close()
    return EXIT_OK


def _is_audit(path: Path) -> bool:
    """Whether the file at `path` starts as an audit that solve wrote."""
    with path.open("rb") as f:
        return f.readline(64).rstrip(b"\r\n") == AUDIT_FIRST_LINE.encode("ascii")


def cmd_solve(args) -> int:
    if args.budget <= 0:
        return _refuse("--budget must be positive")
    seed_problem = SEED.violation("solve", args.seed)
    if seed_problem is not None:
        return _refuse(seed_problem)
    if not 0.0 <= args.penalty < math.inf:  # NaN fails both
        return _refuse(f"--penalty must be finite and >= 0, not {args.penalty}")
    try:
        model = parse_model(Path(args.model).read_text())
        match = match_tsp(model)
        audit_path = Path(args.model).with_suffix(".tsplib")
        # the model itself, by its name, through a link, or in another case
        # on a file system that ignores case
        if match is not None and audit_path.exists() and audit_path.samefile(args.model):
            return _refuse(f"the audit file {audit_path} would overwrite the model")
        # a file of the user's own there, and not an earlier audit; a
        # directory there fails the write below
        if match is not None and audit_path.is_file() and not _is_audit(audit_path):
            return _refuse(
                f"the audit file {audit_path} would overwrite a file that is not an audit"
            )
        result, _env = dispatch_solve(model, args.budget, env_new(args.seed), penalty=args.penalty)
    except INPUT_ERRORS as exc:
        return _refuse(exc)
    if result.route == "tsp":
        try:
            audit_path.write_text(tsplib_explicit_text(match))
        except OSError as exc:
            return _refuse(f"cannot write the audit file: {exc}", EXIT_ENVIRONMENT_ERROR)
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


@functools.cache  # once per process: parsing leaves the parser as it was
def _parser():
    import argparse

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
    p_solve.add_argument("--penalty", type=float, default=DEFAULT_PENALTY)
    p_solve.set_defaults(func=cmd_solve)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
