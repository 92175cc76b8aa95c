"""End-to-end acceptance suite.

Each test verifies one headline guarantee of the library and prints a
single PASS/FAIL line so the whole gate can be read off the log.
"""

import csv
import itertools
import json
import math

import pytest

from metafold.assembly import ConfigurationSpec, Registry, enumerate_valid, validate
from metafold.cli import main
from metafold.components import (
    K_INCOMING_VALUE,
    K_INCUMBENT_VALUE,
    K_TABU_LIST,
    K_TEMPERATURE,
    Component,
    accept_improving,
    accept_metropolis,
    accept_tabu,
    perturb_bitflip,
    perturb_two_opt,
    terminate_iterations,
    terminate_target,
)
from metafold.env import EnvValue, env_new, rng_below, rng_uniform
from metafold.frameworks import local_search, terminate_any
from metafold.palette import add_builtin, default_registry
from metafold.problems import (
    checkerboard,
    hiff,
    magic_square,
    onemax,
    parse_dimacs_cnf,
    parse_tsplib,
    royal_road,
    tour_length,
    trap,
)
from metafold.rpc import remote_perturb, serve
from metafold.solutions import (
    BitVector,
    Permutation,
    serialize_solution,
    solution_digest,
)
from metafold.stats import mann_whitney_u


def report(label, check):
    try:
        check()
    except BaseException:
        print(f"FAIL {label}")
        raise
    print(f"PASS {label}")


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def random_tsplib_text(n, seed):
    env = env_new(seed)
    coords = []
    for _ in range(n):
        x, env = rng_below(env, 1000)
        y, env = rng_below(env, 1000)
        coords.append((x, y))
    body = "\n".join(f"{i + 1} {x} {y}" for i, (x, y) in enumerate(coords))
    return (
        f"NAME : r{n}\nTYPE : TSP\nDIMENSION : {n}\n"
        f"EDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n{body}\nEOF\n"
    ), coords


@pytest.fixture(scope="module")
def server():
    s = serve(default_registry())
    yield s
    s.close()


def test_sweep_replay_is_byte_identical(tmp_path):
    def check():
        registry = write_json(
            tmp_path / "registry.json",
            {
                "components": [
                    {"name": "bitflip", "impl": "bitflip", "defaults": {"k": 1}},
                    {"name": "improving", "impl": "improving", "defaults": {}},
                    {
                        "name": "max_iterations",
                        "impl": "max_iterations",
                        "defaults": {"max": 200},
                    },
                ]
            },
        )
        snapshots = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            exp = write_json(
                tmp_path / f"{tag}.json",
                {
                    "problems": [
                        {"kind": "onemax", "n": 16},
                        {"kind": "checkerboard", "s": 4},
                        {"kind": "trap", "n": 16, "b": 4},
                    ],
                    "registry": registry,
                    "framework": "local_search",
                    "grids": {"bitflip": {"k": [1, 2, 3, 4, 5]}},
                    "seeds": [1, 2, 3, 4, 5],
                    "budget": {"iterations": 200},
                    "out": str(out),
                },
            )
            assert main(["run", exp]) == 0
            with open(out / "results.csv") as fh:
                rows = list(csv.reader(fh))
            assert len(rows) == 1 + 5 * 3 * 5  # header + configs x problems x seeds
            for row in rows[1:]:
                row[-1] = ""  # mask wall_ms
            traces = {
                p.name: p.read_bytes() for p in sorted((out / "traces").iterdir())
            }
            snapshots.append((rows, traces))
        assert snapshots[0] == snapshots[1]

    report("replayed sweep reproduces results and traces byte for byte", check)


def test_remote_components_reproduce_local_runs(server):
    tsp_text, _ = random_tsplib_text(10, 42)
    cases = [
        (onemax(32), "bitflip", {"k": 1}, perturb_bitflip(1)),
        (parse_tsplib(tsp_text), "two_opt", {}, perturb_two_opt()),
    ]

    def check():
        for problem, name, params, local in cases:
            remote = remote_perturb(server.endpoint, name, params)
            for seed in range(1, 11):
                results = []
                for perturb in (local, remote):
                    start, env = problem.sample_initial(env_new(seed))
                    results.append(
                        local_search(
                            start,
                            problem.evaluate,
                            perturb,
                            accept_improving(),
                            terminate_iterations(150),
                            env,
                        )
                    )
                a, b = results
                assert serialize_solution(a.best) == serialize_solution(b.best)
                assert repr(a.best_value) == repr(b.best_value)
                assert a.trace == b.trace
                assert a.final_env.serialize() == b.final_env.serialize()

    report("loopback remote components reproduce local runs byte for byte", check)


def test_enumeration_equals_brute_force_product():
    reg = Registry()
    reg = add_builtin(reg, "bitflip", "bitflip_1", {"k": 1})
    reg = add_builtin(reg, "bitflip", "bitflip_3", {"k": 3})
    reg = add_builtin(reg, "swap")
    reg = add_builtin(reg, "two_opt")
    reg = add_builtin(reg, "improving")
    reg = add_builtin(reg, "metropolis", "metropolis_fast", {"cooling": 0.9})
    reg = add_builtin(reg, "metropolis", "metropolis_slow", {"cooling": 0.99})
    reg = add_builtin(reg, "tabu", defaults={"tenure": 5})
    reg = add_builtin(reg, "max_iterations", defaults={"max": 100})
    reg = add_builtin(reg, "max_evaluations", defaults={"max": 100})
    reg = add_builtin(reg, "target_value")

    perturbs = [("bitflip_1", {"k": 1}), ("bitflip_3", {"k": 3}), ("swap", {}), ("two_opt", {})]
    accepts = [
        ("improving", {}),
        ("metropolis_fast", {"cooling": 0.9}),
        ("metropolis_slow", {"cooling": 0.99}),
        ("tabu", {"tenure": 5}),
    ]
    terminates = [
        ("max_evaluations", {"max": 100}),
        ("max_iterations", {"max": 100}),
        ("target_value", {"target": 0.0}),
    ]
    tabu_init = (K_TABU_LIST, EnvValue.of_dseq(()))
    sa_init = (K_TEMPERATURE, EnvValue.of_real(10.0))

    def brute(initializers):
        out = []
        for combo in itertools.product(perturbs, accepts, terminates):
            spec = ConfigurationSpec.make(
                "local_search",
                {"perturb": combo[0], "accept": combo[1], "terminate": combo[2]},
                initializers=initializers,
            )
            if not validate(spec, reg):
                out.append(spec)
        return out

    def check():
        counts = {}
        for label, initializers in (
            ("without", (tabu_init,)),
            ("with", (tabu_init, sa_init)),
        ):
            enumerated = enumerate_valid(
                reg, "local_search", {}, initializers=initializers
            )
            expected = brute(initializers)
            assert sorted(s.serialize() for s in enumerated) == sorted(
                s.serialize() for s in expected
            )
            counts[label] = len(enumerated)
        assert counts["without"] == 4 * 2 * 3  # metropolis pair filtered out
        assert counts["with"] == 4 * 4 * 3
        # the gap is exactly the metropolis-bearing configurations
        assert counts["with"] - counts["without"] == 4 * 2 * 3

    report("enumerated design space equals brute-force validated product", check)


def test_evaluators_match_exhaustive_oracles():
    def bitstrings(n):
        for i in range(2**n):
            yield [(i >> j) & 1 for j in range(n)]

    def value(problem, sol):
        v, _ = problem.evaluate(sol, env_new(0))
        return v

    def check():
        # bit-vector families against direct-summation oracles
        p = onemax(8)
        for bits in bitstrings(8):
            assert value(p, BitVector(bits)) == 8 - sum(bits)

        s = 3
        p = checkerboard(s)
        for bits in bitstrings(s * s):
            equal = 0
            for r in range(s):
                for c in range(s):
                    if c + 1 < s and bits[r * s + c] == bits[r * s + c + 1]:
                        equal += 1
                    if r + 1 < s and bits[r * s + c] == bits[(r + 1) * s + c]:
                        equal += 1
            assert value(p, BitVector(bits)) == equal

        n, b = 12, 4
        p = royal_road(n, b)
        for bits in bitstrings(n):
            complete = sum(
                1 for i in range(0, n, b) if all(bits[i : i + b])
            )
            assert value(p, BitVector(bits)) == n - b * complete

        n, b = 10, 5
        p = trap(n, b)
        total = 0
        for bits in bitstrings(n):
            expected = 0
            for i in range(0, n, b):
                ones = sum(bits[i : i + b])
                score = b if ones == b else b - 1 - ones
                expected += b - score
            assert value(p, BitVector(bits)) == expected

        n, k = 8, 3
        p = hiff(n)
        for bits in bitstrings(n):
            f = 0
            for level in range(k + 1):
                size = 2**level
                for start in range(0, n, size):
                    if len(set(bits[start : start + size])) == 1:
                        f += size
            assert value(p, BitVector(bits)) == n * (k + 1) - f

        # TSP tour lengths against full enumeration
        text, coords = random_tsplib_text(5, 7)
        p = parse_tsplib(text)
        for rest in itertools.permutations(range(1, 5)):
            tour = (0,) + rest
            assert value(p, Permutation(tour)) == tour_length(tour, coords)

        # MAX-SAT against a clause-scan oracle on every assignment
        env = env_new(99)
        clauses = []
        for _ in range(40):
            clause, seen = [], set()
            while len(clause) < 3:
                v, env = rng_below(env, 10)
                if v in seen:
                    continue
                seen.add(v)
                sign, env = rng_below(env, 2)
                clause.append((v + 1) * (1 if sign else -1))
            clauses.append(clause)
        text = "p cnf 10 40\n" + "\n".join(
            " ".join(str(l) for l in cl) + " 0" for cl in clauses
        )
        p = parse_dimacs_cnf(text)
        for bits in bitstrings(10):
            unsat = sum(
                1
                for cl in clauses
                if not any((lit > 0) == bool(bits[abs(lit) - 1]) for lit in cl)
            )
            assert value(p, BitVector(bits)) == unsat

        # magic square: identity layout summed by hand
        grid = [[r * 3 + c + 1 for c in range(3)] for r in range(3)]
        magic = 15
        deviation = sum(abs(sum(row) - magic) for row in grid)
        deviation += sum(abs(sum(grid[r][c] for r in range(3)) - magic) for c in range(3))
        deviation += abs(sum(grid[i][i] for i in range(3)) - magic)
        deviation += abs(sum(grid[i][2 - i] for i in range(3)) - magic)
        assert deviation == 24
        assert value(magic_square(3), Permutation(range(9))) == 24

    report("benchmark evaluators equal exhaustive oracles", check)


def test_zero_temperature_metropolis_degenerates_to_improving():
    a = BitVector.from_string("0000")
    b = BitVector.from_string("1111")

    def check():
        metropolis = accept_metropolis(1.0)
        improving = accept_improving()
        env = env_new(31)
        for _ in range(10_000):
            incumbent_v, env = rng_uniform(env)
            incoming_v, env = rng_uniform(env)
            base = (
                env.put(K_TEMPERATURE, EnvValue.of_real(0.0))
                .put(K_INCUMBENT_VALUE, EnvValue.of_real(incumbent_v))
                .put(K_INCOMING_VALUE, EnvValue.of_real(incoming_v))
            )
            out_m, env_m = metropolis((a, b), base)
            out_i, env_i = improving((a, b), base)
            assert out_m == out_i
            assert env_m.rng.counter == env_i.rng.counter

        # full trajectories agree too
        problem = onemax(16)
        for seed in range(1, 6):
            runs = []
            for accept, init_temperature in ((metropolis, True), (improving, False)):
                start, env = problem.sample_initial(env_new(seed))
                if init_temperature:
                    env = env.put(K_TEMPERATURE, EnvValue.of_real(0.0))
                runs.append(
                    local_search(
                        start,
                        problem.evaluate,
                        perturb_bitflip(1),
                        accept,
                        terminate_iterations(400),
                        env,
                    )
                )
            assert runs[0].best == runs[1].best
            assert runs[0].trace == runs[1].trace
            assert runs[0].final_env.rng.counter == runs[1].final_env.rng.counter

    report("zero-temperature annealing matches improving acceptance", check)


def test_tabu_never_reaccepts_listed_digest():
    def check():
        problem = onemax(16)
        for tenure in (1, 5, 10):
            tabu = accept_tabu(tenure)
            checked = []

            def instrumented(pair, env):
                incumbent, incoming = pair
                stored = env.get(K_TABU_LIST)
                pre = tuple(stored.value) if stored else ()
                out, env = tabu.step(pair, env)
                if out == incoming and out != incumbent:
                    assert solution_digest(out) not in pre
                    checked.append(1)
                return out, env

            start, env = problem.sample_initial(env_new(tenure))
            env = env.put(K_TABU_LIST, EnvValue.of_dseq(()))
            local_search(
                start,
                problem.evaluate,
                perturb_bitflip(1),
                Component(tabu.descriptor, instrumented),
                terminate_iterations(1000),
                env,
            )
            assert checked  # the invariant was actually exercised

    report("tabu acceptance never re-admits a listed digest", check)


def test_model_dispatch_routes_and_solves():
    from metafold.whitebox import (
        DEFAULT_PENALTY,
        count_violations,
        dispatch_solve,
        objective_value,
        parse_model,
    )

    n = 5
    W = [
        [0, 2, 9, 10, 7],
        [2, 0, 6, 4, 3],
        [9, 6, 0, 8, 5],
        [10, 4, 8, 0, 6],
        [7, 3, 5, 6, 0],
    ]
    names = [f"x{i}" for i in range(n)]
    doc = {
        "variables": [{"name": v, "lo": 0, "hi": n - 1} for v in names],
        "constraints": [{"type": "all_different", "vars": names}],
        "objective": {"type": "circuit_sum", "vars": names, "weights": W},
    }

    def check():
        model = parse_model(json.dumps(doc))
        optimum = min(
            sum(W[p[i]][p[(i + 1) % n]] for i in range(n))
            for p in itertools.permutations(range(n))
        )
        wins = 0
        for seed in range(1, 21):
            result, _ = dispatch_solve(model, 10_000, env_new(seed))
            assert result.route == "tsp"
            if result.value == optimum:
                wins += 1
        assert wins >= 18

        perturbed = dict(doc)
        perturbed["constraints"] = doc["constraints"] + [
            {"type": "table", "vars": ["x0"], "tuples": [[0]]}
        ]
        model2 = parse_model(json.dumps(perturbed))
        result, _ = dispatch_solve(model2, 2000, env_new(1))
        assert result.route == "generic"
        assert result.value == objective_value(model2, result.assignment)
        assert result.violations == count_violations(model2, result.assignment)
        internal = result.value + DEFAULT_PENALTY * result.violations
        assert internal >= result.value

    report("declarative models route correctly and reach the known optimum", check)


def test_hill_climber_solves_onemax_reliably():
    def check():
        problem = onemax(32)
        solved = 0
        for seed in range(1, 21):
            start, env = problem.sample_initial(env_new(seed))
            r = local_search(
                start,
                problem.evaluate,
                perturb_bitflip(1),
                accept_improving(),
                terminate_any(terminate_iterations(10_000), terminate_target(0.0)),
                env,
            )
            if r.best_value == 0.0:
                solved += 1
        assert solved >= 19

    report("bitflip hill climber solves the 32-bit counting problem", check)


def test_rank_statistics_match_brute_force():
    def brute_u(a, b):
        u1 = 0.0
        for x in a:
            for y in b:
                if x > y:
                    u1 += 1.0
                elif x == y:
                    u1 += 0.5
        return u1

    def brute_p(a, b):
        n1, n2, n = len(a), len(b), len(a) + len(b)
        u1 = brute_u(a, b)
        u = min(u1, n1 * n2 - u1)
        values = sorted(list(a) + list(b))
        tie_term = sum(
            t**3 - t
            for t in (
                len(list(g)) for _, g in itertools.groupby(values)
            )
        )
        mu = n1 * n2 / 2.0
        var = (n1 * n2 / 12.0) * ((n + 1) - tie_term / (n * (n - 1))) if n > 1 else 0.0
        if var <= 0:
            return 1.0
        z = min(0.0, (u - mu + 0.5) / math.sqrt(var))
        return min(1.0, 2.0 * 0.5 * math.erfc(-z / math.sqrt(2.0)))

    def check():
        env = env_new(17)
        for _ in range(200):
            n1, env = rng_below(env, 20)
            n2, env = rng_below(env, 20)
            a, b = [], []
            for _ in range(n1 + 1):
                v, env = rng_below(env, 8)  # small range forces ties
                a.append(float(v))
            for _ in range(n2 + 1):
                v, env = rng_below(env, 8)
                b.append(float(v))
            r = mann_whitney_u(a, b)
            u1 = brute_u(a, b)
            assert r.u1 == u1
            assert r.u == min(u1, len(a) * len(b) - u1)
            assert r.p == pytest.approx(brute_p(a, b), abs=1e-12)
        same = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]
        assert mann_whitney_u(same, list(same)).p >= 0.99

    report("rank statistics equal brute-force pair counting", check)
