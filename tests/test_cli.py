import csv
import gc
import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from metafold import problems as prob
from metafold.cli import main
from metafold.stats import median


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def read_results(out_dir):
    with open(out_dir / "results.csv") as fh:
        return list(csv.DictReader(fh))


BIT_REGISTRY = {
    "components": [
        {"name": "bitflip_1", "impl": "bitflip", "defaults": {"k": 1}},
        {"name": "bitflip_2", "impl": "bitflip", "defaults": {"k": 2}},
        {"name": "improving", "impl": "improving", "defaults": {}},
        {"name": "max_iterations", "impl": "max_iterations", "defaults": {"max": 1000}},
        {"name": "target_value", "impl": "target_value", "defaults": {"target": 0.0}},
    ]
}


def experiment(tmp_path, out_dir, seeds, grids=None, initializers=None, **extra):
    doc = {
        "problems": [{"kind": "onemax", "n": 16}],
        "registry": write_json(tmp_path / "registry.json", BIT_REGISTRY),
        "framework": "local_search",
        "grids": grids or {},
        "seeds": seeds,
        "budget": {"iterations": 200},
        "out": str(out_dir),
    }
    if initializers:
        doc["initializers"] = initializers
    doc.update(extra)
    return doc


SA_INIT = [{"key": "sa.temperature", "value": {"t": "real", "v": 5.0}}]


class TestRun:
    def test_row_count_and_columns(self, tmp_path):
        out = tmp_path / "out"
        exp = write_json(tmp_path / "e.json", experiment(tmp_path, out, [1, 2, 3]))
        assert main(["run", exp]) == 0
        rows = read_results(out)
        # 2 perturbs x 1 accept x 2 terminators from the registry file
        configs = {r["config_id"] for r in rows}
        assert len(configs) == 4
        assert len(rows) == len(configs) * 3
        assert set(rows[0]) == {
            "problem", "config_id", "seed", "best_value", "evaluations", "wall_ms",
        }

    def test_rerun_identical_except_wall_ms(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            exp = write_json(tmp_path / f"{tag}.json", experiment(tmp_path, out, [1, 2]))
            assert main(["run", exp]) == 0
            rows = read_results(out)
            outs.append([{k: v for k, v in r.items() if k != "wall_ms"} for r in rows])
        assert outs[0] == outs[1]

    def test_traces_written_with_stride(self, tmp_path):
        out = tmp_path / "out"
        exp = write_json(
            tmp_path / "e.json", experiment(tmp_path, out, [1], trace_stride=50)
        )
        assert main(["run", exp]) == 0
        rows = read_results(out)
        for row in rows:
            trace = out / "traces" / f"{row['problem']}__{row['config_id']}__{row['seed']}.csv"
            assert trace.exists()
            with open(trace) as fh:
                lines = list(csv.DictReader(fh))
            iterations = [int(l["iteration"]) for l in lines]
            assert all(i % 50 == 0 for i in iterations[:-1])
            assert iterations[-1] <= 200
            # last trace row agrees with the summary
            assert lines[-1]["best_value"] == row["best_value"]

    def test_workers_do_not_change_results(self, tmp_path):
        results = []
        for tag, workers in (("w1", 1), ("w4", 4)):
            out = tmp_path / tag
            exp = write_json(
                tmp_path / f"{tag}.json", experiment(tmp_path, out, [1, 2, 3], workers=workers)
            )
            assert main(["run", exp]) == 0
            rows = read_results(out)
            results.append([{k: v for k, v in r.items() if k != "wall_ms"} for r in rows])
        assert results[0] == results[1]

    def test_explicit_configs_and_initializers(self, tmp_path):
        out = tmp_path / "out"
        spec = {
            "framework": "local_search",
            "slots": {
                "perturb": {"component": "bitflip", "params": {"k": 1}},
                "accept": {"component": "metropolis", "params": {"cooling": 0.95}},
                "terminate": {"component": "max_iterations", "params": {"max": 100}},
            },
            "initializers": [{"key": "sa.temperature", "value": {"t": "real", "v": 5.0}}],
        }
        exp = write_json(
            tmp_path / "e.json",
            {
                "problems": [{"kind": "onemax", "n": 16}],
                "configs": [spec],
                "seeds": [1, 2],
                "out": str(out),
            },
        )
        assert main(["run", exp]) == 0
        assert len(read_results(out)) == 2

    def test_bad_experiment_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["run", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_out_key_exit_2(self, tmp_path):
        doc = experiment(tmp_path, tmp_path / "out", [1])
        del doc["out"]
        exp = write_json(tmp_path / "e.json", doc)
        assert main(["run", exp]) == 2

    def test_failing_trial_marks_row_and_exit_1(self, tmp_path):
        # gaussian perturb on a bit-vector problem fails at run time
        out = tmp_path / "out"
        spec = {
            "framework": "local_search",
            "slots": {
                "perturb": {"component": "gaussian", "params": {"sigma": 0.1}},
                "accept": {"component": "improving", "params": {}},
                "terminate": {"component": "max_iterations", "params": {"max": 10}},
            },
        }
        exp = write_json(
            tmp_path / "e.json",
            {
                "problems": [{"kind": "onemax", "n": 8}],
                "configs": [spec],
                "seeds": [1],
                "out": str(out),
            },
        )
        assert main(["run", exp]) == 1
        rows = read_results(out)
        assert rows[0]["best_value"] == "FAILED"


class TestCompare:
    def make_results(self, tmp_path, groups):
        path = tmp_path / "results.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["problem", "config_id", "seed", "best_value", "evaluations", "wall_ms"])
            for cid, values in groups.items():
                for seed, v in enumerate(values):
                    w.writerow(["p", cid, seed, v, 10, 1])
        return str(path)

    def test_identical_groups_high_p(self, tmp_path, capsys):
        xs = [3.0, 1.0, 2.0, 5.0, 4.0]
        path = self.make_results(tmp_path, {"a": xs, "b": xs})
        assert main(["compare", path, "--problem", "p"]) == 0
        text = capsys.readouterr().out
        p = float(text.rsplit("p=", 1)[1])
        assert p >= 0.99

    def test_separated_groups_u_zero(self, tmp_path, capsys):
        path = self.make_results(
            tmp_path, {"a": [1, 2, 3, 4, 5], "b": [10, 11, 12, 13, 14]}
        )
        assert main(["compare", path, "--problem", "p"]) == 0
        text = capsys.readouterr().out
        assert "U=0 " in text

    def test_median_printed(self, tmp_path, capsys):
        xs = [4.0, 1.0, 3.0, 2.0, 10.0]
        path = self.make_results(tmp_path, {"a": xs, "b": [0, 0, 0, 0, 0]})
        assert main(["compare", path, "--problem", "p"]) == 0
        line = [
            l for l in capsys.readouterr().out.splitlines() if l.startswith("a")
        ][0]
        assert float(line.split()[2]) == median(xs) == 3.0

    def test_too_few_seeds_exit_2(self, tmp_path, capsys):
        path = self.make_results(tmp_path, {"a": [1, 2, 3], "b": [4, 5, 6]})
        assert main(["compare", path, "--problem", "p"]) == 2
        assert "minimum" in capsys.readouterr().err

    def test_single_config_exit_2(self, tmp_path):
        path = self.make_results(tmp_path, {"a": [1, 2, 3, 4, 5]})
        assert main(["compare", path, "--problem", "p"]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["compare", str(tmp_path / "nope.csv"), "--problem", "p"]) == 2

    @pytest.mark.parametrize("column", ["problem", "config_id", "best_value"])
    def test_missing_column_exit_2(self, tmp_path, capsys, column):
        path = tmp_path / "results.csv"
        header = [c for c in ("problem", "config_id", "seed", "best_value") if c != column]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for seed in range(5):
                w.writerow(["x"] * len(header))
        assert main(["compare", str(path), "--problem", "p"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and column in err

    def test_results_file_is_closed(self, tmp_path):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0]
        path = self.make_results(tmp_path, {"a": xs, "b": xs})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["compare", path, "--problem", "p"]) == 0
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


    @pytest.mark.parametrize(
        "bad_row",
        [["p", "a", "9", "not-a-number"], ["p", "a", "9"], ["p", "a"]],
        ids=["non_numeric", "short_row", "shorter_row"],
    )
    def test_malformed_best_value_exit_2(self, tmp_path, capsys, bad_row):
        path = self.make_results(tmp_path, {"a": [1, 2, 3, 4, 5], "b": [6, 7, 8, 9, 10]})
        with open(path, "a", newline="") as fh:
            csv.writer(fh).writerow(bad_row)
        assert main(["compare", path, "--problem", "p"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "best_value" in captured.err
        assert "Traceback" not in captured.err

    def test_malformed_row_of_another_problem_is_ignored(self, tmp_path):
        path = self.make_results(tmp_path, {"a": [1, 2, 3, 4, 5], "b": [6, 7, 8, 9, 10]})
        with open(path, "a", newline="") as fh:
            csv.writer(fh).writerow(["q", "a", "9", "junk"])
        assert main(["compare", path, "--problem", "p"]) == 0


class TestEnumerate:
    def registry_file(self, tmp_path):
        doc = {
            "components": [
                {"name": "bitflip", "impl": "bitflip", "defaults": {"k": 1}},
                {"name": "improving", "impl": "improving", "defaults": {}},
                {"name": "metropolis", "impl": "metropolis", "defaults": {"cooling": 1.0}},
                {"name": "max_iterations", "impl": "max_iterations", "defaults": {"max": 10}},
            ]
        }
        return write_json(tmp_path / "registry.json", doc)

    def test_count_reflects_validation(self, tmp_path, capsys):
        reg = self.registry_file(tmp_path)
        assert main(["enumerate", reg, "--framework", "local_search"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["count"] == 1  # metropolis dropped without sa.temperature
        inits = write_json(
            tmp_path / "inits.json", SA_INIT
        )
        assert main(
            ["enumerate", reg, "--framework", "local_search", "--initializers", inits]
        ) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["count"] == 2

    def test_byte_identical_reruns(self, tmp_path, capsys):
        reg = self.registry_file(tmp_path)
        texts = []
        for _ in range(2):
            assert main(["enumerate", reg, "--framework", "local_search"]) == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]

    def test_grid_expansion(self, tmp_path, capsys):
        reg = self.registry_file(tmp_path)
        grids = write_json(tmp_path / "grids.json", {"bitflip": {"k": [1, 2, 3]}})
        assert main(
            ["enumerate", reg, "--framework", "local_search", "--grids", grids]
        ) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["count"] == 3
        ids = [c["id"] for c in out["configs"]]
        assert ids == sorted(ids) and len(set(ids)) == 3

    def test_bad_registry_exit_2(self, tmp_path, capsys):
        path = tmp_path / "reg.json"
        path.write_text("{broken")
        assert main(["enumerate", str(path), "--framework", "local_search"]) == 2
        assert "error" in capsys.readouterr().err


class TestSolve:
    def tsp_doc(self):
        W = [
            [0, 2, 9, 10],
            [2, 0, 6, 4],
            [9, 6, 0, 8],
            [10, 4, 8, 0],
        ]
        names = [f"x{i}" for i in range(4)]
        return {
            "variables": [{"name": v, "lo": 0, "hi": 3} for v in names],
            "constraints": [{"type": "all_different", "vars": names}],
            "objective": {"type": "circuit_sum", "vars": names, "weights": W},
        }

    def test_tsp_route_and_audit_file(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        write_json(model, self.tsp_doc())
        assert main(["solve", str(model), "--budget", "2000", "--seed", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["route_taken"] == "tsp"
        assert sorted(out["assignment"].values()) == [0, 1, 2, 3]
        audit = (tmp_path / "m.tsplib").read_text()
        assert "EDGE_WEIGHT_TYPE : EXPLICIT" in audit

    def test_generic_route(self, tmp_path, capsys):
        doc = self.tsp_doc()
        doc["constraints"].append({"type": "table", "vars": ["x0"], "tuples": [[0]]})
        model = tmp_path / "m.json"
        write_json(model, doc)
        assert main(["solve", str(model), "--budget", "500"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["route_taken"] == "generic"
        assert not (tmp_path / "m.tsplib").exists()

    def test_deterministic(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        write_json(model, self.tsp_doc())
        outs = []
        for _ in range(2):
            assert main(["solve", str(model), "--seed", "7", "--budget", "1000"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_malformed_model_exit_2(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        doc = self.tsp_doc()
        del doc["variables"][0]["lo"]
        write_json(model, doc)
        assert main(["solve", str(model)]) == 2
        assert "$.variables[0]" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_nonpositive_budget_exit_2(self, tmp_path, capsys, budget):
        model = tmp_path / "m.json"
        write_json(model, self.tsp_doc())
        assert main(["solve", str(model), "--budget", budget]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "budget" in err
        assert not (tmp_path / "m.tsplib").exists()


class TestServe:
    def test_port_in_use_exit_3(self, capsys):
        import socket

        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
            assert main(["serve", "--port", str(port)]) == 3
        assert "cannot bind" in capsys.readouterr().err


class TestRunChecksEveryConfigFirst:
    def ga_config(self, **framework_params):
        return {
            "framework": "ga",
            "slots": {
                "mutate": {"component": "bitflip", "params": {"k": 1}},
                "terminate": {"component": "max_iterations", "params": {"max": 3}},
            },
            "framework_params": framework_params,
        }

    def listed(self, tmp_path, out, configs):
        return write_json(
            tmp_path / "e.json",
            {
                "problems": [{"kind": "onemax", "n": 8}],
                "configs": configs,
                "seeds": [1],
                "out": str(out),
            },
        )

    def test_misspelt_framework_param_on_enumerated_configs_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = experiment(tmp_path, out, [1], framework="ga", framework_params={"pop_sise": 8})
        assert main(["run", write_json(tmp_path / "e.json", doc)]) == 2
        assert "unknown parameter 'pop_sise'" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_pop_size_on_a_listed_config_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        exp = self.listed(tmp_path, out, [self.ga_config(pop_size=8), self.ga_config(pop_size=0)])
        assert main(["run", exp]) == 2
        err = capsys.readouterr().err
        assert "config 0001-" in err and "ga.pop_size=0 below minimum 2" in err
        assert not out.exists()

    def test_framework_param_on_local_search_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = {
            "framework": "local_search",
            "slots": {
                "perturb": {"component": "bitflip", "params": {"k": 1}},
                "accept": {"component": "improving", "params": {}},
                "terminate": {"component": "max_iterations", "params": {"max": 3}},
            },
            "framework_params": {"pop_size": 8},
        }
        assert main(["run", self.listed(tmp_path, out, [config])]) == 2
        assert "local_search: unknown parameter 'pop_size'" in capsys.readouterr().err
        assert not out.exists()

    def test_unbound_slot_on_a_listed_config_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = self.ga_config()
        del config["slots"]["terminate"]
        assert main(["run", self.listed(tmp_path, out, [config])]) == 2
        assert "slot 'terminate' is unbound" in capsys.readouterr().err

    def test_valid_ga_params_run(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", self.listed(tmp_path, out, [self.ga_config(pop_size=4)])]) == 0
        assert read_results(out)[0]["evaluations"] == "16"


def minimal_run(tmp_path, **extra):
    doc = {
        "problems": [{"kind": "onemax", "n": 8}],
        "framework": "local_search",
        "seeds": [1],
        "budget": {"iterations": 5},
        "out": str(tmp_path / "out"),
    }
    doc.update(extra)
    return write_json(tmp_path / "e.json", doc)


def exits_2_naming(capsys, argv, *words):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    for word in words:
        assert word in err


class TestRegistryDefaultsAreChecked:
    @pytest.mark.parametrize(
        "impl, defaults, message",
        [
            ("bitflip", {"kk": 3}, "bitflip: unknown parameter 'kk'"),
            ("bitflip", {"k": 2.7}, "bitflip.k=2.7 is not an integer"),
            ("bitflip", {"k": "3"}, "bitflip.k='3' is not a number"),
            ("bitflip", {"k": 0}, "bitflip.k=0 below minimum 1"),
            ("gaussian", {"sigma": 0}, "gaussian.sigma=0 not above minimum 0.0"),
            ("metropolis", {"cooling": 0}, "metropolis.cooling=0 not above minimum 0.0"),
        ],
    )
    def test_invalid_default_exits_2_from_enumerate_and_run(
        self, tmp_path, capsys, impl, defaults, message
    ):
        doc = {"components": [dict(c) for c in BIT_REGISTRY["components"]]}
        doc["components"].append({"name": "bad", "impl": impl, "defaults": defaults})
        reg = write_json(tmp_path / "registry.json", doc)
        exits_2_naming(
            capsys, ["enumerate", reg, "--framework", "local_search"], message.replace(impl, "bad", 1)
        )
        exits_2_naming(capsys, ["run", minimal_run(tmp_path, registry=reg)], "bad")
        assert not (tmp_path / "out").exists()


GOOD_CONFIG = {
    "framework": "local_search",
    "slots": {
        "perturb": {"component": "bitflip", "params": {"k": 1}},
        "accept": {"component": "improving", "params": {}},
        "terminate": {"component": "max_iterations", "params": {"max": 3}},
    },
}


class TestWrongJsonShapesExit2:
    @pytest.mark.parametrize(
        "extra, where",
        [
            ({"configs": [{**GOOD_CONFIG, "slots": []}]}, "configs[0].slots"),
            ({"configs": [{**GOOD_CONFIG, "framework_params": [1]}]}, "configs[0].framework_params"),
            ({"configs": {"a": GOOD_CONFIG}}, "configs"),
            ({"framework_params": [1]}, "framework_params"),
            ({"problems": [5]}, "problems[0]"),
            ({"problems": 5}, "problems"),
            ({"grids": [1]}, "grids"),
            ({"grids": {"bitflip": {"k": 3}}}, "grids.bitflip.k"),
            ({"seeds": 5}, "seeds"),
            ({"framework": ["ga"]}, "framework"),
            ({"initializers": {"key": "sa.temperature"}}, "initializers"),
            ({"initializers": [{"key": 5, "value": {"t": "real", "v": 1.0}}]}, "initializers[0].key"),
            ({"budget": [1]}, "budget"),
        ],
    )
    def test_run(self, tmp_path, capsys, extra, where):
        exits_2_naming(capsys, ["run", minimal_run(tmp_path, **extra)], f"{where} must be")

    @pytest.mark.parametrize("budget", [{"iterations": 2.5}, {"evaluations": [10]}])
    def test_run_budget_values(self, tmp_path, capsys, budget):
        exits_2_naming(capsys, ["run", minimal_run(tmp_path, budget=budget)], "max_")

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"seeds": [-1]}, "experiment.seed=-1 below minimum 0"),
            ({"seeds": ["3"]}, "experiment.seed='3' is not a number"),
            ({"seeds": [2**64]}, "above maximum"),
            ({"trace_stride": [1]}, "experiment.trace_stride=[1] is not a number"),
            ({"trace_stride": 0}, "experiment.trace_stride=0 below minimum 1"),
            ({"workers": 1.5}, "experiment.workers=1.5 is not an integer"),
        ],
    )
    def test_run_integer_fields(self, tmp_path, capsys, extra, message):
        exits_2_naming(capsys, ["run", minimal_run(tmp_path, **extra)], message)

    def test_run_on_a_document_that_is_not_an_object(self, tmp_path, capsys):
        path = write_json(tmp_path / "e.json", [{"problems": []}])
        exits_2_naming(capsys, ["run", path], "experiment must be an object")

    @pytest.mark.parametrize(
        "grids, where", [([1], "grids"), ({"bitflip": {"k": 3}}, "grids.bitflip.k")]
    )
    def test_enumerate_grids(self, tmp_path, capsys, grids, where):
        reg = write_json(tmp_path / "registry.json", BIT_REGISTRY)
        grids_path = write_json(tmp_path / "grids.json", grids)
        argv = ["enumerate", reg, "--framework", "local_search", "--grids", grids_path]
        exits_2_naming(capsys, argv, f"{where} must be")

    @pytest.mark.parametrize(
        "doc, where",
        [
            ({"components": 5}, "components"),
            ({"components": [5]}, "components[0]"),
            ({"components": [{"impl": "bitflip", "defaults": [1]}]}, "components[0].defaults"),
            ({"components": [{"impl": ["bitflip"]}]}, "components[0].impl"),
            ([1], "registry"),
        ],
    )
    def test_registry_files(self, tmp_path, capsys, doc, where):
        reg = write_json(tmp_path / "registry.json", doc)
        exits_2_naming(capsys, ["enumerate", reg, "--framework", "local_search"], f"{where} must be")
        exits_2_naming(capsys, ["run", minimal_run(tmp_path, registry=reg)], f"{where} must be")


class TestProblemTable:
    def test_fractional_integer_field_exits_2(self, tmp_path, capsys):
        path = minimal_run(tmp_path, problems=[{"kind": "onemax", "n": 8.7}])
        exits_2_naming(capsys, ["run", path], "problems[0].n=8.7 is not an integer")

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"kind": "trap", "n": 8, "b": True}, "problems[0].b=True is not a number"),
            ({"kind": "sphere", "d": 2, "lo": "a", "hi": 1}, "problems[0].lo='a' is not a number"),
            ({"kind": "dimacs", "path": 3}, "problems[0].path must be a string"),
            ({"kind": ["onemax"]}, "unknown problem kind"),
            ({"kind": "onemax"}, "'n'"),
        ],
    )
    def test_bad_fields_exit_2(self, tmp_path, capsys, entry, message):
        exits_2_naming(capsys, ["run", minimal_run(tmp_path, problems=[entry])], message)

    def test_every_kind_keeps_its_problem_name(self, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 3 2\n1 -2 0\n2 3 0\n")
        entries_and_names = [
            ({"kind": "onemax", "n": 8.0}, prob.onemax(8).name),
            ({"kind": "checkerboard", "s": 4}, prob.checkerboard(4).name),
            ({"kind": "royal_road", "n": 8, "b": 4}, prob.royal_road(8, 4).name),
            ({"kind": "trap", "n": 8, "b": 4}, prob.trap(8, 4).name),
            ({"kind": "hiff", "n": 8}, prob.hiff(8).name),
            ({"kind": "sphere", "d": 2, "lo": -1, "hi": 1}, prob.sphere(2, -1.0, 1.0).name),
            ({"kind": "magic_square", "k": 3}, prob.magic_square(3).name),
            ({"kind": "dimacs", "path": str(cnf)}, prob.parse_dimacs_cnf(cnf.read_text()).name),
        ]
        path = minimal_run(
            tmp_path, problems=[e for e, _ in entries_and_names], configs=[GOOD_CONFIG]
        )
        assert main(["run", path]) in (0, 1)  # bitflip fails on the non-bit problems
        names = {row["problem"] for row in read_results(tmp_path / "out")}
        assert names == {name for _, name in entries_and_names}


class TestRegistrationErrorsExit2:
    DUPLICATE = {"components": [{"impl": "bitflip"}, {"impl": "bitflip"}]}
    NO_ACCEPT = {"components": [{"impl": "bitflip"}, {"impl": "max_iterations"}]}

    @pytest.mark.parametrize(
        "doc, message",
        [
            (DUPLICATE, "duplicate component"),
            (NO_ACCEPT, "no registered components of kind 'accept'"),
        ],
    )
    def test_enumerate_and_run(self, tmp_path, capsys, doc, message):
        reg = write_json(tmp_path / "registry.json", doc)
        exits_2_naming(capsys, ["enumerate", reg, "--framework", "local_search"], message)
        exits_2_naming(capsys, ["run", minimal_run(tmp_path, registry=reg)], message)
        assert not (tmp_path / "out").exists()

    def test_serve_duplicate(self, tmp_path, capsys):
        reg = write_json(tmp_path / "registry.json", self.DUPLICATE)
        exits_2_naming(capsys, ["serve", "--port", "0", "--registry", reg], "duplicate component")

    def test_serve_hosts_a_registry_without_an_accept(self, tmp_path, capsys):
        # Serving needs no complete template, so this registry loads and
        # the run gets as far as binding the port.
        import socket

        reg = write_json(tmp_path / "registry.json", self.NO_ACCEPT)
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
            assert main(["serve", "--port", str(port), "--registry", reg]) == 3
        assert "cannot bind" in capsys.readouterr().err


def generic_doc():
    return {
        "variables": [{"name": n, "lo": 0, "hi": 2} for n in ("a", "b", "c")],
        "constraints": [
            {"type": "all_different", "vars": ["a", "b", "c"]},
            {"type": "table", "vars": ["a", "b"], "tuples": [[0, 1], [1, 2]]},
        ],
        "objective": {"type": "linear_sum", "vars": ["a", "b", "c"], "coeffs": [1, 2, 3]},
    }


def circuit_doc():
    doc = generic_doc()
    doc["objective"] = {
        "type": "circuit_sum",
        "vars": ["a", "b", "c"],
        "weights": [[0, 1, 2], [1, 0, 3], [2, 3, 0]],
    }
    return doc


def with_(doc, path, value):
    """`doc` with the entry at `path` (a list of keys and indices) replaced."""
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    return doc


class TestSolveModelBoundary:
    @pytest.mark.parametrize(
        "doc, where",
        [
            (with_(generic_doc(), ["constraints", 1, "tuples", 0], 5), "$.constraints[1].tuples[0]"),
            (with_(generic_doc(), ["constraints", 1, "tuples", 1, 0], "x"), "$.constraints[1].tuples[1]"),
            (with_(generic_doc(), ["constraints", 1, "tuples", 0, 1], 1.0), "$.constraints[1].tuples[0]"),
            (with_(generic_doc(), ["constraints", 1, "tuples"], {"0": [0, 1]}), "$.constraints[1].tuples"),
            (with_(circuit_doc(), ["objective", "weights", 1, 2], "far"), "$.objective.weights[1]"),
            (with_(circuit_doc(), ["objective", "weights", 0, 1], 0.5), "$.objective.weights[0]"),
            (with_(circuit_doc(), ["objective", "weights", 2], 7), "$.objective.weights[2]"),
            (with_(generic_doc(), ["variables", 0, "name"], ["a"]), "$.variables[0].name"),
            (with_(generic_doc(), ["variables", 1, "name"], 5), "$.variables[1].name"),
            (with_(generic_doc(), ["variables"], []), "$.variables"),
            (with_(generic_doc(), ["variables"], {"a": 1}), "$.variables"),
            (with_(generic_doc(), ["variables", 0, "lo"], True), "$.variables[0]"),
            (with_(generic_doc(), ["variables", 0, "hi"], 2**63), "$.variables[0]"),
            (with_(generic_doc(), ["constraints", 0, "vars"], "ab"), "$.constraints[0].vars"),
            (with_(generic_doc(), ["constraints", 0, "vars", 0], ["a"]), "$.constraints[0]"),
            (with_(generic_doc(), ["constraints"], {"type": "table"}), "$.constraints"),
            (with_(generic_doc(), ["objective", "coeffs", 1], math.nan), "$.objective.coeffs[1]"),
            (with_(generic_doc(), ["objective", "coeffs", 2], "1.5"), "$.objective.coeffs[2]"),
            (with_(generic_doc(), ["objective", "coeffs", 0], 10**400), "$.objective.coeffs[0]"),
            (with_(generic_doc(), ["objective", "vars"], "abc"), "$.objective.vars"),
            # parses (the TSP matcher must see it to refuse it), but its
            # values would index past the weight matrix on the generic route
            (with_(circuit_doc(), ["variables", 2, "hi"], 3), "$.objective.weights"),
        ],
    )
    def test_malformed_model_exits_2_naming_its_path(self, tmp_path, capsys, doc, where):
        model = write_json(tmp_path / "m.json", doc)
        exits_2_naming(capsys, ["solve", model, "--budget", "50"], where)

    @pytest.mark.parametrize(
        "text",
        ['{"variables": [{"name": "a", "lo": ' + "1" * 5000 + ', "hi": 1}]}', "[" * 100_000],
    )
    def test_unreadable_json_exits_2(self, tmp_path, capsys, text):
        model = tmp_path / "m.json"
        model.write_text(text)
        exits_2_naming(capsys, ["solve", str(model)], "not valid JSON")

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_exits_2(self, tmp_path, capsys, seed):
        model = write_json(tmp_path / "m.json", generic_doc())
        exits_2_naming(capsys, ["solve", model, "--seed", seed], "solve.seed=")

    @pytest.mark.parametrize("doc, route", [(generic_doc(), "generic"), (circuit_doc(), "generic")])
    def test_well_formed_models_solve(self, tmp_path, capsys, doc, route):
        model = write_json(tmp_path / "m.json", doc)
        assert main(["solve", model, "--budget", "200"]) == 0
        assert json.loads(capsys.readouterr().out)["route_taken"] == route


leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3)
)
json_values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=3), inner, max_size=4)
    ),
    max_leaves=10,
)


def node_paths(node, path=()):
    """The path of `node` and of every entry below it."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from node_paths(child, path + (key,))
    elif isinstance(node, list):
        for k, child in enumerate(node):
            yield from node_paths(child, path + (k,))


@st.composite
def model_docs(draw):
    """A well-formed model, then up to two of its parts replaced by any
    JSON value."""
    names = [f"x{i}" for i in range(draw(st.integers(min_value=1, max_value=4)))]
    variables = []
    for name in names:
        lo = draw(st.integers(min_value=-1, max_value=2))
        variables.append({"name": name, "lo": lo, "hi": lo + draw(st.integers(0, 3))})
    constraints = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        vs = draw(st.lists(st.sampled_from(names), max_size=len(names)))
        if draw(st.booleans()):
            constraints.append({"type": "all_different", "vars": vs})
        else:
            row = st.lists(st.integers(-1, 4), min_size=len(vs), max_size=len(vs))
            tuples = draw(st.lists(row, max_size=4))
            constraints.append({"type": "table", "vars": vs, "tuples": tuples})
    n = len(names)
    objective = draw(st.sampled_from([None, "linear_sum", "circuit_sum"]))
    if objective == "linear_sum":
        coeffs = draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n))
        objective = {"type": objective, "vars": names, "coeffs": coeffs}
    elif objective == "circuit_sum":
        row = st.lists(st.integers(0, 9), min_size=n, max_size=n)
        weights = draw(st.lists(row, min_size=n, max_size=n))
        objective = {"type": objective, "vars": names, "weights": weights}
    doc = {"variables": variables, "constraints": constraints, "objective": objective}
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        path = draw(st.sampled_from(list(node_paths(doc))))
        value = draw(json_values)
        if not path:
            doc = value
            continue
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return doc


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(doc=st.one_of(model_docs(), json_values))
def test_solve_on_any_json_document_exits_0_or_2(tmp_path, capsys, doc):
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    code = main(["solve", str(model), "--budget", "20"])
    err = capsys.readouterr().err
    assert code in (0, 2)
    assert (code == 2) == err.startswith("error: ")


ENUMERATE_REGISTRY = {
    "components": [
        {"name": "bitflip", "impl": "bitflip", "defaults": {"k": 1}},
        {"name": "improving", "impl": "improving", "defaults": {}},
        {"name": "metropolis", "impl": "metropolis", "defaults": {"cooling": 1.0}},
        {"name": "max_iterations", "impl": "max_iterations", "defaults": {"max": 10}},
    ]
}


class TestGridsAreChecked:
    @pytest.mark.parametrize(
        "grids, words",
        [
            ({"bitflip": {"k": [0, 2]}}, ("grids.bitflip.k=0",)),
            ({"bitflp": {"k": [2]}}, ("grids.bitflp",)),
            ({"bitflip": {"kk": [2]}}, ("grids.bitflip", "'kk'")),
            ({"bitflip": {"k": [2.5]}}, ("grids.bitflip.k=2.5",)),
        ],
    )
    def test_enumerate_and_run_exit_2(self, tmp_path, capsys, grids, words):
        reg = write_json(tmp_path / "registry.json", ENUMERATE_REGISTRY)
        grids_path = write_json(tmp_path / "grids.json", grids)
        argv = ["enumerate", reg, "--framework", "local_search", "--grids", grids_path]
        exits_2_naming(capsys, argv, *words)
        exits_2_naming(capsys, ["run", minimal_run(tmp_path, grids=grids)], *words)


grid_docs = st.one_of(
    json_values,
    st.dictionaries(
        st.one_of(st.sampled_from(["bitflip", "metropolis", "max_iterations", "bitflp"]),
                  st.text(max_size=3)),
        st.one_of(
            st.dictionaries(
                st.one_of(st.sampled_from(["k", "cooling", "max", "kk"]), st.text(max_size=2)),
                st.one_of(st.lists(leaves, max_size=3), json_values),
                max_size=3,
            ),
            json_values,
        ),
        max_size=3,
    ),
)


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(grids=grid_docs)
def test_enumerate_on_any_json_grids_exits_0_or_2(tmp_path, capsys, grids):
    reg = write_json(tmp_path / "registry.json", ENUMERATE_REGISTRY)
    grids_path = write_json(tmp_path / "grids.json", grids)
    code = main(["enumerate", reg, "--framework", "local_search", "--grids", grids_path])
    err = capsys.readouterr().err
    assert code in (0, 2)
    assert (code == 2) == err.startswith("error: ")


class TestRunReportsEachTrial:
    def test_evaluations_is_what_the_trial_spent(self, tmp_path):
        # the GA spends its population of 10 on the start, then the budget stops it
        spec = {
            "framework": "ga",
            "slots": {
                "mutate": {"component": "bitflip", "params": {"k": 1}},
                "terminate": {"component": "max_iterations", "params": {"max": 100}},
            },
            "framework_params": {"pop_size": 10},
        }
        exp = minimal_run(
            tmp_path, configs=[spec], seeds=[1, 2], budget={"evaluations": 10},
            problems=[{"kind": "onemax", "n": 16}],
        )
        assert main(["run", exp]) == 0
        rows = read_results(tmp_path / "out")
        assert [r["evaluations"] for r in rows] == ["10", "10"]

    def test_failed_trial_reason_goes_to_stderr(self, tmp_path, capsys):
        spec = {
            "framework": "local_search",
            "slots": {
                "perturb": {"component": "gaussian", "params": {"sigma": 0.1}},
                "accept": {"component": "improving", "params": {}},
                "terminate": {"component": "max_iterations", "params": {"max": 10}},
            },
        }
        assert main(["run", minimal_run(tmp_path, configs=[spec])]) == 1
        (row,) = read_results(tmp_path / "out")
        assert row["best_value"] == "FAILED"
        err = capsys.readouterr().err
        assert err.startswith(f"error: trial onemax_8 {row['config_id']} 1: ")
        assert "gaussian" in err


def test_solve_exits_3_when_the_audit_file_cannot_be_written(tmp_path, capsys):
    model = write_json(tmp_path / "m.json", TestSolve().tsp_doc())  # the tsp route
    (tmp_path / "m.tsplib").mkdir()
    assert main(["solve", model, "--budget", "50"]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "m.tsplib" in captured.err
