import csv
import gc
import hashlib
import io
import json
import math
import threading
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from metafold import cli
from metafold import problems as prob
from metafold.cli import main
from metafold.rpc import RpcServer
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

    def test_wall_ms_resolves_trials_under_a_millisecond(self, tmp_path):
        # an onemax_16 trial of 2 iterations takes well under 1 ms
        out = tmp_path / "out"
        doc = experiment(tmp_path, out, [1, 2], budget={"iterations": 2})
        assert main(["run", write_json(tmp_path / "e.json", doc)]) == 0
        assert all(float(r["wall_ms"]) > 0 for r in read_results(out))

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
        results, traces = [], []
        for workers in (1, 2, 4):
            out = tmp_path / f"w{workers}"
            exp = write_json(
                tmp_path / f"w{workers}.json",
                experiment(tmp_path, out, [3, 1, 2], trace_stride=7, workers=workers),
            )
            assert main(["run", exp]) == 0
            rows = read_results(out)
            results.append([{k: v for k, v in r.items() if k != "wall_ms"} for r in rows])
            traces.append({p.name: p.read_bytes() for p in (out / "traces").iterdir()})
        assert len(traces[0]) == len(results[0]) == 12
        assert results[0] == results[1] == results[2]
        assert traces[0] == traces[1] == traces[2]

    def test_workers_start_no_thread(self, tmp_path, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"metafold run started a thread: {thread!r}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        out = tmp_path / "out"
        exp = write_json(tmp_path / "e.json", experiment(tmp_path, out, [1, 2], workers=4))
        assert main(["run", exp]) == 0
        assert len(read_results(out)) == 8

    @pytest.mark.parametrize("out, a_file", [("afile", "afile"), ("out", "out/traces")])
    def test_unusable_output_directory_exits_3_before_any_trial(
        self, tmp_path, capsys, monkeypatch, out, a_file
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(cli, "instantiate", refuse)
        (tmp_path / "out").mkdir()
        (tmp_path / a_file).write_text("a file, not a directory")
        exp = write_json(tmp_path / "e.json", experiment(tmp_path, tmp_path / out, [1]))
        assert main(["run", exp]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: cannot create the output directory")
        assert "Traceback" not in err

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
        [["p", "a", "9", "not-a-number"], ["p", "a", "9"], ["p", "a"], ["p", "a", "9", "nan"]],
        ids=["non_numeric", "short_row", "shorter_row", "nan"],
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

    @pytest.mark.parametrize(
        "content",
        [
            b"problem,config_id,best_value\np,a,1\n\xff\xfe\n",
            b"problem,config_id,best_value\np,a," + b"1" * 131073 + b"\n",
        ],
        ids=["not_utf8", "field_over_the_csv_limit"],
    )
    def test_unreadable_csv_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "results.csv"
        path.write_bytes(content)
        assert main(["compare", str(path), "--problem", "p"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "Traceback" not in captured.err

    def test_short_row_without_config_id_exits_2(self, tmp_path, capsys):
        path = tmp_path / "results.csv"
        rows = [f"p,{v},{c}" for c in "ab" for v in range(5)]
        path.write_text("\n".join(["problem,best_value,config_id", *rows, "p,3"]) + "\n")
        assert main(["compare", str(path), "--problem", "p"]) == 2
        assert "config_id" in capsys.readouterr().err


_csv_cells = st.sampled_from(
    ["p", "q", "a", "b", "1", "2.5", "nan", "-inf", "FAILED", "", '"', "x\ny"]
)
_csv_texts = st.tuples(
    st.permutations(["problem", "config_id", "seed", "best_value"]).map(",".join),
    st.lists(st.lists(_csv_cells, max_size=5).map(",".join), max_size=16),
).map(lambda doc: "\n".join([doc[0], *doc[1]]))


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(content=st.one_of(st.binary(max_size=200), _csv_texts.map(str.encode)))
def test_compare_on_any_bytes_exits_0_or_2(tmp_path, content):
    path = tmp_path / "results.csv"
    path.write_bytes(content)
    assert main(["compare", str(path), "--problem", "p"]) in (0, 2)


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

    @pytest.mark.parametrize("linked", [False, True], ids=["named .tsplib", "linked from .tsplib"])
    def test_a_tsp_model_at_its_audit_path_exits_2_before_the_search(
        self, tmp_path, capsys, monkeypatch, linked
    ):
        # the audit would overwrite the model; through a link it would too
        if linked:
            model = write_json(tmp_path / "m.json", self.tsp_doc())
            (tmp_path / "m.tsplib").symlink_to("m.json")
        else:
            model = write_json(tmp_path / "m.tsplib", self.tsp_doc())
        before = (tmp_path / "m.tsplib").read_bytes()

        def search(*args, **kwargs):
            raise AssertionError("searched")

        monkeypatch.setattr(cli, "dispatch_solve", search)
        assert main(["solve", model, "--budget", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: the audit file {tmp_path / 'm.tsplib'} would overwrite the model\n"
        assert (tmp_path / "m.tsplib").read_bytes() == before

    def test_a_foreign_file_at_the_audit_path_exits_2_before_the_search(
        self, tmp_path, capsys, monkeypatch
    ):
        model = write_json(tmp_path / "m.json", self.tsp_doc())
        # the user's own tour file, whose first line is not the audit's
        (tmp_path / "m.tsplib").write_bytes(b"NAME : mine\r\nTYPE : TSP\r\n")
        before = (tmp_path / "m.tsplib").read_bytes()

        def search(*args, **kwargs):
            raise AssertionError("searched")

        monkeypatch.setattr(cli, "dispatch_solve", search)
        assert main(["solve", model, "--budget", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: the audit file {tmp_path / 'm.tsplib'} would overwrite a file that is not an audit\n"
        )
        assert (tmp_path / "m.tsplib").read_bytes() == before

    def test_an_earlier_audit_at_the_audit_path_is_overwritten(self, tmp_path, capsys):
        model = write_json(tmp_path / "m.json", self.tsp_doc())
        assert main(["solve", model, "--budget", "50"]) == 0
        audit = (tmp_path / "m.tsplib").read_bytes()
        first = capsys.readouterr().out
        (tmp_path / "m.tsplib").write_bytes(audit + b"stale\n")
        assert main(["solve", model, "--budget", "50"]) == 0
        assert capsys.readouterr().out == first
        assert (tmp_path / "m.tsplib").read_bytes() == audit

    def test_what_tsplib_explicit_text_writes_is_an_audit(self, tmp_path):
        from metafold.whitebox import match_tsp, parse_model, tsplib_explicit_text

        text = tsplib_explicit_text(match_tsp(parse_model(json.dumps(self.tsp_doc()))))
        path = tmp_path / "m.tsplib"
        path.write_text(text)
        assert cli._is_audit(path)
        path.write_text(text.replace("NAME : rewritten", "NAME : mine", 1))
        assert not cli._is_audit(path)

    def test_a_generic_model_at_the_audit_path_still_solves(self, tmp_path, capsys):
        # the generic route writes no audit
        doc = self.tsp_doc()
        doc["constraints"].append({"type": "table", "vars": ["x0"], "tuples": [[0]]})
        model = write_json(tmp_path / "m.tsplib", doc)
        before = (tmp_path / "m.tsplib").read_bytes()
        for _ in range(2):
            assert main(["solve", model, "--budget", "50"]) == 0
            assert json.loads(capsys.readouterr().out)["route_taken"] == "generic"
        assert (tmp_path / "m.tsplib").read_bytes() == before


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
    if "configs" in extra:  # an experiment that lists its configs names no framework
        del doc["framework"]
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
            # five copies of one seed would count as five samples in compare
            ({"seeds": [1, 1, 1, 1, 1]}, "seeds[1] repeats seed 1"),
        ],
    )
    def test_run_integer_fields(self, tmp_path, capsys, extra, message):
        exits_2_naming(capsys, ["run", minimal_run(tmp_path, **extra)], message)

    @pytest.mark.parametrize(
        "budget, key", [({"evaluation": 5}, "'evaluation'"), ({"iterations": 5, "max": 3}, "'max'")]
    )
    def test_run_unknown_budget_key(self, tmp_path, capsys, budget, key):
        # a misspelt cap would otherwise leave every trial uncapped
        path = minimal_run(tmp_path, budget=budget)
        exits_2_naming(capsys, ["run", path], f"budget: unknown key {key}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "value, message",
        [
            ({"t": "real", "v": "5"}, "EnvValue real payload must be a number"),
            ({"t": "dseq", "v": ["-1"]}, "EnvValue dseq payload must be"),
        ],
    )
    def test_run_initializer_payload_must_fit_its_tag(self, tmp_path, capsys, value, message):
        initializers = [{"key": "sa.temperature", "value": value}]
        path = minimal_run(tmp_path, initializers=initializers)
        exits_2_naming(capsys, ["run", path], message)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["sa.temperature\n", "sa\n.temperature"])
    def test_run_initializer_key_with_a_line_break(self, tmp_path, capsys, key):
        # a different key from "sa.temperature", which the run would never read
        initializers = [{"key": key, "value": {"t": "real", "v": 5.0}}]
        path = minimal_run(tmp_path, initializers=initializers)
        exits_2_naming(capsys, ["run", path], "invalid env key token")
        assert not (tmp_path / "out").exists()

    def test_run_on_a_document_that_is_not_an_object(self, tmp_path, capsys):
        path = write_json(tmp_path / "e.json", [{"problems": []}])
        exits_2_naming(capsys, ["run", path], "experiment must be an object")

    def test_run_names_a_json_array_as_an_array(self, tmp_path, capsys):
        # the words of a model file's errors, not Python's "list"
        path = minimal_run(tmp_path, problems={"kind": "onemax", "n": 8})
        assert main(["run", path]) == 2
        assert capsys.readouterr().err == "error: problems must be an array, got object\n"
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"n": 8}, "missing key 'kind' at problems[0]"),
            (["onemax", 8], "problems[0] must be an object, got array"),
            ({"kind": "dimacs", "path": ["f.cnf"]}, "problems[0].path must be a string, got array"),
            ({"kind": "onemax", "n": 8, "size": 9}, "unknown key 'size' at problems[0]"),
        ],
    )
    def test_a_bad_entry_is_named_exactly(self, tmp_path, capsys, entry, message):
        assert main(["run", minimal_run(tmp_path, problems=[entry])]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_sphere_whose_span_overflows_exits_2(self, tmp_path, capsys):
        # hi - lo is inf, so every start the sampler drew would be inf
        entry = {"kind": "sphere", "d": 2, "lo": -1e308, "hi": 1e308}
        exits_2_naming(
            capsys, ["run", minimal_run(tmp_path, problems=[entry])], "hi - lo must be finite"
        )

    def test_sphere_whose_squares_overflow_exits_2_before_any_trial(self, tmp_path, capsys):
        # hi - lo is finite, but every start would score inf
        entry = {"kind": "sphere", "d": 2, "lo": -1e200, "hi": 1e200}
        exits_2_naming(
            capsys, ["run", minimal_run(tmp_path, problems=[entry])], "a sum of 2 squares"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "dimension, coords, message",
        [
            (0, "", "DIMENSION must be at least 1"),
            (2, "1 0 0\n2 nan 1\n", "non-finite coordinate"),
            # finite, but the squared distance between the cities overflows
            (2, "1 0 0\n2 1e200 0\n", "coordinate beyond 1e+150"),
        ],
    )
    def test_degenerate_tsplib_exits_2_before_any_trial(
        self, tmp_path, capsys, dimension, coords, message
    ):
        # every trial on these cities would fail, so the run refuses the file first
        tsp = tmp_path / "t.tsp"
        tsp.write_text(
            f"NAME : t\nTYPE : TSP\nDIMENSION : {dimension}\nEDGE_WEIGHT_TYPE : EUC_2D\n"
            f"NODE_COORD_SECTION\n{coords}EOF\n"
        )
        path = minimal_run(tmp_path, problems=[{"kind": "tsplib", "path": str(tsp)}])
        exits_2_naming(capsys, ["run", path], message)
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"components": [{"impl": "flip"}]}, "components[0].impl: unknown built-in implementation 'flip'"),
            (DUPLICATE, "components[1]: duplicate component perturb 'bitflip'"),
            ({"components": [{"impl": "bitflip", "name": "a"}, {"impl": "swap", "name": "a"}]},
             "components[1]: duplicate component perturb 'a'"),
        ],
    )
    def test_a_bad_entry_is_named_by_its_path(self, tmp_path, capsys, doc, message):
        reg = write_json(tmp_path / "registry.json", doc)
        for argv in (["enumerate", reg, "--framework", "local_search"],
                     ["run", minimal_run(tmp_path, registry=reg)],
                     ["serve", "--port", "0", "--registry", reg]):
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: {message}\n"

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
        "doc, message",
        [
            ([], "$ must be an object, got array"),
            ({"variables": [5]}, "$.variables[0] must be an object, got number"),
            ({"variables": [{"lo": 0, "hi": 1}]}, "missing key 'name' at $.variables[0]"),
        ],
    )
    def test_a_model_of_the_wrong_shape_exits_2_with_the_readers_words(self, tmp_path, capsys, doc, message):
        model = write_json(tmp_path / "m.json", doc)
        assert main(["solve", model, "--budget", "50"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "doc, where, key",
        [
            ({"objectve" if k == "objective" else k: v for k, v in generic_doc().items()}, "at $", "'objectve'"),
            (with_(generic_doc(), ["constraints", 0, "weight"], 5), "at $.constraints[0]", "'weight'"),
        ],
        ids=["objectve", "weight"],
    )
    def test_an_unknown_model_key_exits_2_naming_it(self, tmp_path, capsys, doc, where, key):
        model = write_json(tmp_path / "m.json", doc)
        exits_2_naming(capsys, ["solve", model, "--budget", "50"], where, key)

    @pytest.mark.parametrize("coeffs", [[1e308, 1e308], [1e308, -1e308]])
    def test_a_linear_sum_that_can_overflow_exits_2(self, tmp_path, capsys, coeffs):
        # its value could reach inf, or nan, which solve would print as no JSON
        doc = {
            "variables": [{"name": "a", "lo": 0, "hi": 10}, {"name": "b", "lo": 0, "hi": 10}],
            "objective": {"type": "linear_sum", "vars": ["a", "b"], "coeffs": coeffs},
        }
        model = write_json(tmp_path / "m.json", doc)
        exits_2_naming(capsys, ["solve", model, "--budget", "50"], "$.objective", "linear_sum")

    @pytest.mark.parametrize(
        "text",
        ['{"variables": [{"name": "a", "lo": ' + "1" * 5000 + ', "hi": 1}]}', "[" * 100_000],
    )
    def test_unreadable_json_exits_2(self, tmp_path, capsys, text):
        model = tmp_path / "m.json"
        model.write_text(text)
        exits_2_naming(capsys, ["solve", str(model)], "not valid JSON")

    @pytest.mark.parametrize("penalty", ["-5", "nan", "inf", "-inf"])
    def test_penalty_not_finite_and_nonnegative_exits_2(self, tmp_path, capsys, penalty):
        model = write_json(tmp_path / "m.json", generic_doc())
        exits_2_naming(
            capsys, ["solve", model, f"--penalty={penalty}"], "--penalty must be finite and >= 0"
        )

    def test_zero_penalty_solves(self, tmp_path, capsys):
        model = write_json(tmp_path / "m.json", generic_doc())
        assert main(["solve", model, "--budget", "50", "--penalty", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["route_taken"] == "generic"

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
@example(doc={  # a 1-city tour: 2-opt needs two cities, so it solves generically
    "variables": [{"name": "x0", "lo": 0, "hi": 0}],
    "constraints": [{"type": "all_different", "vars": ["x0"]}],
    "objective": {"type": "circuit_sum", "vars": ["x0"], "weights": [[0]]},
})
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


@pytest.mark.parametrize("blocked", ["results.csv", "traces/onemax_8__{config_id}__1.csv"])
def test_run_exits_3_when_an_output_file_cannot_be_written(tmp_path, capsys, blocked):
    # the first run finds the config id; the second finds a directory in
    # place of one of its output files
    exp = minimal_run(tmp_path, configs=[ONE_CONFIG])
    assert main(["run", exp]) == 0
    (row,) = read_results(tmp_path / "out")
    target = tmp_path / "out" / blocked.format(config_id=row["config_id"])
    target.unlink()
    target.mkdir()
    capsys.readouterr()
    assert main(["run", exp]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write the results") and target.name in err
    assert "Traceback" not in err


ONE_CONFIG = {
    "framework": "local_search",
    "slots": {
        "perturb": {"component": "bitflip", "params": {"k": 1}},
        "accept": {"component": "improving", "params": {}},
        "terminate": {"component": "max_iterations", "params": {"max": 10}},
    },
}
# Small numbers only, so that every trial that runs ends quickly.
run_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.floats(-3, 40),
    st.sampled_from([float("nan"), float("inf"), 2**64, -(2**63)]), st.text(max_size=3),
)
run_values = st.recursive(
    run_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=3), inner, max_size=4)
    ),
    max_leaves=8,
)


@st.composite
def run_docs(draw):
    """A tiny valid experiment (onemax 8, 5 iterations), then up to two of
    its parts replaced by a JSON value."""
    doc = {
        "problems": [{"kind": "onemax", "n": 8}],
        "framework": "local_search",
        "grids": {"bitflip": {"k": [1, 2]}},
        "configs": [json.loads(json.dumps(ONE_CONFIG))],  # a copy the draws may change
        "seeds": [1, 2],
        "budget": {"iterations": 5},
        "trace_stride": 2,
        "workers": 1,
        "out": "out",
    }
    if draw(st.booleans()):
        del doc["configs"]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        path = draw(st.sampled_from(list(node_paths(doc))))
        value = draw(run_values)
        if not path:
            doc = value
            continue
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return doc


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(doc=run_docs())
def test_run_on_mutated_experiments_exits_0_to_3(tmp_path, capsys, monkeypatch, doc):
    monkeypatch.chdir(tmp_path)  # relative paths in the document stay in here
    if isinstance(doc, dict) and isinstance(doc.get("out"), str):
        doc["out"] = f"{tmp_path / 'out'}/{doc['out']}"  # so is the output
    exp = tmp_path / "e.json"
    exp.write_text(json.dumps(doc))
    code = main(["run", str(exp)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3)
    assert (code == 0) == (err == "")
    assert code == 0 or err.startswith("error: ")
    assert "Traceback" not in err


def slot(component, **params):
    return {"component": component, "params": params}


MIXED_SWEEP_CONFIGS = [  # listed ILS, LS, GA, LS+tabu: not in framework order
    {"framework": "ils", "slots": {
        "kick": slot("bitflip", k=3), "inner_perturb": slot("bitflip", k=1),
        "inner_accept": slot("improving"), "inner_terminate": slot("max_iterations", max=10),
        "outer_accept": slot("improving"), "terminate": slot("max_iterations", max=1000)}},
    {"framework": "local_search", "slots": {
        "perturb": slot("bitflip", k=1), "accept": slot("improving"),
        "terminate": slot("max_iterations", max=1000)}},
    {"framework": "ga", "slots": {
        "mutate": slot("bitflip", k=2), "terminate": slot("max_iterations", max=1000)},
     "framework_params": {"pop_size": 6}},
    {"framework": "local_search", "slots": {
        "perturb": slot("bitflip", k=1), "accept": slot("tabu", tenure=5),
        "terminate": slot("max_iterations", max=1000)},
     "initializers": [{"key": "tabu.list", "value": {"t": "dseq", "v": []}}]},
]


def test_mixed_sweep_output_is_byte_identical_to_the_recorded_digests(tmp_path, capsys):
    # 4 problems listed out of name order (every config fails on the
    # permutation problem) x 4 configs x seeds out of order, with a budget
    # and a stride; the digests were recorded before trials were written
    # as they end, when every row was held until the sweep was over
    out = tmp_path / "out"
    exp = minimal_run(
        tmp_path,
        problems=[{"kind": "trap", "n": 12, "b": 4}, {"kind": "onemax", "n": 16},
                  {"kind": "magic_square", "k": 3}, {"kind": "onemax", "n": 12}],
        configs=MIXED_SWEEP_CONFIGS, seeds=[9, 2, 5], budget={"evaluations": 150},
        trace_stride=3, out=str(out),
    )
    assert main(["run", exp]) == 1
    err = capsys.readouterr().err
    with open(out / "results.csv", newline="") as fh:
        rows = [row[:5] for row in csv.reader(fh)]  # wall_ms is last
    assert len(rows) == 1 + 48 and sum(row[3] == "FAILED" for row in rows) == 12
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    traces = sorted((out / "traces").iterdir())
    assert len(traces) == 36

    def sha(data):
        return hashlib.sha256(data).hexdigest()

    assert sha(text.getvalue().encode()) == (
        "53bc62eb62e9785ab37601651fadb529c18bcebf34ed5ad97d6d7d088333c927"
    )
    assert sha(b"".join(p.name.encode() + b"\0" + p.read_bytes() for p in traces)) == (
        "7d8e143d9c4e490862c518ff1e7e0ffc7ee52d5e53febfc1158089c1a604f2cc"
    )
    assert sha(err.encode()) == "8daca46f0f5d8ef705ea33b7f27bf99d5d7f168f714ca415dd8bf8a133b2da60"


def test_unwritable_results_csv_exits_3_before_any_trial(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, "instantiate", refuse)
    (tmp_path / "out" / "results.csv").mkdir(parents=True)
    assert main(["run", minimal_run(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write the results") and "results.csv" in err
    assert list((tmp_path / "out" / "traces").iterdir()) == []


def test_rows_of_finished_trials_survive_an_interrupted_sweep(tmp_path, monkeypatch):
    calls, instantiate = [], cli.instantiate

    def interrupt_the_third(*args, **kwargs):
        calls.append(args)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return instantiate(*args, **kwargs)

    monkeypatch.setattr(cli, "instantiate", interrupt_the_third)
    exp = minimal_run(tmp_path, configs=[ONE_CONFIG], seeds=[4, 3, 2, 1])
    with pytest.raises(KeyboardInterrupt):
        main(["run", exp])
    rows = read_results(tmp_path / "out")
    assert [row["seed"] for row in rows] == ["1", "2"]  # in output order
    traces = sorted(p.name for p in (tmp_path / "out" / "traces").iterdir())
    assert traces == [f"onemax_8__{rows[0]['config_id']}__{seed}.csv" for seed in (1, 2)]


def test_each_failed_trial_is_reported_as_it_ends(tmp_path, capsys, monkeypatch):
    # the trial that runs after a failed one sees the failure on stderr
    # and its row in the results already
    seen, instantiate = [], cli.instantiate

    def watch(*args, **kwargs):
        seen.append(capsys.readouterr().err)
        return instantiate(*args, **kwargs)

    monkeypatch.setattr(cli, "instantiate", watch)
    gaussian = json.loads(json.dumps(ONE_CONFIG))
    gaussian["slots"]["perturb"] = slot("gaussian", sigma=0.1)
    exp = minimal_run(tmp_path, configs=[gaussian, ONE_CONFIG])
    assert main(["run", exp]) == 1
    assert seen[0] == "" and seen[1].startswith("error: trial onemax_8 0000-")
    assert [row["best_value"] == "FAILED" for row in read_results(tmp_path / "out")] == [
        True, False,
    ]


class TestProblemNamesAndSizes:
    def test_two_problems_with_one_name_exit_2(self, tmp_path, capsys):
        first, second = tmp_path / "a.cnf", tmp_path / "b.cnf"
        first.write_text("p cnf 3 2\n1 -2 0\n2 3 0\n")
        second.write_text("p cnf 3 2\n1 2 0\n-2 3 0\n")
        problems = [
            {"kind": "onemax", "n": 8},
            {"kind": "dimacs", "path": str(first)},
            {"kind": "dimacs", "path": str(second)},
        ]
        exits_2_naming(
            capsys, ["run", minimal_run(tmp_path, problems=problems)],
            "problems[2] repeats the name 'maxsat_3v_2c' of problems[1]",
        )
        assert not (tmp_path / "out").exists()

    def test_a_repeated_entry_exits_2(self, tmp_path, capsys):
        problems = [{"kind": "onemax", "n": 8}, {"kind": "onemax", "n": 8.0}]
        exits_2_naming(
            capsys, ["run", minimal_run(tmp_path, problems=problems)],
            "problems[1] repeats the name 'onemax_8' of problems[0]",
        )

    @pytest.mark.parametrize("name", ["../../escaped", "no/such/dir", "nul\0byte"])
    def test_a_name_that_cannot_name_a_trace_file_exits_2(self, tmp_path, capsys, name):
        # a TSPLIB NAME becomes the problem name, and so part of each trace path
        tsp = tmp_path / "a.tsp"
        tsp.write_text(
            f"NAME : {name}\nTYPE : TSP\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\n"
            "NODE_COORD_SECTION\n1 0 0\n2 0 3\n3 4 0\nEOF\n"
        )
        swap_config = {
            "framework": "local_search",
            "slots": {
                "perturb": {"component": "swap", "params": {}},
                "accept": {"component": "improving", "params": {}},
                "terminate": {"component": "max_iterations", "params": {"max": 3}},
            },
        }
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        problems = [{"kind": "onemax", "n": 8}, {"kind": "tsplib", "path": str(tsp)}]
        path = minimal_run(run_dir, problems=problems, configs=[swap_config])
        exits_2_naming(
            capsys, ["run", path], f"problems[1]: name {name!r} cannot name a trace file"
        )
        assert not (run_dir / "out").exists()
        assert [p.name for p in tmp_path.rglob("*escaped*")] == []

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"kind": "onemax", "n": 10**9}, "problems[0].n=1000000000 above maximum 1048576"),
            ({"kind": "royal_road", "n": 2**20 + 8, "b": 8}, "problems[0].n=1048584 above"),
            ({"kind": "trap", "n": 2**21, "b": 4}, "problems[0].n=2097152 above"),
            ({"kind": "hiff", "n": 2**21}, "problems[0].n=2097152 above"),
            ({"kind": "sphere", "d": 2**20 + 1, "lo": 0, "hi": 1}, "problems[0].d=1048577 above"),
            ({"kind": "checkerboard", "s": 1025}, "problems[0].s=1025 above maximum 1024"),
            ({"kind": "magic_square", "k": 1025}, "problems[0].k=1025 above maximum 1024"),
        ],
    )
    def test_a_size_above_the_cap_exits_2(self, tmp_path, capsys, entry, message):
        exits_2_naming(capsys, ["run", minimal_run(tmp_path, problems=[entry])], message)

    def test_a_dimacs_header_above_the_cap_exits_2(self, tmp_path, capsys):
        cnf = tmp_path / "big.cnf"
        cnf.write_text("p cnf 100000000 0")
        problems = [{"kind": "dimacs", "path": str(cnf)}]
        exits_2_naming(
            capsys, ["run", minimal_run(tmp_path, problems=problems)],
            "line 1: header declares 100000000 variables",
        )


DEEP_JSON = "[" * 200_000 + "]" * 200_000


class TestOneInputErrorSet:
    def test_deep_experiment_exits_2(self, tmp_path, capsys):
        exp = tmp_path / "e.json"
        exp.write_text(DEEP_JSON)
        exits_2_naming(capsys, ["run", str(exp)], "recursion")

    @pytest.mark.parametrize("flag", ["registry", "grids", "initializers"])
    def test_deep_enumerate_inputs_exit_2(self, tmp_path, capsys, flag):
        files = {"registry": write_json(tmp_path / "registry.json", BIT_REGISTRY)}
        files[flag] = str(tmp_path / "deep.json")
        (tmp_path / "deep.json").write_text(DEEP_JSON)
        argv = ["enumerate", files.pop("registry"), "--framework", "local_search"]
        for name, path in files.items():
            argv += [f"--{name}", path]
        exits_2_naming(capsys, argv, "recursion")

    def test_deep_experiment_registry_exits_2(self, tmp_path, capsys):
        (tmp_path / "deep.json").write_text(DEEP_JSON)
        path = minimal_run(tmp_path, registry=str(tmp_path / "deep.json"))
        exits_2_naming(capsys, ["run", path], "recursion")

    @pytest.mark.parametrize(
        "text, message",
        [(DEEP_JSON, "recursion"), ('{"components": []}', "registry is empty")],
        ids=["deep", "empty"],
    )
    def test_serve_registry_exits_2(self, tmp_path, capsys, text, message):
        (tmp_path / "registry.json").write_text(text)
        argv = ["serve", "--port", "0", "--registry", str(tmp_path / "registry.json")]
        exits_2_naming(capsys, argv, message)

    @pytest.mark.parametrize("port", ["70000", "-1"])
    def test_serve_port_outside_the_range_exits_2(self, capsys, port):
        exits_2_naming(capsys, ["serve", "--port", port], "port")


registry_entries = st.fixed_dictionaries(
    {"impl": st.sampled_from(["bitflip", "swap", "improving", "tabu", "max_iterations", "nope"])},
    optional={
        "name": st.one_of(st.sampled_from(["a", "b"]), run_values),
        "defaults": st.one_of(
            st.dictionaries(st.sampled_from(["k", "max", "tenure", "kk"]), run_leaves, max_size=2),
            run_values,
        ),
    },
)


@st.composite
def registry_docs(draw):
    """A list of registry entries, then up to two of its parts replaced by
    a JSON value."""
    doc = {"components": draw(st.lists(registry_entries, max_size=4))}
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        path = draw(st.sampled_from(list(node_paths(doc))))
        value = draw(run_values)
        if not path:
            doc = value
            continue
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return doc


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(text=registry_docs().map(json.dumps))
@example(text=DEEP_JSON)
@example(text='{"components": []}')
@example(text=json.dumps(BIT_REGISTRY))
def test_serve_on_mutated_registries_exits_0_2_or_3(tmp_path, capsys, monkeypatch, text):
    def stop(server):  # as if the operator pressed Ctrl-C at once
        raise KeyboardInterrupt

    monkeypatch.setattr(RpcServer, "serve_forever", stop)
    registry = tmp_path / "registry.json"
    registry.write_text(text)
    code = main(["serve", "--port", "0", "--registry", str(registry)])
    captured = capsys.readouterr()
    assert code in (0, 2, 3)
    assert (code == 0) == captured.out.startswith("serving on ")
    assert code == 0 or captured.err.startswith("error: ")


def test_enumerate_ids_are_the_config_ids_run_writes(tmp_path, capsys):
    reg = write_json(tmp_path / "registry.json", ENUMERATE_REGISTRY)
    grids = {"bitflip": {"k": [1, 3]}, "max_iterations": {"max": [5, 7]}}
    argv = ["enumerate", reg, "--framework", "local_search",
            "--grids", write_json(tmp_path / "grids.json", grids),
            "--initializers", write_json(tmp_path / "inits.json", SA_INIT)]
    assert main(argv) == 0
    ids = [c["id"] for c in json.loads(capsys.readouterr().out)["configs"]]
    assert len(ids) == 8
    exp = minimal_run(tmp_path, registry=reg, grids=grids, initializers=SA_INIT)
    assert main(["run", exp]) == 0
    assert [row["config_id"] for row in read_results(tmp_path / "out")] == ids


class TestSolveInOneProcess:
    """`main` builds its parser once per process, so each call must parse
    as the first did, and each subcommand must read the module's globals
    when it is called."""

    def test_a_refused_command_line_leaves_the_next_solve_alone(self, tmp_path, capsys):
        model = write_json(tmp_path / "m.json", TestSolve().tsp_doc())

        def solve():
            assert main(["solve", model, "--budget", "300", "--seed", "5"]) == 0
            return capsys.readouterr().out, (tmp_path / "m.tsplib").read_text()

        first = solve()
        with pytest.raises(SystemExit) as caught:
            main(["solve", model, "--budget", "x"])
        assert caught.value.code == 2 and "--budget" in capsys.readouterr().err
        assert solve() == first and json.loads(first[0])["route_taken"] == "tsp"

    def test_a_patched_global_takes_effect_after_the_first_call(self, tmp_path, capsys, monkeypatch):
        model = write_json(tmp_path / "m.json", generic_doc())
        assert main(["solve", model, "--budget", "50"]) == 0
        first = json.loads(capsys.readouterr().out)
        original = cli.dispatch_solve
        calls = []

        def dispatch(model, budget, env, penalty):
            calls.append(budget)
            return original(model, budget, env, penalty=penalty)

        monkeypatch.setattr(cli, "dispatch_solve", dispatch)
        assert main(["solve", model, "--budget", "50"]) == 0
        assert calls == [50] and json.loads(capsys.readouterr().out) == first


# values a JSON table or weight matrix may hold where a 64-bit integer
# belongs; true and 1.0 are equal to the 1 that a row may also hold
NOT_INT64 = [True, 1.0, 2**63, -(2**63) - 1, "1"]
INT64 = st.integers(-(2**63), 2**63 - 1) | st.integers(-2, 2)


@st.composite
def tables_with_one_bad_value(draw):
    """A model with 1-3 tables, one value of one of them replaced by a
    NOT_INT64, and the path that names the row that holds it."""
    names = ["a", "b", "c"]
    tables = []
    for _ in range(draw(st.integers(1, 3))):
        width = draw(st.integers(1, 3))
        row = st.lists(INT64, min_size=width, max_size=width)
        tables.append({
            "type": "table",
            "vars": draw(st.lists(st.sampled_from(names), min_size=width, max_size=width)),
            "tuples": draw(st.lists(row, min_size=1, max_size=5)),
        })
    i = draw(st.integers(0, len(tables) - 1))
    rows = tables[i]["tuples"]
    j = draw(st.integers(0, len(rows) - 1))
    rows[j][draw(st.integers(0, len(rows[j]) - 1))] = draw(st.sampled_from(NOT_INT64))
    doc = {
        "variables": [{"name": n, "lo": 0, "hi": 2} for n in names],
        "constraints": [{"type": "all_different", "vars": names}, *tables],
    }
    return doc, f"$.constraints[{i + 1}].tuples[{j}]"


@st.composite
def weights_with_one_bad_value(draw):
    """A circuit_sum model whose n x n weights hold one NOT_INT64, and the
    path that names its row."""
    n = draw(st.integers(2, 5))
    cell = st.integers(0, 2**63 - 1) | st.integers(0, 2)
    weights = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))
    j, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    weights[j][k] = draw(st.sampled_from(NOT_INT64))
    names = [f"x{m}" for m in range(n)]
    doc = {
        "variables": [{"name": v, "lo": 0, "hi": n - 1} for v in names],
        "constraints": [{"type": "all_different", "vars": names}],
        "objective": {"type": "circuit_sum", "vars": names, "weights": weights},
    }
    return doc, f"$.objective.weights[{j}]"


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=tables_with_one_bad_value() | weights_with_one_bad_value())
def test_one_value_no_int64_in_a_table_or_weights_exits_2_naming_its_row(tmp_path, capsys, case):
    doc, where = case
    model = write_json(tmp_path / "m.json", doc)
    exits_2_naming(capsys, ["solve", model, "--budget", "20"], f"error: {where} must be an array of")
