import itertools
import json
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from metafold.env import env_new
from metafold.whitebox import (
    DEFAULT_PENALTY,
    ModelError,
    count_violations,
    dispatch_solve,
    generic_solve,
    match_tsp,
    objective_value,
    parse_model,
    rewrite_to_tsp,
    tsplib_explicit_text,
)
from metafold.solutions import Permutation

W4 = [
    [0, 1, 4, 2],
    [1, 0, 3, 5],
    [4, 3, 0, 1],
    [2, 5, 1, 0],
]


def tsp_doc(n, weights):
    names = [f"x{i}" for i in range(n)]
    return {
        "variables": [{"name": v, "lo": 0, "hi": n - 1} for v in names],
        "constraints": [{"type": "all_different", "vars": names}],
        "objective": {"type": "circuit_sum", "vars": names, "weights": weights},
    }


# the smallest model: one variable, no constraint and no objective
ONE = {"variables": [{"name": "a", "lo": 0, "hi": 1}]}


def tsp_model(n=4, weights=None):
    return parse_model(json.dumps(tsp_doc(n, weights or W4)))


class TestParseModel:
    def test_minimal_tsp_model_parses(self):
        m = tsp_model()
        assert len(m.variables) == 4
        assert m.objective.type == "circuit_sum"

    def test_missing_domain_bound_names_path(self):
        doc = tsp_doc(4, W4)
        del doc["variables"][2]["hi"]
        with pytest.raises(ModelError, match=r"\$\.variables\[2\]"):
            parse_model(json.dumps(doc))

    def test_dangling_variable_reference(self):
        doc = tsp_doc(4, W4)
        doc["constraints"][0]["vars"].append("ghost")
        with pytest.raises(ModelError, match="ghost"):
            parse_model(json.dumps(doc))

    def test_ragged_matrix_rejected(self):
        doc = tsp_doc(4, [row[:3] for row in W4])
        with pytest.raises(ModelError, match="weights"):
            parse_model(json.dumps(doc))

    def test_ragged_table_rejected(self):
        doc = tsp_doc(4, W4)
        doc["constraints"].append(
            {"type": "table", "vars": ["x0", "x1"], "tuples": [[1, 2], [3]]}
        )
        with pytest.raises(ModelError, match="tuples"):
            parse_model(json.dumps(doc))

    @pytest.mark.parametrize(
        "weights, message",
        [
            ("[[0, 1], [1, 0]]", "$.objective.weights must be an array, got string"),
            ([[0, 1], "10"], "$.objective.weights[1] must be an array of 2 64-bit integers"),
            ([[0, 1], [1]], "$.objective.weights[1] must be an array of 2 64-bit integers"),
            ([[0, 1, 2], [1, 0]], "$.objective.weights[0] must be an array of 2 64-bit integers"),
            ([[0, True], [1, 0]], "$.objective.weights[0] must be an array of 2 64-bit integers"),
            ([[0, 1], [1.0, 0]], "$.objective.weights[1] must be an array of 2 64-bit integers"),
            ([[0, 1], [2**63, 0]], "$.objective.weights[1] must be an array of 2 64-bit integers"),
            ([[0, 1], [0, -(2**63) - 1]], "$.objective.weights[1] must be an array of 2 64-bit integers"),
            ([[0, None], [{}, 0]], "$.objective.weights[0] must be an array of 2 64-bit integers"),
            ([[0, 1]], "weight matrix must be 2x2 at $.objective.weights"),
            ([[0, 1], [1, 0], [0, 0]], "weight matrix must be 2x2 at $.objective.weights"),
            ([[0, 2**63 - 1], [-1, 0]], "negative weight at $.objective.weights"),
            ([[0, 1], [-(2**63), 0]], "negative weight at $.objective.weights"),
        ],
    )
    def test_a_bad_weight_matrix_is_named_as_before(self, weights, message):
        doc = tsp_doc(2, [[0, 1], [1, 0]])
        doc["objective"]["weights"] = weights
        with pytest.raises(ModelError) as caught:
            parse_model(json.dumps(doc))
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "tuples, message",
        [
            ([[1, 2], [3]], "$.constraints[1].tuples[1] must be an array of 2 64-bit integers"),
            ([[1, 2], [3, False]], "$.constraints[1].tuples[1] must be an array of 2 64-bit integers"),
            ([[1, "2"], [3, 4]], "$.constraints[1].tuples[0] must be an array of 2 64-bit integers"),
            ([[1, 2], 5], "$.constraints[1].tuples[1] must be an array of 2 64-bit integers"),
            ({"a": 1}, "$.constraints[1].tuples must be an array, got object"),
        ],
    )
    def test_a_bad_table_is_named_as_before(self, tuples, message):
        doc = tsp_doc(4, W4)
        doc["constraints"].append({"type": "table", "vars": ["x0", "x1"], "tuples": tuples})
        with pytest.raises(ModelError) as caught:
            parse_model(json.dumps(doc))
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "variables, names, coeffs",
        [
            ([("a", 0, 10), ("b", 0, 10)], ["a", "b"], [1e308, 1e308]),  # could sum to inf
            ([("a", 0, 10), ("b", 0, 10)], ["a", "b"], [1e308, -1e308]),  # could sum to nan
            ([("a", -(2**63), 0)], ["a"], [1e290]),  # the low bound counts too
            ([("a", 0, 1)], ["a", "a"], [6e307, 6e307]),  # each entry counts
        ],
    )
    def test_a_linear_sum_that_can_overflow_is_refused(self, variables, names, coeffs):
        doc = {
            "variables": [{"name": n, "lo": lo, "hi": hi} for n, lo, hi in variables],
            "objective": {"type": "linear_sum", "vars": names, "coeffs": coeffs},
        }
        with pytest.raises(ModelError, match=r"\$\.objective: linear_sum may exceed"):
            parse_model(json.dumps(doc))

    @pytest.mark.parametrize(
        "where, path, known",
        [
            ("$", [], ("variables", "constraints", "objective")),
            ("$.variables[1]", ["variables", 1], ("name", "lo", "hi")),
            ("$.constraints[0]", ["constraints", 0], ("type", "vars")),
            ("$.constraints[1]", ["constraints", 1], ("type", "vars", "tuples")),
            ("$.objective", ["objective"], ("type", "vars", "weights")),
            ("$.objective", ["objective"], ("type", "vars", "coeffs")),
        ],
        ids=["top", "variable", "all_different", "table", "circuit_sum", "linear_sum"],
    )
    def test_each_object_takes_its_known_keys_and_no_other(self, where, path, known):
        doc = tsp_doc(4, W4)
        doc["constraints"].append({"type": "table", "vars": ["x0", "x1"], "tuples": [[0, 1]]})
        if "coeffs" in known:
            doc["objective"] = {"type": "linear_sum", "vars": ["x0"], "coeffs": [2]}
        target = doc
        for step in path:
            target = target[step]
        assert tuple(target) == known
        parse_model(json.dumps(doc))
        for other in ("weights", "coeffs", "tuples", "weight", "objectve", "Type"):
            if other not in known:
                target[other] = []
                with pytest.raises(ModelError) as caught:
                    parse_model(json.dumps(doc))
                assert str(caught.value) == f"unknown key {other!r} at {where}"
                del target[other]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), key=st.text(max_size=8), value=st.one_of(st.none(), st.integers(), st.text(max_size=3)))
    def test_one_unknown_key_anywhere_is_a_model_error(self, data, key, value):
        doc = tsp_doc(3, [[0, 1, 2], [1, 0, 3], [2, 3, 0]])
        doc["constraints"].append({"type": "table", "vars": ["x0", "x1"], "tuples": [[0, 1]]})
        objects = {"$": doc, "$.objective": doc["objective"]}
        objects.update((f"$.variables[{i}]", v) for i, v in enumerate(doc["variables"]))
        objects.update((f"$.constraints[{i}]", c) for i, c in enumerate(doc["constraints"]))
        where = data.draw(st.sampled_from(sorted(objects)))
        target = objects[where]
        assume(key not in target)
        items = list(target.items())
        items.insert(data.draw(st.integers(0, len(items))), (key, value))
        target.clear()
        target.update(items)
        with pytest.raises(ModelError) as caught:
            parse_model(json.dumps(doc))
        assert str(caught.value) == f"unknown key {key!r} at {where}"

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([], "$ must be an object, got array"),
            ([1], "$ must be an object, got array"),
            ("model", "$ must be an object, got string"),
            ({}, "missing key 'variables' at $"),
            ({"variables": {"x": 1}}, "$.variables must be an array, got object"),
            ({"variables": [5]}, "$.variables[0] must be an object, got number"),
            ({"variables": [{"lo": 0, "hi": 1}]}, "missing key 'name' at $.variables[0]"),
            ({"variables": [{"name": 3, "lo": 0, "hi": 1}]}, "$.variables[0].name must be a string, got number"),
            ({**ONE, "constraints": None}, "$.constraints must be an array, got null"),
            ({**ONE, "constraints": [[]]}, "$.constraints[0] must be an object, got array"),
            ({**ONE, "constraints": [{"vars": ["a"]}]}, "missing key 'type' at $.constraints[0]"),
            ({**ONE, "constraints": [{"type": "all_different"}]}, "missing key 'vars' at $.constraints[0]"),
            ({**ONE, "constraints": [{"type": "all_different", "vars": "a"}]},
             "$.constraints[0].vars must be an array, got string"),
            ({**ONE, "constraints": [{"type": "all_different", "vars": [5]}]},
             "$.constraints[0].vars[0] must be a string, got number"),
            ({**ONE, "constraints": [{"type": "table", "vars": ["a"]}]}, "missing key 'tuples' at $.constraints[0]"),
            ({**ONE, "objective": 3}, "$.objective must be an object, got number"),
            ({**ONE, "objective": {"type": "linear_sum", "vars": ["a"]}}, "missing key 'coeffs' at $.objective"),
            ({**ONE, "objective": {"type": "linear_sum", "vars": ["a"], "coeffs": {}}},
             "$.objective.coeffs must be an array, got object"),
        ],
    )
    def test_a_part_of_the_wrong_shape_is_named_by_its_path(self, doc, message):
        with pytest.raises(ModelError) as caught:
            parse_model(json.dumps(doc))
        assert str(caught.value) == message

    def test_a_linear_sum_within_the_bound_parses(self):
        doc = {
            "variables": [{"name": "a", "lo": -1, "hi": 1}, {"name": "b", "lo": 0, "hi": 2**63 - 1}],
            "objective": {"type": "linear_sum", "vars": ["a", "b", "a"], "coeffs": [4e307, 1.0, 4e307]},
        }
        model = parse_model(json.dumps(doc))
        assert model.objective.coeffs == (4e307, 1.0, 4e307)
        assert abs(objective_value(model, {"a": -1, "b": 2**63 - 1})) < sys.float_info.max

    def test_extreme_and_empty_rows_parse(self):
        doc = tsp_doc(2, [[0, 2**63 - 1], [0, 0]])
        doc["constraints"].append({"type": "table", "vars": ["x0", "x1"], "tuples": [[-(2**63), 2**63 - 1]]})
        doc["constraints"].append({"type": "table", "vars": ["x0", "x1"], "tuples": []})
        model = parse_model(json.dumps(doc))
        assert model.objective.weights == ((0, 2**63 - 1), (0, 0))
        assert [c.tuples for c in model.constraints[1:]] == [((-(2**63), 2**63 - 1),), ()]


class TestMatchTsp:
    def test_canonical_model_matches(self):
        match = match_tsp(tsp_model())
        assert match is not None and match.n == 4

    def test_extra_table_constraint_blocks_match(self):
        doc = tsp_doc(4, W4)
        doc["constraints"].append({"type": "table", "vars": ["x0"], "tuples": [[0]]})
        assert match_tsp(parse_model(json.dumps(doc))) is None

    def test_partial_all_different_blocks_match(self):
        doc = tsp_doc(4, W4)
        doc["constraints"][0]["vars"] = ["x0", "x1", "x2"]
        assert match_tsp(parse_model(json.dumps(doc))) is None

    def test_wrong_domain_blocks_match(self):
        doc = tsp_doc(4, W4)
        doc["variables"][0]["hi"] = 4
        assert match_tsp(parse_model(json.dumps(doc))) is None

    def test_invariant_under_renaming_and_reordering(self):
        doc = tsp_doc(4, W4)
        renamed = json.dumps(doc).replace("x0", "zz").replace("x3", "aa")
        assert match_tsp(parse_model(renamed)) is not None
        doc2 = tsp_doc(4, W4)
        doc2["variables"] = list(reversed(doc2["variables"]))
        assert match_tsp(parse_model(json.dumps(doc2))) is not None

    def test_one_city_is_not_a_tour(self):
        # 2-opt needs two cities, so a 1-city model takes the generic route
        assert match_tsp(tsp_model(1, [[0]])) is None
        assert match_tsp(tsp_model(2, [[0, 3], [3, 0]])) is not None


class TestRewrite:
    def test_uniform_weights_constant_tours(self):
        ones = [[0 if i == j else 1 for j in range(3)] for i in range(3)]
        problem = rewrite_to_tsp(match_tsp(tsp_model(3, ones)))
        for perm in itertools.permutations(range(3)):
            v, _ = problem.evaluate(Permutation(perm), env_new(0))
            assert v == 3.0

    def test_hand_sum(self):
        problem = rewrite_to_tsp(match_tsp(tsp_model()))
        v, _ = problem.evaluate(Permutation([0, 1, 2, 3]), env_new(0))
        assert v == W4[0][1] + W4[1][2] + W4[2][3] + W4[3][0]

    def test_minimum_matches_brute_force(self):
        n = 5
        W = [[abs(i - j) * 3 + (1 if (i + j) % 2 else 0) if i != j else 0 for j in range(n)] for i in range(n)]
        model = tsp_model(n, W)
        problem = rewrite_to_tsp(match_tsp(model))
        brute = min(
            sum(W[p[i]][p[(i + 1) % n]] for i in range(n))
            for p in itertools.permutations(range(n))
        )
        rewritten = min(
            problem.evaluate(Permutation(p), env_new(0))[0]
            for p in itertools.permutations(range(n))
        )
        assert rewritten == brute

    def test_emits_tsplib_audit_text(self):
        match = match_tsp(tsp_model())
        text = tsplib_explicit_text(match)
        assert "EDGE_WEIGHT_TYPE : EXPLICIT" in text
        assert "EDGE_WEIGHT_FORMAT : FULL_MATRIX" in text


class TestGenericSolve:
    def test_finds_unique_table_tuple(self):
        doc = {
            "variables": [
                {"name": "a", "lo": 0, "hi": 4},
                {"name": "b", "lo": 0, "hi": 4},
            ],
            "constraints": [{"type": "table", "vars": ["a", "b"], "tuples": [[2, 3]]}],
            "objective": None,
        }
        model = parse_model(json.dumps(doc))
        # oracle: (2,3) is the unique zero-penalty assignment
        zero_points = [
            (a, b)
            for a in range(5)
            for b in range(5)
            if count_violations(model, {"a": a, "b": b}) == 0
        ]
        assert zero_points == [(2, 3)]
        hits = 0
        for seed in range(10):
            result, _ = generic_solve(model, 500, env_new(seed))
            if result.violations == 0:
                hits += 1
                assert result.assignment == {"a": 2, "b": 3}
        assert hits >= 8

    def test_pigeonhole_infeasible(self):
        doc = {
            "variables": [
                {"name": "a", "lo": 0, "hi": 0},
                {"name": "b", "lo": 0, "hi": 0},
            ],
            "constraints": [{"type": "all_different", "vars": ["a", "b"]}],
            "objective": None,
        }
        model = parse_model(json.dumps(doc))
        result, _ = generic_solve(model, 100, env_new(1))
        assert result.violations >= 1

    def test_deterministic(self):
        doc = tsp_doc(4, W4)
        doc["constraints"].append({"type": "table", "vars": ["x0"], "tuples": [[0]]})
        model = parse_model(json.dumps(doc))
        a, _ = generic_solve(model, 300, env_new(5))
        b, _ = generic_solve(model, 300, env_new(5))
        assert a == b

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            generic_solve(tsp_model(), 0, env_new(1))


class TestDispatch:
    def test_tsp_route(self):
        result, _ = dispatch_solve(tsp_model(), 1000, env_new(1))
        assert result.route == "tsp"

    def test_generic_route(self):
        doc = tsp_doc(4, W4)
        doc["constraints"].append({"type": "table", "vars": ["x0"], "tuples": [[0]]})
        result, _ = dispatch_solve(parse_model(json.dumps(doc)), 1000, env_new(1))
        assert result.route == "generic"

    @pytest.mark.parametrize("w", [0, 7])
    def test_one_city_model_solves_generically(self, w):
        result, _ = dispatch_solve(tsp_model(1, [[w]]), 20, env_new(1))
        assert (result.route, result.assignment, result.value) == ("generic", {"x0": 0}, w)

    def test_tsp_soundness(self):
        model = tsp_model()
        result, _ = dispatch_solve(model, 2000, env_new(2))
        values = sorted(result.assignment.values())
        assert values == [0, 1, 2, 3]  # all_different satisfied
        assert objective_value(model, result.assignment) == result.value

    def test_generic_accounting(self):
        doc = tsp_doc(4, W4)
        doc["constraints"].append({"type": "table", "vars": ["x0"], "tuples": [[0]]})
        model = parse_model(json.dumps(doc))
        result, _ = dispatch_solve(model, 500, env_new(3))
        internal = result.value + DEFAULT_PENALTY * result.violations
        assert internal == objective_value(model, result.assignment) + DEFAULT_PENALTY * count_violations(model, result.assignment)

    def test_reaches_brute_force_optimum(self):
        n = 5
        W = [
            [0, 2, 9, 10, 7],
            [2, 0, 6, 4, 3],
            [9, 6, 0, 8, 5],
            [10, 4, 8, 0, 6],
            [7, 3, 5, 6, 0],
        ]
        model = tsp_model(n, W)
        brute = min(
            sum(W[p[i]][p[(i + 1) % n]] for i in range(n))
            for p in itertools.permutations(range(n))
        )
        wins = 0
        for seed in range(1, 21):
            result, _ = dispatch_solve(model, 10_000, env_new(seed))
            assert result.route == "tsp"
            if result.value == brute:
                wins += 1
        assert wins >= 18


from metafold.env import ComponentContractError
from metafold.solutions import BitVector


class TestRewrittenEvaluatorContract:
    def problem(self):
        ones = [[0 if i == j else 1 for j in range(3)] for i in range(3)]
        return rewrite_to_tsp(match_tsp(tsp_model(3, ones)))

    def test_wrong_length_permutation_is_a_contract_error(self):
        with pytest.raises(ComponentContractError, match="expected length 3, got 2"):
            self.problem().evaluate(Permutation([0, 1]), env_new(0))

    def test_bit_vector_is_a_contract_error(self):
        with pytest.raises(ComponentContractError, match="expected Permutation"):
            self.problem().evaluate(BitVector.from_string("010"), env_new(0))

    def test_objective_value_agrees_with_the_rewritten_evaluator(self):
        model = tsp_model()
        problem = rewrite_to_tsp(match_tsp(model))
        names = [v.name for v in model.variables]
        for perm in itertools.permutations(range(4)):
            value, _ = problem.evaluate(Permutation(perm), env_new(0))
            assert objective_value(model, dict(zip(names, perm))) == value


def reference_tsplib_text(match):
    """The audit text as it was rendered one weight at a time."""
    head = [
        "NAME : rewritten", "TYPE : TSP", f"DIMENSION : {match.n}", "EDGE_WEIGHT_TYPE : EXPLICIT",
        "EDGE_WEIGHT_FORMAT : FULL_MATRIX", "EDGE_WEIGHT_SECTION",
    ]
    rows = [" ".join(str(w) for w in row) for row in match.weights]
    return "\n".join([*head, *rows, "EOF"]) + "\n"


def square_matrices(weight):
    return st.integers(2, 12).flatmap(
        lambda n: st.lists(st.lists(weight, min_size=n, max_size=n), min_size=n, max_size=n)
    )


@settings(max_examples=100, deadline=None)
@given(weights=square_matrices(st.sampled_from([0, 7, 10, 999, 2**63 - 1]) | st.integers(0, 2**63 - 1)))
@example(weights=[[0, 12, 305], [0, 0, 7], [4000, 1, 0]])
def test_tsplib_text_renders_each_row_as_its_weights_one_by_one(weights):
    match = match_tsp(tsp_model(len(weights), weights))
    assert tsplib_explicit_text(match) == reference_tsplib_text(match)
