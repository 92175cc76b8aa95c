import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from metafold.env import env_new
from metafold.palette import default_registry
from metafold.rpc import ERR_INVALID_PARAMS, handle_rpc
from metafold.solutions import (
    REPRESENTATIONS,
    Assignment,
    BitVector,
    Permutation,
    RealVector,
    SolutionFormatError,
    deserialize_solution,
    serialize_solution,
    solution_digest,
    solution_from_json,
    solution_to_json,
)


def test_bitvector_validates():
    with pytest.raises(ValueError):
        BitVector([0, 2])
    with pytest.raises(ValueError):
        BitVector(())


def test_permutation_validates():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        Permutation([1, 2, 3])


def test_realvector_rejects_nonfinite():
    with pytest.raises(ValueError):
        RealVector([float("inf")])


@pytest.mark.parametrize(
    "sol",
    [
        BitVector.from_string("010011"),
        Permutation([3, 0, 2, 1]),
        RealVector([0.1 + 0.2, -1e-12, 4e300]),
    ],
)
def test_serialization_round_trip(sol):
    text = serialize_solution(sol)
    tag = json.loads(text)["t"]
    assert deserialize_solution(text, tag) == sol


def test_deserialize_rejects_duplicate_permutation():
    with pytest.raises(SolutionFormatError):
        deserialize_solution('{"t":"perm","v":[0,0,1]}', "perm")


def test_deserialize_checks_representation_tag():
    with pytest.raises(SolutionFormatError):
        deserialize_solution('{"t":"bits","v":"01"}', "perm")


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
def test_real_round_trip_exact(coords):
    sol = RealVector(coords)
    assert deserialize_solution(serialize_solution(sol), "real") == sol


def test_digest_stable_and_distinct():
    a = BitVector.from_string("0101")
    assert solution_digest(a) == solution_digest(BitVector.from_string("0101"))
    assert solution_digest(a) != solution_digest(BitVector.from_string("0111"))
    assert 0 <= solution_digest(a) < 2**64


def test_solution_from_json_rejects_garbage():
    with pytest.raises(SolutionFormatError):
        solution_from_json({"t": "matrix", "v": []})
    with pytest.raises(SolutionFormatError):
        solution_from_json(["not", "an", "object"])



@pytest.mark.parametrize(
    "obj, message",
    [
        (["not", "an", "object"], "solution must be an object, got array"),
        ({"t": "bits"}, "missing key 'v' at solution"),
        ({"t": "bits", "v": "01", "w": 1}, "unknown key 'w' at solution"),
        ({"t": 1, "v": "01"}, "solution.t must be a string, got number"),
    ],
)
def test_a_solution_object_outside_its_shape_names_the_part(obj, message):
    with pytest.raises(SolutionFormatError) as caught:
        solution_from_json(obj)
    assert str(caught.value) == message

@pytest.mark.parametrize("payload", [[0, 1], [1], (0, 1), 1, None, b"01", {"0": 1}])
def test_bits_payload_must_be_a_string(payload):
    with pytest.raises(SolutionFormatError):
        solution_from_json({"t": "bits", "v": payload})


@pytest.mark.parametrize("text", ["", "012", "01 ", " 01", "0b1", "١", "1\n"])
def test_bits_string_rejects_anything_but_0_1(text):
    with pytest.raises(SolutionFormatError):
        solution_from_json({"t": "bits", "v": text})


bit_values = st.one_of(
    st.sampled_from([0, 1]), st.booleans(), st.sampled_from([0.0, 1.0, -0.0])
)


@given(st.lists(bit_values, min_size=1, max_size=70).map(tuple))
def test_every_accepted_bitvector_round_trips_as_0_1_text(bits):
    sol = BitVector(bits)
    payload = solution_to_json(sol)["v"]
    assert set(payload) <= {"0", "1"} and len(payload) == len(bits)
    assert deserialize_solution(serialize_solution(sol), "bits") == sol
    assert BitVector.from_string(payload) == sol


def test_list_built_bitvector_is_hashable_and_equal_to_the_parsed_one():
    built = BitVector([0, 1])
    parsed = BitVector.from_string("01")
    assert built.bits == (0, 1) and isinstance(built.bits, tuple)
    assert built == parsed and hash(built) == hash(parsed)
    assert len({built, parsed}) == 1
    assert solution_from_json(solution_to_json(built)) == built


MISTYPED = [
    ("perm", [0.7, 1]),  # read as (0, 1) by truncation
    ("perm", [1.0, 0]),
    ("perm", ["1", "0"]),
    ("perm", [True, False]),  # read as (1, 0)
    ("perm", [0, None]),
    ("perm", "01"),
    ("perm", {"0": 1}),
    ("perm", 3),
    ("real", ["1.5"]),
    ("real", [True, 0.5]),  # read as (1.0, 0.5)
    ("real", [None]),
    ("real", [[1.0]]),
    ("real", "1.5"),
    ("real", 1.5),
]


@pytest.mark.parametrize("tag, payload", MISTYPED)
def test_perm_and_real_payloads_must_hold_json_integers_and_numbers(tag, payload):
    with pytest.raises(SolutionFormatError, match=f"^{tag} payload must be a list of JSON"):
        solution_from_json({"t": tag, "v": payload})


def stored(sol):
    return sol.order if isinstance(sol, Permutation) else sol.coords


@pytest.mark.parametrize(
    "obj, expected",
    [
        ({"t": "perm", "v": [2, 0, 1]}, Permutation((2, 0, 1))),
        ({"t": "perm", "v": []}, Permutation(())),
        ({"t": "real", "v": [1, -2.5, 0]}, RealVector((1.0, -2.5, 0.0))),
    ],
)
def test_well_typed_perm_and_real_payloads_are_read(obj, expected):
    sol = solution_from_json(obj)
    assert sol == expected
    assert type(stored(sol)) is tuple


@pytest.mark.parametrize("payload", [[1e400], [10**400], [float("nan")]])
def test_a_real_payload_no_float_holds_is_a_format_error(payload):
    with pytest.raises(SolutionFormatError):
        solution_from_json({"t": "real", "v": payload})


@pytest.mark.parametrize(
    "built, plain",
    [
        (Permutation([1, 0, 2]), Permutation((1, 0, 2))),
        (Permutation(range(3)), Permutation((0, 1, 2))),
        (Permutation((True, False)), Permutation((1, 0))),
        (Permutation([1.0, 0.0]), Permutation((1, 0))),
        (RealVector((1, 2)), RealVector((1, 2))),
        (RealVector([True, 0.5]), RealVector((1.0, 0.5))),
    ],
)
def test_equal_solutions_hash_serialize_and_digest_alike(built, plain):
    assert built == plain and hash(built) == hash(plain) and repr(built) == repr(plain)
    assert serialize_solution(built) == serialize_solution(plain)
    assert solution_digest(built) == solution_digest(plain)
    assert type(stored(built)) is tuple
    assert {type(x) for x in stored(built)} <= ({int} if isinstance(built, Permutation) else {float})


@pytest.mark.parametrize("coords", [("1.5",), (None,), ([1.0],)])
def test_realvector_refuses_what_is_not_a_number(coords):
    with pytest.raises((TypeError, ValueError)):
        RealVector(coords)


@pytest.mark.parametrize("coords", [("1.5",), (None,), ([1.0],), (0.5, b"1")])
def test_realvector_refuses_what_is_not_a_number_with_value_error(coords):
    with pytest.raises(ValueError, match="coordinates must be finite real numbers"):
        RealVector(coords)


def test_realvector_refuses_an_int_no_float_holds():
    with pytest.raises(ValueError, match="coordinates must be finite"):
        RealVector((10**400,))


# For each tag of the table, a pair of equal solutions built from different
# inputs (an assignment's partner is a plain dict, its items in reverse
# order); a tag without a strategy here fails the test below.
EQUAL_PAIRS = {
    "bits": st.lists(st.sampled_from([0, 1]), min_size=1, max_size=40).map(
        lambda bits: (BitVector(bits), BitVector(tuple(map(float, bits))))
    ),
    "perm": st.integers(0, 12).flatmap(lambda n: st.permutations(range(n))).map(
        lambda order: (Permutation(order), Permutation(tuple(map(float, order))))
    ),
    "real": st.lists(st.integers(-10**6, 10**6), max_size=8).map(
        lambda coords: (RealVector(coords), RealVector(tuple(map(float, coords))))
    ),
    "assignment": st.dictionaries(st.text(max_size=4), st.integers(), max_size=6).map(
        lambda items: (Assignment(items), dict(reversed(items.items())))
    ),
}


@given(st.sampled_from(sorted(REPRESENTATIONS)).flatmap(lambda t: st.tuples(st.just(t), EQUAL_PAIRS[t])))
def test_every_representation_round_trips_and_digests_equal_solutions_alike(tagged):
    assert set(EQUAL_PAIRS) == set(REPRESENTATIONS)
    tag, (sol, equal) = tagged
    assert sol == equal
    assert solution_to_json(sol)["t"] == tag
    assert solution_from_json(solution_to_json(sol)) == sol
    assert deserialize_solution(serialize_solution(sol), tag) == sol
    assert serialize_solution(sol) == serialize_solution(equal)
    assert solution_digest(sol) == solution_digest(equal)


@pytest.mark.parametrize(
    "payload", [{"x": True}, {"x": 1.0}, [1], "x"], ids=["bool", "float", "list", "string"]
)
def test_a_bad_assignment_payload_is_a_format_error_and_invalid_params_on_the_wire(payload):
    obj = {"t": "assignment", "v": payload}
    with pytest.raises(SolutionFormatError, match="^assignment payload must be an object of JSON integers"):
        solution_from_json(obj)
    params = {"component": "bitflip", "params": {}, "env": env_new(0).to_json(), "solution": obj}
    body = json.dumps({"jsonrpc": "2.0", "id": 1, "method": "perturb", "params": params})
    assert handle_rpc(default_registry(), body.encode())["error"]["code"] == ERR_INVALID_PARAMS


@pytest.mark.parametrize(
    "payload, json_type",
    [(None, "null"), (True, "boolean"), (1, "number"), (0.5, "number"), ([0, 1], "array"), ({}, "object")],
)
def test_a_bits_payload_that_is_no_string_is_named_by_its_json_type(payload, json_type):
    message = f"bits payload must be a 0/1 string, got {json_type}"
    solution = {"t": "bits", "v": payload}
    with pytest.raises(SolutionFormatError) as caught:
        solution_from_json(solution)
    assert str(caught.value) == message
    params = {"component": "bitflip", "params": {}, "env": env_new(0).to_json(), "solution": solution}
    body = json.dumps({"jsonrpc": "2.0", "id": 1, "method": "perturb", "params": params})
    assert handle_rpc(default_registry(), body.encode())["error"] == {
        "code": ERR_INVALID_PARAMS, "message": f"malformed params: {message}",
    }


@pytest.mark.parametrize(
    "text, json_type", [("[1]", "array"), ("null", "null"), ('"01"', "string"), ("3", "number")]
)
def test_deserialize_refuses_json_that_is_no_object(text, json_type):
    with pytest.raises(SolutionFormatError, match=f"^solution must be an object, got {json_type}$"):
        deserialize_solution(text, "bits")
