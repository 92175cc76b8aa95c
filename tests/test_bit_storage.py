"""BitVector stores its bits as one bytes object.

The references here are the tuple-based forms the byte-based code
replaced: the constructor's acceptance test, and each bit evaluator's
formula over a tuple of ints. Every input the old constructor accepted
must still construct, every input it rejected must still raise, and
every evaluator must give the same value on every vector.
"""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metafold.env import env_new
from metafold.problems import checkerboard, hiff, onemax, parse_dimacs_cnf, royal_road, trap
from metafold.solutions import BitVector, deserialize_solution, serialize_solution


def ref_accepts(bits):
    """The tuple-storing constructor's acceptance test."""
    try:
        return len(bits) >= 1 and bits.count(0) + bits.count(1) == len(bits)
    except (AttributeError, TypeError):
        return False


def as_ints(bits):
    return tuple(int(b == 1) for b in bits)


values = st.one_of(
    st.integers(-2, 3),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 1.0, -0.0, 0.5, 1 + 0j, 0j]),
)
containers = st.sampled_from([tuple, list])
byte_values = st.lists(st.integers(0, 3), max_size=12)
byte_containers = st.sampled_from([bytes, bytearray, lambda xs: array("B", xs)])


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.tuples(containers, st.lists(values, max_size=12)),
    st.tuples(byte_containers, byte_values),
))
def test_accepts_and_rejects_what_the_tuple_constructor_did(case):
    make, items = case
    bits = make(items)
    if not ref_accepts(bits):
        with pytest.raises(ValueError):
            BitVector(bits)
        return
    sol = BitVector(bits)
    assert sol.bits == as_ints(bits)
    assert type(sol.packed) is bytes and set(sol.packed) <= {0, 1}
    assert len(sol) == len(bits)


@pytest.mark.parametrize(
    "bits",
    [(), [], b"", "01", "0", 1, None, {0: 1}, {0, 1}, (0, 2), (1, -1), b"\x02", (float("nan"),)],
)
def test_rejects_what_the_tuple_constructor_rejected(bits):
    assert not ref_accepts(bits)
    with pytest.raises(ValueError):
        BitVector(bits)


class Bits(tuple):
    """A tuple subclass, which the constructor does not convert in C first."""


@pytest.mark.parametrize(
    "bits",
    [
        (1.0, 0.0), [0.0, 1.0, -0.0], (1 + 0j, 0j), (0.5, 1), (True, False, 1),
        (0, 256), (256,), (1, -1), (-1,), [255, 0], (2**70,), (1, 2**70),
        array("b", [0, 1, 1]), array("b", [-1, 0]), array("b", [0, 2]),
        array("d", [0.0, 1.0]), array("d", [0.5]), array("d", [1.0]), array("d"),
        array("h", [1, 0]), array("q", [1]), array("B", [1, 0, 1]), array("B", [0, 255]),
        bytes([0, 1, 0]), bytearray([1, 1]), bytes([1, 2]), bytearray(b"\x00\xff"),
        Bits((1, 0)), Bits((1, 2)), Bits(()), memoryview(b"\x00\x01"), {0: 1}, {0, 1},
        [1, "1"], [None], (0, 1, 1.5),
    ],
    # a memoryview's repr holds its address; name it by its bytes so the id is stable
    ids=lambda bits: f"memoryview({bytes(bits).hex()})" if isinstance(bits, memoryview) else repr(bits),
)
def test_the_c_conversion_accepts_what_the_count_test_does(bits):
    if not ref_accepts(bits):
        with pytest.raises(ValueError):
            BitVector(bits)
        return
    sol = BitVector(bits)
    assert sol.packed == bytes(int(b == 1) for b in bits)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=300))
def test_every_form_of_the_same_bits_is_one_vector(bits):
    forms = [
        tuple(bits), list(bits), bytes(bits), bytearray(bits),
        tuple(map(bool, bits)), tuple(map(float, bits)), [b - 0.0 for b in bits],
        array("B", bits), array("d", bits),
    ]
    vectors = [BitVector(form) for form in forms]
    first = vectors[0]
    for sol in vectors:
        assert sol == first and hash(sol) == hash(first)
        assert sol.packed == bytes(bits) and sol.bits == tuple(bits)
    assert len(set(vectors)) == 1


def test_bits_is_a_fresh_tuple_and_the_vector_is_frozen():
    sol = BitVector([1, 0, 1])
    assert isinstance(sol.bits, tuple) and sol.bits == (1, 0, 1)
    assert sol.bits is not sol.bits
    with pytest.raises(AttributeError):
        sol.packed = b"\x00"
    with pytest.raises(AttributeError):
        sol.bits = (0,)


@given(st.text(alphabet="01", min_size=1, max_size=300))
def test_text_round_trip(text):
    sol = BitVector.from_string(text)
    assert sol.to_string() == text
    assert sol.bits == tuple(map(int, text))
    assert BitVector(sol.bits) == sol
    assert deserialize_solution(serialize_solution(sol), "bits") == sol


# Tuple-based references: each bit evaluator's formula over a tuple of ints.


def ref_onemax(n, bits):
    return n - sum(bits)


def ref_checkerboard(s, bits):
    equal = 0
    for r in range(s):
        for c in range(s):
            if c + 1 < s and bits[r * s + c] == bits[r * s + c + 1]:
                equal += 1
            if r + 1 < s and bits[r * s + c] == bits[(r + 1) * s + c]:
                equal += 1
    return equal


def ref_royal_road(n, b, bits):
    return n - b * sum(1 for i in range(0, n, b) if all(bits[i : i + b]))


def ref_trap(n, b, bits):
    total = 0
    for i in range(0, n, b):
        ones = sum(bits[i : i + b])
        total += b - (b if ones == b else b - 1 - ones)
    return total


def ref_hiff(n, bits):
    k = n.bit_length() - 1
    f = 0
    for level in range(k + 1):
        size = 1 << level
        for start in range(0, n, size):
            block = bits[start : start + size]
            if all(x == block[0] for x in block):
                f += size
    return n * (k + 1) - f


def ref_maxsat(clauses, bits):
    negated = tuple(1 - x for x in bits)
    unsat = 0
    for clause in clauses:
        if not any(bits[lit - 1] if lit > 0 else negated[-lit - 1] for lit in clause):
            unsat += 1
    return unsat


def bit_lists(n):
    return st.lists(st.integers(0, 1), min_size=n, max_size=n)


@st.composite
def cases(draw):
    """(problem, tuple reference value) for one of the six bit evaluators."""
    kind = draw(st.sampled_from(["onemax", "checkerboard", "royal_road", "trap", "hiff", "maxsat"]))
    if kind == "onemax":
        n = draw(st.integers(1, 200))
        bits = draw(bit_lists(n))
        return onemax(n), bits, ref_onemax(n, bits)
    if kind == "checkerboard":
        s = draw(st.integers(2, 12))
        bits = draw(bit_lists(s * s))
        return checkerboard(s), bits, ref_checkerboard(s, bits)
    if kind in ("royal_road", "trap"):
        b = draw(st.integers(1, 8))
        n = b * draw(st.integers(1, 20))
        bits = draw(bit_lists(n))
        if kind == "trap":
            return trap(n, b), bits, ref_trap(n, b, bits)
        return royal_road(n, b), bits, ref_royal_road(n, b, bits)
    if kind == "hiff":
        n = 1 << draw(st.integers(0, 7))
        bits = draw(bit_lists(n))
        return hiff(n), bits, ref_hiff(n, bits)
    n = draw(st.integers(1, 12))
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    clauses = draw(st.lists(st.lists(literal, max_size=4), max_size=25))
    text = "\n".join([f"p cnf {n} {len(clauses)}"] + [" ".join(map(str, c + [0])) for c in clauses])
    bits = draw(bit_lists(n))
    return parse_dimacs_cnf(text), bits, ref_maxsat(clauses, bits)


@settings(max_examples=400, deadline=None)
@given(case=cases(), form=st.sampled_from([tuple, bytes, lambda xs: tuple(map(float, xs))]))
def test_bit_evaluators_equal_their_tuple_formulas(case, form):
    problem, bits, expected = case
    value, env = problem.evaluate(BitVector(form(bits)), env_new(3))
    assert value == float(expected)
    assert env == env_new(3)
