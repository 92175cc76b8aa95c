"""BitVector stores its bits as one bytes object.

The references here are the tuple-based forms the byte-based code
replaced: the constructor's acceptance test, and each bit evaluator's
formula over a tuple of ints. Every input the old constructor accepted
must still construct, every input it rejected must still raise, and
every evaluator must give the same value on every vector.
"""

import random
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


# The block, HIFF and checkerboard evaluators count with whole-vector int
# operations; against the per-element references above, on vectors whose
# blocks are often homogeneous, which uniform random bits seldom give.

DENSITIES = [0.0, 0.5, 0.9, 0.99, 1.0]  # 0.0 and 1.0: all zeros, all ones


def dense_bits(n, density, seed):
    rng = random.Random(seed)
    return [int(rng.random() < density) for _ in range(n)]


def divisors(n):
    return [b for b in range(1, n + 1) if n % b == 0]


@st.composite
def block_cases(draw):
    n = draw(st.integers(1, 2048))
    b = draw(st.sampled_from(divisors(n)))
    return n, b, dense_bits(n, draw(st.sampled_from(DENSITIES)), draw(st.integers(0, 2**32)))


def block_value(kind, n, b, bits):
    problem = trap(n, b) if kind == "trap" else royal_road(n, b)
    return problem.evaluate(BitVector(bytes(bits)), env_new(3))[0]


def ref_block_value(kind, n, b, bits):
    return float(ref_trap(n, b, bits) if kind == "trap" else ref_royal_road(n, b, bits))


@settings(max_examples=300, deadline=None)
@given(case=block_cases(), kind=st.sampled_from(["trap", "royal_road"]))
def test_block_evaluators_equal_their_references_up_to_2048_bits(case, kind):
    n, b, bits = case
    assert block_value(kind, n, b, bits) == ref_block_value(kind, n, b, bits)


# 1680 = 2^4 * 3 * 5 * 7 has 40 divisors: block sizes on both sides of 16,
# powers of two and not, 1 and n; 2048 has every power of two up to n
@pytest.mark.parametrize("n", [1, 16, 17, 1680, 2048])
@pytest.mark.parametrize("kind", ["trap", "royal_road"])
def test_block_evaluators_equal_their_references_at_every_divisor(n, kind):
    for b in divisors(n):
        for density in DENSITIES:
            bits = dense_bits(n, density, seed=b)
            assert block_value(kind, n, b, bits) == ref_block_value(kind, n, b, bits), (b, density)


def hierarchical_bits(n, rng):
    """Bits in which each aligned block is, with chance 1/2, one repeated
    random bit, so homogeneous blocks turn up at every HIFF level."""
    if n == 1 or rng.random() < 0.5:
        return [rng.randrange(2)] * n
    return hierarchical_bits(n // 2, rng) + hierarchical_bits(n // 2, rng)


@settings(max_examples=200, deadline=None)
@given(k=st.integers(0, 11), seed=st.integers(0, 2**32), fill=st.sampled_from(["tree"] + DENSITIES))
def test_hiff_equals_its_reference_from_1_to_2048_bits(k, seed, fill):
    n = 1 << k
    if fill == "tree":
        bits = hierarchical_bits(n, random.Random(seed))
    else:
        bits = dense_bits(n, fill, seed)
    assert hiff(n).evaluate(BitVector(bytes(bits)), env_new(3))[0] == float(ref_hiff(n, bits))


@pytest.mark.parametrize("s", range(2, 41))
def test_checkerboard_equals_its_reference_from_side_2_to_40(s):
    perfect = [(r + c) % 2 for r in range(s) for c in range(s)]
    rng = random.Random(s)
    striped = [bit for _ in range(s) for bit in [rng.randrange(2)] * s]  # each row one bit
    vectors = [perfect, [1 - x for x in perfect], striped]
    vectors += [dense_bits(s * s, density, seed=s) for density in DENSITIES]
    problem = checkerboard(s)
    for bits in vectors:
        value, _ = problem.evaluate(BitVector(bytes(bits)), env_new(3))
        assert value == float(ref_checkerboard(s, bits))
