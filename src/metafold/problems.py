"""Benchmark problems: evaluators and instance parsers.

All objectives are minimized with known optimum 0 where stated. Evaluators
are plain components that reject a solution of the wrong representation or
length with ComponentContractError; start samplers (in `solutions`) draw
exclusively from the threaded RNG so initial solutions replay from the seed.
"""

from __future__ import annotations

import math
import struct
from array import array
from dataclasses import dataclass
from itertools import chain, compress, repeat
from typing import Callable, Dict, Optional, Tuple

from .components import Component, ComponentDescriptor
from .env import ComponentContractError, Environment
from .solutions import REPRESENTATIONS, BitVector, Permutation, Solution


# The most elements (bits, reals, permutation entries) a problem that
# `metafold run` builds may have: the CLI caps its size fields with it and
# parse_dimacs_cnf its header, which is all a 17-byte file needs to ask for
# gigabytes. Library constructors take any size.
MAX_SIZE = 2**20


class ParseError(Exception):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class ProblemInstance:
    name: str
    representation: str  # a key of solutions.REPRESENTATIONS
    evaluate: Component
    sample_initial: Callable[[Environment], Tuple[Solution, Environment]]
    metadata: Dict


def problem_instance(
    kind: str, name: str, representation: str, size: int, value, delta=None, **metadata
) -> ProblemInstance:
    """The problem `name` over `representation` solutions of `size`
    elements, each scored by `value`. Its evaluator, the component `kind`,
    rejects any other solution with ComponentContractError; its start
    sampler is the representation's; `metadata["n"]` is `size`.

    With `delta`, the problem scores incrementally: `value(sol)` and
    `delta(aux, move, sol)` each return `(score, aux)`, and the evaluator
    keeps `(owner, aux)` as the `_memo` of each solution it scores, where
    `owner` is made once per instance (a plain dict keeps none). A child
    that `solutions._child` built from a parent whose memo this instance
    wrote carries `(that memo, move)` as its `_provenance`, and is scored
    by `delta` from the parent's aux; every other solution by `value`.
    Both must give the same score, and `delta` must leave the aux it is
    given as it was: the parent's memo still holds it."""
    record = REPRESENTATIONS[representation]
    expected = record.cls
    owner = object()

    def step(sol, env):
        if not isinstance(sol, expected):
            raise ComponentContractError(
                f"{kind}: expected {expected.__name__}, got {type(sol).__name__}"
            )
        if len(sol) != size:
            raise ComponentContractError(f"{kind}: expected length {size}, got {len(sol)}")
        if delta is None:
            return float(value(sol)), env
        provenance = getattr(sol, "_provenance", None)  # a plain dict has none
        if provenance is not None and provenance[0][0] is owner:
            (_, aux), move = provenance
            score, aux = delta(aux, move, sol)
        else:
            score, aux = value(sol)
        if type(sol) is not dict:
            sol.__dict__["_memo"] = (owner, aux)
        return float(score), env

    metadata = {"n": size, **metadata}
    evaluate = Component(ComponentDescriptor(kind, "evaluate"), step)
    return ProblemInstance(name, representation, evaluate, record.sampler(size, metadata), metadata)


# ---------------------------------------------------------------------------
# Bit-vector problems

_NOT_BITS = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def onemax(n: int) -> ProblemInstance:
    if n < 1:
        raise ValueError("n must be >= 1")
    return problem_instance(
        "onemax", f"onemax_{n}", "bits", n, lambda s: n - s.packed.count(1), optimum_value=0.0
    )


def checkerboard(s: int) -> ProblemInstance:
    """s*s grid, row-major; counts equal-valued horizontally/vertically
    adjacent pairs. Optimum 0 at either perfect checkerboard.

    An evaluation is nine whole-vector int operations on the packed bytes
    read as one int y, byte i holding cell i. Byte i of y ^ (y >> 8) is 1
    where cell i differs from its right neighbour, and byte i of
    y ^ (y >> 8*s) where it differs from the cell below. A cell of the
    last column has no right neighbour and one of the last row none below,
    so a mask of them is ORed into each: every byte of both is then 0 at
    an equal pair and only there, and the equal pairs are 2n less their
    1-bytes."""
    if s < 2:
        raise ValueError("s must be >= 2")
    n = s * s
    last_column = int.from_bytes((bytes(s - 1) + b"\x01") * s, "little")
    last_row = int.from_bytes(bytes(n - s) + b"\x01" * s, "little")

    def value(sol: BitVector) -> int:
        y = int.from_bytes(sol.packed, "little")
        right = (y ^ (y >> 8)) | last_column
        below = (y ^ (y >> 8 * s)) | last_row
        return 2 * n - right.bit_count() - below.bit_count()

    return problem_instance(
        "checkerboard", f"checkerboard_{s}", "bits", n, value, s=s, optimum_value=0.0
    )


def _block_starts(n: int, size: int) -> int:
    """An int of n little-endian bytes: 1 in the first byte of each aligned
    block of `size` bytes, 0 elsewhere."""
    return int.from_bytes((b"\x01" + bytes(size - 1)) * (n // size), "little")


def _full_blocks(n: int, b: int) -> Callable[[bytes], int]:
    """Counts the all-ones blocks of b bits in a packed vector of n bits,
    b dividing n, with a fixed number of C-level operations.

    For b <= 16 the bytes are read as one int y, byte i holding bit i.
    Every byte is 0 or 1, so ANDing y with itself shifted by 1, 2, 4, ...
    bytes, up to the largest power of two p <= b, and once more by b - p
    bytes when b > p, leaves in byte i the AND of bits i..i+b-1. The count
    is then (y & starts).bit_count(), where `starts` marks each block's
    first byte: 3 + 2*ceil(log2 b) operations on the whole vector. For
    b > 16 the vector is cut into its n/b blocks, each compared with a
    full one, which costs per block rather than per bit. Timed per count
    (µs, cut / shifted ANDs; timeit minimum, Python 3.11 on a 2-CPU Xeon
    VM), the two cross near b = 16 at n = 64 and near b = 32 above
    n = 1024:

        n=64     b=8 0.93/0.57   b=16 0.61/0.62  b=32 0.43/0.63
        n=256    b=8 2.8/0.96    b=16 1.5/0.91   b=32 0.88/0.98
        n=4096   b=8 39/9.0      b=16 20/9.0     b=32 10/9.0    b=64 5.1/9.0
        n=65536  b=8 695/145     b=16 340/143    b=32 156/154   b=64 79/156
    """
    if b > 16:
        unpack, full = struct.Struct(f"{b}s").iter_unpack, (b"\x01" * b,)
        return lambda packed: list(unpack(packed)).count(full)
    starts = _block_starts(n, b)
    shifts, span = [], 1
    while 2 * span <= b:
        shifts.append(8 * span)
        span *= 2
    if span < b:
        shifts.append(8 * (b - span))

    def count(packed: bytes) -> int:
        y = int.from_bytes(packed, "little")
        for shift in shifts:
            y &= y >> shift
        return (y & starts).bit_count()

    return count


def royal_road(n: int, b: int) -> ProblemInstance:
    """Objective n - b * (number of all-ones blocks); optimum 0 at all-ones.
    The blocks are counted as _full_blocks says."""
    if b < 1 or n % b != 0:
        raise ValueError("b must divide n")
    full_blocks = _full_blocks(n, b)
    return problem_instance(
        "royal_road", f"royal_road_{n}_{b}", "bits", n,
        lambda s: n - b * full_blocks(s.packed), b=b, optimum_value=0.0,
    )


def trap(n: int, b: int) -> ProblemInstance:
    """Deceptive trap: per-block score is b for all-ones, else b-1-ones;
    objective sums b - score per block, so optimum 0 at all-ones and the
    deceptive cliff sits next to it. The blocks are counted as
    _full_blocks says."""
    if b < 1 or n % b != 0:
        raise ValueError("b must divide n")
    full_blocks = _full_blocks(n, b)

    def value(sol: BitVector) -> int:
        # A block costs 0 when all ones, else 1 + its ones; summed over the
        # n/b blocks, that is n/b + all ones - (b + 1) per all-ones block.
        return n // b + sol.packed.count(1) - (b + 1) * full_blocks(sol.packed)

    return problem_instance("trap", f"trap_{n}_{b}", "bits", n, value, b=b, optimum_value=0.0)


def hiff(n: int) -> ProblemInstance:
    """Hierarchical if-and-only-if. f rewards homogeneous aligned blocks of
    size 2^l with 2^l at every level; objective = n*(k+1) - f, optimum 0 at
    all-zeros and all-ones.

    An evaluation is seven whole-vector int operations per level. The
    packed bytes and their complement are read as two ints, the lanes of
    ones and of zeros. At level l each lane is ANDed with itself shifted by
    2^(l-1) bytes, so the byte that starts an aligned block of 2^l holds 1
    when the block is all ones, resp. all zeros. A mask of those starting
    bytes counts the homogeneous blocks; the instance makes one of n bytes
    per level, n*log2(n) bytes in all (20 MiB at 2^20 bits)."""
    if n < 1 or n & (n - 1) != 0:
        raise ValueError("n must be a power of two")
    k = n.bit_length() - 1
    # (block size, half a block in bits, the blocks' first bytes) per level
    levels = [(size, 4 * size, _block_starts(n, size)) for size in (2**i for i in range(1, k + 1))]

    def value(sol: BitVector) -> int:
        ones = int.from_bytes(sol.packed, "little")
        zeros = int.from_bytes(sol.packed.translate(_NOT_BITS), "little")
        f = n  # every block of one bit is homogeneous
        for size, shift, starts in levels:
            ones &= ones >> shift
            zeros &= zeros >> shift
            f += size * ((ones | zeros) & starts).bit_count()
        return n * (k + 1) - f

    return problem_instance("hiff", f"hiff_{n}", "bits", n, value, optimum_value=0.0)


# ---------------------------------------------------------------------------
# Real-vector problems


def sphere(d: int, lo: float, hi: float) -> ProblemInstance:
    if d < 1 or not lo < hi:
        raise ValueError("need d >= 1 and lo < hi")
    if not math.isfinite(hi - lo):  # the start sampler scales by it
        raise ValueError(f"hi - lo must be finite, not {hi - lo}")
    # the value at the box's farthest corner, summed as `value` sums it, is
    # the largest any point in the box can score
    top = max(abs(lo), abs(hi))
    if math.isinf(sum(repeat(top * top, d))):
        raise ValueError(f"a sum of {d} squares of up to {top:g} overflows; narrow lo and hi")
    optimum = {"optimum_value": 0.0} if lo <= 0.0 <= hi else {}
    return problem_instance(
        "sphere", f"sphere_{d}", "real", d, lambda s: sum(c * c for c in s.coords),
        d=d, bounds=(lo, hi), **optimum,
    )


# ---------------------------------------------------------------------------
# MAX-SAT (DIMACS CNF)

# K of parse_dimacs_cnf's lane rule, which bounds the lanes' memory
_LANE_BYTES_PER_LITERAL = 128


def _clause_counts(packed, satisfies, zero_counts, lanes=None):
    """Each clause's number of true literals under the packed bit vector
    `packed`. With `lanes = (diff, base)` (see _clause_lanes), the int
    base plus the diff of every true variable, whose lane c is clause c's
    count. Otherwise a copy of `zero_counts` with one added to every clause
    that `satisfies` lists for each true literal."""
    if lanes is not None:
        diff, base = lanes
        return sum(compress(diff, packed), base)
    counts = zero_counts[:]
    for clauses_of in compress(satisfies, packed + packed.translate(_NOT_BITS)):
        for c in clauses_of:
            counts[c] += 1
    return counts


def _clause_lanes(satisfies, num_vars: int, num_clauses: int, width: int):
    """`(diff, base)`, ints whose lane c, the `width` bits from bit
    width*c, is a count for clause c: diff[v] is the clauses that variable
    v satisfies less those that its negation satisfies, and base the
    clauses' true literals when every variable is false. Any vector's
    counts are then base plus the diff of each true variable, exactly, as
    long as every count is below 2**width; width divides 8. Each literal's
    counts are added into the bytes of a fresh lane, 8/width clauses to a
    byte, and read as one int: no count carries into the next lane."""
    per_byte = 8 // width
    size = -(-num_clauses // per_byte)
    byte_of = [c // per_byte for c in range(num_clauses)]
    one_of = [1 << width * (c % per_byte) for c in range(num_clauses)]

    def read(clauses_of):
        lane = bytearray(size)
        for c in clauses_of:
            lane[byte_of[c]] += one_of[c]
        return int.from_bytes(lane, "little")

    diff = tuple(read(satisfies[v]) - read(satisfies[num_vars + v]) for v in range(num_vars))
    return diff, read(tuple(chain.from_iterable(satisfies[num_vars:])))


def parse_dimacs_cnf(text: str) -> ProblemInstance:
    """Minimization MAX-SAT: objective is the number of unsatisfied clauses.

    A scored vector keeps its clause counts, made on one of two paths that
    give the same integers. The list path adds one per true literal, one
    Python-level add per literal occurrence. The lane path keeps one int
    per variable whose lane c, w bits wide, is a count for clause c
    (_clause_lanes), and adds whole ints in C; w is 1, 2, 4 or 8, the
    fewest bits that hold the longest clause's length, so 2 for 3-SAT. An
    instance of n variables, m clauses and L literal occurrences takes the
    lanes when every clause has under 256 literals and n*m <= K*L, K =
    _LANE_BYTES_PER_LITERAL = 128, which caps the lanes at K*w/8 bytes
    per literal occurrence. Its full path sums the lanes of the true
    variables, and every child adds each flipped variable's lane to its
    parent's counts or takes it away; the nonzero lanes are then counted
    with log2(w) shift-ORs, one mask and one bit count. Every vector of
    any other instance takes the list path.

    Timed per call on random k-SAT (µs, list/lanes, the parse in ms;
    timeit minimum, Python 3.11 on a 2-CPU Xeon VM), the lanes win every
    column but the parse, on every instance here, past n*m/L = K as well.
    Random 3-SAT has n*m/L = n/3:

        n*m/L  instance           parse      full       1 flip    8 flips   32 flips
        42     125v/532c          0.8/1.1    43/2.8     1.8/1.1   6.4/1.6   23.0/3.5
        83     250v/1065c         1.6/2.3    83/3.8     2.3/1.2   7.7/1.9   25.3/4.5
        100    1000v/2000c k=10   6.9/13.2   488/10.3   3.6/2.6   9.5/4.8   34.0/13.3
        120    360v/1534c         2.3/3.5    121/4.6    2.3/1.4   7.8/2.3   26.3/5.5
        167    500v/2130c         3.2/5.0    167/5.9    2.9/1.5   8.0/2.8   25.5/6.9
        233    700v/2982c         4.5/7.3    236/7.5    2.8/1.8   9.7/3.3   27.8/9.1
        333    1000v/4260c        6.4/11.2   329/10.0   3.6/2.3   9.3/4.9   26.4/13.6

    The lanes of 250v/1065c hold 72 KB (sys.getsizeof)."""
    num_vars = num_clauses = None
    clauses = []
    current = []
    header_line = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise ParseError("duplicate header", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(f"malformed header: {line!r}", lineno)
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"malformed header: {line!r}", lineno)
            if num_vars < 1 or num_clauses < 0:
                raise ParseError("header counts must be positive", lineno)
            if num_vars > MAX_SIZE:
                raise ParseError(f"header declares {num_vars} variables; at most {MAX_SIZE}", lineno)
            header_line = lineno
            continue
        if num_vars is None:
            raise ParseError("clause before header", lineno)
        for token in line.split():
            try:
                lit = int(token)
            except ValueError:
                raise ParseError(f"bad literal token: {token!r}", lineno)
            if lit == 0:
                clauses.append(tuple(current))
                current = []
            else:
                if abs(lit) > num_vars:
                    raise ParseError(f"literal {lit} out of range", lineno)
                current.append(lit)
    if num_vars is None:
        raise ParseError("missing 'p cnf' header", 1)
    if current:
        raise ParseError("unterminated clause at end of input", header_line)
    if len(clauses) != num_clauses:
        raise ParseError(
            f"header declares {num_clauses} clauses, found {len(clauses)}",
            header_line,
        )

    # Each literal becomes an index into `bits + negated bits`: variable v
    # true is index v-1, variable v false is index num_vars + v-1.
    # satisfies[i] lists the clauses that literal index i satisfies; an
    # empty clause is in no list and stays unsatisfied. Memory is
    # O(literals).
    occurrences = [[] for _ in range(2 * num_vars)]
    for c, clause in enumerate(clauses):
        for lit in clause:
            occurrences[lit - 1 if lit > 0 else num_vars - lit - 1].append(c)
    satisfies = tuple(map(tuple, occurrences))

    # A scored vector's aux is `(unsatisfied, counts)`, counts[c] the
    # number of true literals in clause c. The full path counts them; a
    # child updates its parent's counts for its flipped variables. Both
    # give the same integers. A count never exceeds its clause's length, so
    # the counts are bytes when every clause has under 256 literals; they
    # copy as one memcpy, as a list would not. Such an instance keeps its
    # counts as one int of clause-count lanes when the docstring's rule
    # allows, each lane the fewest bits, 1, 2, 4 or 8, that hold the
    # longest clause's length.
    longest = max(map(len, clauses), default=0)
    lanes = None
    if longest < 256:
        zero_counts = bytearray(num_clauses)
        if num_vars * num_clauses <= _LANE_BYTES_PER_LITERAL * sum(map(len, clauses)):
            width = 1
            while 1 << width <= longest:
                width *= 2
            lanes = _clause_lanes(satisfies, num_vars, num_clauses, width)
    else:
        zero_counts = array("Q", bytes(8 * num_clauses))

    if lanes is None:

        def tally(counts):
            unsatisfied = counts.count(0)
            return unsatisfied, (unsatisfied, counts)

        def delta(aux, flipped, sol: BitVector):
            packed = sol.packed
            counts = aux[1][:]
            for v in flipped:
                if packed[v]:
                    made, broken = satisfies[v], satisfies[num_vars + v]
                else:
                    made, broken = satisfies[num_vars + v], satisfies[v]
                for c in made:
                    counts[c] += 1
                for c in broken:
                    counts[c] -= 1
            return tally(counts)

    else:
        diff = lanes[0]
        # bit width*c of each clause c; shifting a lane's bits down onto its
        # low bit, log2(width) ORs, leaves that bit set iff the count is not 0
        low = ((1 << width * num_clauses) - 1) // ((1 << width) - 1)
        shifts = tuple(1 << i for i in range(width.bit_length() - 1))

        def tally(counts):
            nonzero = counts
            for shift in shifts:
                nonzero |= nonzero >> shift
            unsatisfied = num_clauses - (nonzero & low).bit_count()
            return unsatisfied, (unsatisfied, counts)

        def delta(aux, flipped, sol: BitVector):
            packed = sol.packed
            counts = aux[1]
            for v in flipped:
                if packed[v]:
                    counts += diff[v]
                else:
                    counts -= diff[v]
            return tally(counts)

    def value(sol: BitVector):
        return tally(_clause_counts(sol.packed, satisfies, zero_counts, lanes))

    return problem_instance(
        "maxsat", f"maxsat_{num_vars}v_{num_clauses}c", "bits", num_vars, value,
        delta=delta, clauses=clauses,
    )


# ---------------------------------------------------------------------------
# TSP (TSPLIB EUC_2D subset)


# |x|, |y| <= 1e150 keep the squared differences of tour_length finite
_MAX_COORD = 1e150


def _nint(x: float) -> int:
    return int(x + 0.5)


def tour_length(order, coords) -> int:
    n = len(order)
    total = 0
    for i in range(n):
        (x1, y1) = coords[order[i]]
        (x2, y2) = coords[order[(i + 1) % n]]
        total += _nint(math.sqrt((x1 - x2) ** 2 + (y1 - y2) ** 2))
    return total


def parse_tsplib(text: str) -> ProblemInstance:
    """EUC_2D TSPLIB instances only; tour length uses nint-rounded edges."""
    dimension = None
    name = "tsp"
    edge_weight_type = None
    coords = {}
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line or line == "EOF":
            continue
        if line.startswith("NODE_COORD_SECTION"):
            if dimension is None:
                raise ParseError("NODE_COORD_SECTION before DIMENSION", i)
            for _ in range(dimension):
                if i >= len(lines):
                    raise ParseError("unexpected end of coordinate section", i)
                parts = lines[i].split()
                i += 1
                if len(parts) != 3:
                    raise ParseError(f"bad coordinate line: {lines[i-1]!r}", i)
                try:
                    idx, x, y = int(parts[0]), float(parts[1]), float(parts[2])
                except ValueError:
                    raise ParseError(f"bad coordinate line: {lines[i-1]!r}", i)
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise ParseError(f"non-finite coordinate: {lines[i-1]!r}", i)
                if abs(x) > _MAX_COORD or abs(y) > _MAX_COORD:
                    raise ParseError(f"coordinate beyond {_MAX_COORD:g}: {lines[i-1]!r}", i)
                coords[idx - 1] = (x, y)
            continue
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if key == "NAME":
            name = value
        elif key == "TYPE":
            if value != "TSP":
                raise ParseError(f"unsupported TYPE: {value!r}", i)
        elif key == "DIMENSION":
            try:
                dimension = int(value)
            except ValueError:
                raise ParseError(f"bad DIMENSION: {value!r}", i)
            if dimension < 1:
                raise ParseError(f"DIMENSION must be at least 1, got {dimension}", i)
        elif key == "EDGE_WEIGHT_TYPE":
            edge_weight_type = value
            if value != "EUC_2D":
                raise ParseError(f"unsupported EDGE_WEIGHT_TYPE: {value!r}", i)
    if dimension is None:
        raise ParseError("missing DIMENSION", 1)
    if edge_weight_type is None:
        raise ParseError("missing EDGE_WEIGHT_TYPE", 1)
    if len(coords) != dimension or set(coords) != set(range(dimension)):
        raise ParseError(
            f"expected coordinates for cities 1..{dimension}, got {len(coords)}", 1
        )
    city_coords = tuple(coords[c] for c in range(dimension))
    return problem_instance(
        "tsp", name, "perm", dimension, lambda s: tour_length(s.order, city_coords),
        coords=city_coords,
    )


# ---------------------------------------------------------------------------
# Magic square


def magic_square(k: int) -> ProblemInstance:
    """Permutation over 0..k^2-1; cell value is index+1 placed row-major.
    Objective sums |line sum - magic constant| over rows, columns, diagonals."""
    if k < 3:
        raise ValueError("k must be >= 3")
    n = k * k
    magic = k * (n + 1) // 2

    def value(sol: Permutation) -> int:
        grid = [[sol.order[r * k + c] + 1 for c in range(k)] for r in range(k)]
        total = 0
        for r in range(k):
            total += abs(sum(grid[r]) - magic)
        for c in range(k):
            total += abs(sum(grid[r][c] for r in range(k)) - magic)
        total += abs(sum(grid[i][i] for i in range(k)) - magic)
        total += abs(sum(grid[i][k - 1 - i] for i in range(k)) - magic)
        return total

    return problem_instance(
        "magic_square", f"magic_square_{k}", "perm", n, value, k=k, optimum_value=0.0
    )
