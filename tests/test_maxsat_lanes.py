"""MAX-SAT's two scoring paths, on both sides of the rule that picks one.

An instance whose clauses all have under 256 literals, and whose
variables times clauses is at most `_LANE_BYTES_PER_LITERAL` times its
literal occurrences, keeps one int of clause-count lanes per variable
(`problems._clause_lanes`), each lane the fewest of 1, 2, 4 or 8 bits
that hold its longest clause's length. Its full path sums those lanes,
and every child adds them to its parent's counts, one lane per flipped
variable. Every other instance counts clause by clause. Whichever path
runs, every score must equal the plain clause loop and the full path of
an equal vector that carries no provenance.

Which path ran is seen through two seams, not through timing: the
`lanes` argument that `problems._clause_counts` gets, and reads of the
per-variable lanes, which only a lane child makes.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metafold import problems
from metafold.components import perturb_bitflip
from metafold.env import env_new
from metafold.problems import parse_dimacs_cnf
from metafold.solutions import BitVector, crossover_one_point

K = problems._LANE_BYTES_PER_LITERAL


def ref_maxsat(clauses, bits):
    return sum(
        not any(bits[abs(lit) - 1] == (lit > 0) for lit in clause) for clause in clauses
    )


def cnf_text(n, clauses):
    return "\n".join([f"p cnf {n} {len(clauses)}"] + [" ".join(map(str, c + [0])) for c in clauses])


def takes_the_lanes(n, clauses):
    """The rule, as the parse docstring states it."""
    literals = sum(map(len, clauses))
    return max(map(len, clauses), default=0) < 256 and n * len(clauses) <= K * literals


class Paths:
    """What the scoring of one instance did, read through its seams."""

    def __init__(self, monkeypatch):
        self.widths = []  # per instance that built lanes: their width in bits
        self.full = []  # per full path: whether it summed lanes
        self.lane_reads = 0  # per-variable lanes read by lane children
        clause_counts, clause_lanes = problems._clause_counts, problems._clause_lanes
        paths = self

        class Read(tuple):
            def __getitem__(self, v):
                paths.lane_reads += 1
                return tuple.__getitem__(self, v)

        def lanes(satisfies, num_vars, num_clauses, width):
            self.widths.append(width)
            diff, base = clause_lanes(satisfies, num_vars, num_clauses, width)
            return Read(diff), base

        def counts(packed, satisfies, zero_counts, lanes=None):
            self.full.append(lanes is not None)
            return clause_counts(packed, satisfies, zero_counts, lanes)

        monkeypatch.setattr(problems, "_clause_lanes", lanes)
        monkeypatch.setattr(problems, "_clause_counts", counts)


@pytest.fixture
def paths(monkeypatch):
    return Paths(monkeypatch)


def score(problem, sol):
    value, _ = problem.evaluate(sol, env_new(0))
    return value


def scored_on_its_path(paths, problem, sol, lanes):
    """The score of `sol`, after checking the path it took: a child of a
    scored parent takes the lane delta, one lane read per flipped
    variable, when the instance has lanes, the list delta otherwise; any
    other vector the full path of its instance."""
    full_paths, reads = len(paths.full), paths.lane_reads
    move = sol._provenance[1] if sol._provenance is not None else None
    value = score(problem, sol)
    if move is None:
        assert paths.full[full_paths:] == [lanes]
        assert paths.lane_reads == reads
    else:
        assert len(paths.full) == full_paths
        assert paths.lane_reads == reads + (len(move) if lanes else 0)
    return value


def literal_of(n):
    var = st.integers(min_value=1, max_value=n)
    return var, var.flatmap(lambda v: st.sampled_from([v, -v]))


@st.composite
def narrow(draw):
    """n*m/L <= 12 * 4 < K: at most 12 variables, and at most 3 empty
    clauses besides at least one that is not."""
    n = draw(st.integers(min_value=1, max_value=12))
    var, literal = literal_of(n)
    clause = st.one_of(
        st.lists(literal, min_size=1, max_size=5),
        literal.map(lambda lit: [lit, lit]),  # a repeated literal
        var.map(lambda v: [v, -v]),  # a tautology
    )
    clauses = draw(st.lists(clause, min_size=1, max_size=30))
    clauses += [[]] * draw(st.integers(0, 3))
    return n, clauses


@st.composite
def wide(draw):
    """n*m/L >= n/2 > K: over 2K variables and clauses of at most 2
    literals, at least one of them."""
    n = draw(st.integers(min_value=2 * K + 1, max_value=3 * K))
    _, literal = literal_of(n)
    return n, draw(st.lists(st.lists(literal, max_size=2), min_size=1, max_size=40))


@st.composite
def long_clause(draw):
    """A clause of 256 literals or more, one literal repeated: when it is
    true, its count is past a byte, so the counts are 64-bit."""
    n, clauses = draw(narrow())
    _, literal = literal_of(n)
    return n, clauses + [[draw(literal)] * draw(st.integers(256, 300))]


@st.composite
def walk(draw, instance):
    n, clauses = draw(instance)
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    # ("flip", k): a bitflip(k) child of the current vector, kept;
    # ("cross", k): one-point crossover with a fresh partner, and a
    # bitflip(k) mutant of each child, composed with the crossover's move
    k = st.one_of(st.integers(1, n), st.just(n), st.integers(1, min(n, 16)))
    steps = draw(st.lists(st.tuples(st.sampled_from(["flip", "cross"]), k), min_size=1, max_size=12))
    return n, clauses, draw(bits), draw(bits), draw(st.booleans()), steps, draw(st.integers(0, 2**32))


def walk_both_paths(case, lanes):
    with pytest.MonkeyPatch.context() as monkeypatch:
        walk_and_check(Paths(monkeypatch), case, lanes)


def walk_and_check(paths, case, lanes):
    n, clauses, bits, partner_bits, partner_scored, steps, seed = case
    assert takes_the_lanes(n, clauses) == lanes
    problem = parse_dimacs_cnf(cnf_text(n, clauses))
    assert len(paths.widths) == lanes
    env = env_new(seed)
    current = BitVector(bits)
    assert scored_on_its_path(paths, problem, current, lanes) == ref_maxsat(clauses, bits)
    for kind, k in steps:
        if kind == "flip":
            children, env = perturb_bitflip(k)(current, env)
            children = (children,)
            current = children[0]
        else:
            partner = BitVector(partner_bits)
            if partner_scored:
                score(problem, partner)
            children, env = crossover_one_point()((current, partner), env)
            mutants = []
            for child in children:
                mutant, env = perturb_bitflip(k)(child, env)  # of an unscored child: composed
                mutants.append(mutant)
            children = (*mutants, *children)
        for sol in children:
            value = scored_on_its_path(paths, problem, sol, lanes)
            assert value == score(problem, BitVector(sol.packed)) == ref_maxsat(clauses, sol.bits)


@settings(max_examples=120, deadline=None)
@given(walk(narrow()))
@example((4, [[1, -2], [2, 3, -4], [-1, -3]], [1, 0, 1, 0], [0, 1, 1, 0], True,
          [("flip", 4), ("cross", 4), ("flip", 1)], 7))
def test_narrow_instances_take_the_lanes(case):
    walk_both_paths(case, lanes=True)


@settings(max_examples=40, deadline=None)
@given(walk(wide()))
def test_wide_instances_take_the_list(case):
    walk_both_paths(case, lanes=False)


@settings(max_examples=60, deadline=None)
@given(walk(long_clause()))
def test_an_instance_with_a_clause_of_256_literals_counts_in_64_bits(case):
    walk_both_paths(case, lanes=False)


# the longest clause's length -> the width of its instance's lanes: the
# fewest bits of 1, 2, 4 and 8 that hold it; at 256 the list path
WIDTHS = {1: 1, 3: 2, 4: 4, 15: 4, 16: 8, 255: 8, 256: None}


@st.composite
def longest_clause_of(draw, longest):
    """n*m/L <= 12 * 4 < K: at most 12 variables, one clause of `longest`
    literals and none longer, and at most 3 empty clauses."""
    n = draw(st.integers(min_value=1, max_value=12))
    var, literal = literal_of(n)
    # its count can reach its length only when one literal fills it
    clauses = [draw(st.one_of(
        literal.map(lambda lit: [lit] * longest), st.lists(literal, min_size=longest, max_size=longest)
    ))]
    clause = st.one_of(
        st.lists(literal, min_size=1, max_size=min(longest, 5)),
        st.tuples(literal, st.integers(1, longest)).map(lambda rep: [rep[0]] * rep[1]),  # repeated
        var.map(lambda v: [v, -v][:longest]),  # a tautology, when two literals fit
    )
    clauses += draw(st.lists(clause, max_size=20)) + [[]] * draw(st.integers(0, 3))
    return n, draw(st.permutations(clauses))


@pytest.mark.parametrize("longest, width", WIDTHS.items())
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_the_lanes_are_the_fewest_bits_that_hold_the_longest_clause(longest, width, data):
    case = data.draw(walk(longest_clause_of(longest)))
    assert max(map(len, case[1])) == longest
    with pytest.MonkeyPatch.context() as monkeypatch:
        paths = Paths(monkeypatch)
        walk_and_check(paths, case, lanes=width is not None)
        assert paths.widths == ([] if width is None else [width])


@pytest.mark.parametrize("n, lanes", [(K, True), (K + 1, False)])
def test_the_rule_holds_at_its_boundary(paths, n, lanes):
    # one clause of one literal: n*m = n against K*L = K
    problem = parse_dimacs_cnf(cnf_text(n, [[n]]))
    assert len(paths.widths) == lanes
    ones = BitVector([1] * n)
    assert scored_on_its_path(paths, problem, ones, lanes) == 0


def test_the_lanes_and_the_list_give_the_same_counts(monkeypatch):
    # a lane instance keeps its counts as one int whose lane c, the 2 bits
    # from bit 2c (its longest clause has 3 literals), is clause c's count;
    # decoded, they are the bytearray that the list path keeps
    clauses = [[1, -2, 3], [-1, -1], [2, -2], [], [3, 2, 1], [-3]]
    text = cnf_text(3, clauses)
    with_lanes = parse_dimacs_cnf(text)
    monkeypatch.setattr(problems, "_LANE_BYTES_PER_LITERAL", 0)
    listed = parse_dimacs_cnf(text)
    for x in range(8):
        bits = [(x >> i) & 1 for i in range(3)]
        a, b = BitVector(bits), BitVector(bits)
        score(with_lanes, a), score(listed, b)
        (unsatisfied, lanes), (listed_unsatisfied, counts) = a._memo[1], b._memo[1]
        assert type(lanes) is int and type(counts) is bytearray
        assert bytearray(lanes >> 2 * c & 3 for c in range(len(clauses))) == counts
        assert lanes >> 2 * len(clauses) == 0
        assert unsatisfied == listed_unsatisfied == ref_maxsat(clauses, bits)
