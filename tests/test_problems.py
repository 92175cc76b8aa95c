import itertools
import math
import sys

import pytest

from metafold import problems
from metafold.env import ComponentContractError, env_new, rng_below
from metafold.problems import (
    ParseError,
    checkerboard,
    hiff,
    magic_square,
    onemax,
    parse_dimacs_cnf,
    parse_tsplib,
    royal_road,
    sphere,
    trap,
    tour_length,
)
from metafold.solutions import BitVector, Permutation, RealVector


def all_bitstrings(n):
    for i in range(2**n):
        yield BitVector.from_string(format(i, f"0{n}b"))


def value_of(problem, sol):
    v, _ = problem.evaluate(sol, env_new(0))
    return v


class TestOneMax:
    def test_examples(self):
        p = onemax(4)
        assert value_of(p, BitVector.from_string("1111")) == 0
        assert value_of(p, BitVector.from_string("0000")) == 4
        assert value_of(p, BitVector.from_string("1010")) == 2

    def test_exhaustive_oracle(self):
        p = onemax(10)
        for sol in all_bitstrings(10):
            assert value_of(p, sol) == 10 - sum(sol.bits)


class TestCheckerboard:
    def test_examples(self):
        p = checkerboard(2)
        assert value_of(p, BitVector.from_string("1001")) == 0
        assert value_of(p, BitVector.from_string("1111")) == 4
        assert value_of(checkerboard(3), BitVector.from_string("1" * 9)) == 12

    def test_exhaustive_oracle(self):
        s = 3
        p = checkerboard(s)

        def oracle(sol):
            count = 0
            for r in range(s):
                for c in range(s):
                    for dr, dc in ((0, 1), (1, 0)):
                        r2, c2 = r + dr, c + dc
                        if r2 < s and c2 < s and sol.bits[r * s + c] == sol.bits[r2 * s + c2]:
                            count += 1
            return count

        for sol in all_bitstrings(s * s):
            assert value_of(p, sol) == oracle(sol)

    def test_wrong_length(self):
        with pytest.raises(ComponentContractError):
            value_of(checkerboard(3), BitVector.from_string("0000"))


class TestRoyalRoadAndTrap:
    def test_royal_road_example(self):
        p = royal_road(8, 4)
        assert value_of(p, BitVector.from_string("11110000")) == 4

    def test_trap_cliff(self):
        p = trap(4, 4)
        assert value_of(p, BitVector.from_string("1110")) == 4
        assert value_of(p, BitVector.from_string("1111")) == 0

    def test_rejects_nondivisor(self):
        with pytest.raises(ValueError):
            royal_road(8, 3)
        with pytest.raises(ValueError):
            trap(8, 3)

    def test_block_table_oracle(self):
        # brute-force per-block tables over all 2^b patterns
        n, b = 8, 4
        rr, tr = royal_road(n, b), trap(n, b)
        rr_table = {
            bits: (0 if all(bits) else b)
            for bits in itertools.product((0, 1), repeat=b)
        }
        tr_table = {
            bits: b - (b if sum(bits) == b else b - 1 - sum(bits))
            for bits in itertools.product((0, 1), repeat=b)
        }
        for sol in all_bitstrings(n):
            blocks = [sol.bits[i : i + b] for i in range(0, n, b)]
            assert value_of(rr, sol) == sum(rr_table[blk] for blk in blocks)
            assert value_of(tr, sol) == sum(tr_table[blk] for blk in blocks)


class TestHiff:
    def test_small_examples(self):
        assert value_of(hiff(2), BitVector.from_string("01")) == 2
        assert value_of(hiff(8), BitVector.from_string("11111111")) == 0
        assert value_of(hiff(8), BitVector.from_string("00000000")) == 0

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            hiff(6)

    def test_exhaustive_oracle(self):
        n, k = 8, 3
        p = hiff(n)

        def oracle_f(sol):
            f = 0
            for level in range(k + 1):
                size = 2**level
                for start in range(0, n, size):
                    block = set(sol.bits[start : start + size])
                    if len(block) == 1:
                        f += size
            return f

        max_f = 0
        argmax = []
        for sol in all_bitstrings(n):
            f = oracle_f(sol)
            assert value_of(p, sol) == n * (k + 1) - f
            if f > max_f:
                max_f, argmax = f, [sol]
            elif f == max_f:
                argmax.append(sol)
        assert max_f == 32
        assert {tuple(s.bits) for s in argmax} == {(0,) * 8, (1,) * 8}


class TestSphere:
    def test_examples(self):
        p = sphere(3, -5.0, 5.0)
        assert value_of(p, RealVector([0, 0, 0])) == 0.0
        assert value_of(sphere(2, -5.0, 5.0), RealVector([1, 2])) == 5.0

    def test_finite_difference_gradient(self):
        p = sphere(2, -5.0, 5.0)
        h = 1e-6
        x = [1.0, 2.0]
        grad = []
        for i in range(2):
            plus = list(x)
            minus = list(x)
            plus[i] += h
            minus[i] -= h
            grad.append(
                (value_of(p, RealVector(plus)) - value_of(p, RealVector(minus)))
                / (2 * h)
            )
        assert grad == pytest.approx([2.0, 4.0], abs=1e-5)

    def test_span_must_be_finite(self):
        # the start sampler scales by hi - lo
        with pytest.raises(ValueError, match="hi - lo must be finite"):
            sphere(2, -1e308, 1e308)
        with pytest.raises(ValueError, match="hi - lo must be finite"):
            sphere(2, -math.inf, 0.0)

    @pytest.mark.parametrize(
        "d, lo, hi",
        [(2, -1e200, 1e200), (2, 0.0, 1e155), (1, -1e155, 0.0), (100, -1.35e153, 1.0)],
    )
    def test_bounds_whose_squares_can_overflow_are_refused(self, d, lo, hi):
        # hi - lo is finite, but a corner of the box would score inf
        with pytest.raises(ValueError, match=f"a sum of {d} squares"):
            sphere(d, lo, hi)

    @pytest.mark.parametrize("d", [1, 2, 3, 100, 1000])
    def test_the_largest_accepted_bound_scores_finite_at_every_corner(self, d):
        top = math.sqrt(sys.float_info.max / d)
        while True:  # down to the largest bound the constructor takes
            try:
                p = sphere(d, -top, top)
                break
            except ValueError:
                top = math.nextafter(top, 0.0)
        assert math.isfinite(value_of(p, RealVector([top] * d)))
        assert math.isfinite(value_of(p, RealVector([-top] * d)))
        with pytest.raises(ValueError):
            sphere(d, -top, math.nextafter(top, math.inf))


CNF = """c tiny instance
p cnf 2 2
1 2 0
-1 2 0
"""


class TestDimacs:
    def test_examples(self):
        p = parse_dimacs_cnf(CNF)
        assert value_of(p, BitVector.from_string("10")) == 1
        assert value_of(p, BitVector.from_string("11")) == 0
        assert value_of(p, BitVector.from_string("01")) == 0

    def test_exhaustive_oracle(self):
        # deterministic random 3-CNF with V=10, C=40
        env = env_new(99)
        clauses = []
        for _ in range(40):
            clause = []
            seen = set()
            while len(clause) < 3:
                v, env = rng_below(env, 10)
                if v in seen:
                    continue
                seen.add(v)
                s, env = rng_below(env, 2)
                clause.append((v + 1) * (1 if s else -1))
            clauses.append(clause)
        text = "p cnf 10 40\n" + "\n".join(
            " ".join(str(l) for l in clause) + " 0" for clause in clauses
        )
        p = parse_dimacs_cnf(text)
        for i in range(1024):
            bits = [(i >> j) & 1 for j in range(10)]
            unsat = sum(
                1
                for clause in clauses
                if not any(
                    (lit > 0) == bool(bits[abs(lit) - 1]) for lit in clause
                )
            )
            assert value_of(p, BitVector(bits)) == unsat

    @pytest.mark.parametrize(
        "text",
        [
            "p dnf 2 2\n1 2 0\n-1 2 0",
            "p cnf 2 2\n1 3 0\n-1 2 0",
            "p cnf 2 3\n1 2 0\n-1 2 0",
            "1 2 0\np cnf 2 1",
            "p cnf 2 1\n1 2",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ParseError):
            parse_dimacs_cnf(text)

    def test_variable_count_above_max_size_is_refused_at_its_header(self, monkeypatch):
        with pytest.raises(ParseError, match=r"^line 1: header declares 100000000 variables"):
            parse_dimacs_cnf("p cnf 100000000 0")
        monkeypatch.setattr(problems, "MAX_SIZE", 4)
        assert parse_dimacs_cnf("p cnf 4 1\n1 -4 0\n").name == "maxsat_4v_1c"
        with pytest.raises(ParseError, match=r"^line 2: header declares 5 variables; at most 4$"):
            parse_dimacs_cnf("c five\np cnf 5 1\n1 -4 0\n")

    def test_fuzz_token_deletion(self):
        tokens = CNF.split()
        rejected = 0
        for i in range(len(tokens)):
            mutated = " ".join(tokens[:i] + tokens[i + 1 :])
            try:
                parse_dimacs_cnf(mutated)
            except ParseError as exc:
                assert "line" in str(exc)
                rejected += 1
        assert rejected > 0


TSP3 = """NAME : triangle
TYPE : TSP
DIMENSION : 3
EDGE_WEIGHT_TYPE : EUC_2D
NODE_COORD_SECTION
1 0 0
2 0 1
3 1 0
EOF
"""


class TestTsplib:
    def test_hand_geometry(self):
        p = parse_tsplib(TSP3)
        assert value_of(p, Permutation([0, 1, 2])) == 3  # 1 + nint(sqrt 2) + 1

    def test_rotation_reversal_invariance(self):
        p = parse_tsplib(TSP3)
        base = value_of(p, Permutation([0, 1, 2]))
        for tour in ([1, 2, 0], [2, 0, 1], [2, 1, 0]):
            assert value_of(p, Permutation(tour)) == base

    def test_enumeration_oracle(self):
        env = env_new(4)
        coords = []
        for _ in range(5):
            x, env = rng_below(env, 100)
            y, env = rng_below(env, 100)
            coords.append((x, y))
        text = (
            "NAME : r5\nTYPE : TSP\nDIMENSION : 5\nEDGE_WEIGHT_TYPE : EUC_2D\n"
            "NODE_COORD_SECTION\n"
            + "\n".join(f"{i+1} {x} {y}" for i, (x, y) in enumerate(coords))
            + "\nEOF\n"
        )
        p = parse_tsplib(text)
        brute = min(
            tour_length((0,) + rest, coords)
            for rest in itertools.permutations(range(1, 5))
        )
        best = min(
            value_of(p, Permutation((0,) + rest))
            for rest in itertools.permutations(range(1, 5))
        )
        assert best == brute

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda t: t.replace("EUC_2D", "GEO"),
            lambda t: t.replace("DIMENSION : 3", "DIMENSION : 4"),
            lambda t: t.replace("TYPE : TSP", "TYPE : ATSP"),
            lambda t: t.replace("1 0 0\n", ""),
            lambda t: t.replace("DIMENSION : 3", "DIMENSION : 0"),
            lambda t: t.replace("2 0 1\n", "2 nan 1\n"),
            lambda t: t.replace("3 1 0\n", "3 1 -inf\n"),
            # finite, but its squared distance to the others overflows a float
            lambda t: t.replace("3 1 0\n", "3 1e200 0\n"),
            lambda t: t.replace("2 0 1\n", "2 0 -1.5e150\n"),
        ],
    )
    def test_rejects_malformed(self, mutation):
        with pytest.raises(ParseError):
            parse_tsplib(mutation(TSP3))

    def test_coordinates_at_the_bound_keep_every_edge_finite(self):
        p = parse_tsplib(TSP3.replace("2 0 1\n", "2 -1e150 1e150\n").replace("3 1 0\n", "3 1e150 -1e150\n"))
        length = value_of(p, Permutation([0, 1, 2]))
        assert length == tour_length((0, 1, 2), p.metadata["coords"]) and math.isfinite(length)


class TestMagicSquare:
    def test_lo_shu_is_magic(self):
        p = magic_square(3)
        lo_shu = [2, 7, 6, 9, 5, 1, 4, 3, 8]
        assert value_of(p, Permutation([v - 1 for v in lo_shu])) == 0

    def test_identity_oracle(self):
        # rows 1-2-3 / 4-5-6 / 7-8-9: deviations 9+0+9 (rows) + 3+0+3
        # (columns) + 0+0 (diagonals) = 24
        assert value_of(magic_square(3), Permutation(range(9))) == 24

    def test_transpose_invariance(self):
        p = magic_square(3)
        env = env_new(2)
        for _ in range(50):
            sol, env = p.sample_initial(env)
            grid = [[sol.order[r * 3 + c] for c in range(3)] for r in range(3)]
            transposed = Permutation(
                [grid[c][r] for r in range(3) for c in range(3)]
            )
            assert value_of(p, sol) == value_of(p, transposed)

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            magic_square(2)


class TestSamplers:
    def test_permutation_sampler_valid_and_deterministic(self):
        p = magic_square(3)
        a, _ = p.sample_initial(env_new(5))
        b, _ = p.sample_initial(env_new(5))
        assert a == b
        assert sorted(a.order) == list(range(9))

    def test_fisher_yates_pinned_oracle(self):
        # frozen golden value: replaying the exact rng_below draws through
        # the descending-index Fisher-Yates gives the same permutation
        n = 6
        env = env_new(21)
        order = list(range(n))
        e = env
        for i in range(n - 1, 0, -1):
            j, e = rng_below(e, i + 1)
            order[i], order[j] = order[j], order[i]
        from metafold.solutions import sample_permutation

        sampled, _ = sample_permutation(n)(env)
        assert list(sampled.order) == order

    def test_bit_sampler_in_range(self):
        p = onemax(16)
        sol, env = p.sample_initial(env_new(1))
        assert len(sol) == 16
        assert env.rng.counter >= 16

    def test_box_sampler_in_bounds(self):
        p = sphere(4, -2.0, 3.0)
        sol, _ = p.sample_initial(env_new(8))
        assert all(-2.0 <= c <= 3.0 for c in sol.coords)


class TestWrongLength:
    @pytest.mark.parametrize(
        "problem, sol",
        [
            (onemax(4), BitVector([1] * 8)),
            (onemax(4), BitVector([1] * 3)),
            (trap(8, 4), BitVector([1] * 4)),
            (trap(8, 4), BitVector([1] * 10)),
            (royal_road(8, 4), BitVector([1] * 4)),
            (royal_road(8, 4), BitVector([1] * 12)),
            (hiff(4), BitVector([0, 0])),
            (hiff(4), BitVector([0] * 8)),
            (sphere(3, -5.0, 5.0), RealVector([0.0, 0.0])),
        ],
        ids=lambda x: getattr(x, "name", None) or str(len(x)),
    )
    def test_rejected(self, problem, sol):
        with pytest.raises(ComponentContractError):
            value_of(problem, sol)

    def test_right_length_still_evaluates(self):
        assert value_of(onemax(4), BitVector([1] * 4)) == 0
        assert value_of(hiff(4), BitVector([0] * 4)) == 0
