"""Acceptance suite: one test per numbered criterion, one printed verdict line each.

Every criterion asserts exact frozen values and its stated wall-clock budget.
"""

import hashlib
import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from apavoid.lattice import export_ppm, grid_search, product_grid, verify_grid
from apavoid.lemmas import (
    check_parity_separation,
    find_spaced_repeat,
    has_power_of_period,
    lex_least_check,
    paperfolding_subwords,
    square_periods,
    subword_set,
)
from apavoid.repetition import Differences, find_repetition, max_exponent, smallest_period
from apavoid.search import AvoidanceProblem, backtrack_longest, confirm_unavoidable
from apavoid.words import (
    FoldingSequence,
    Word,
    binary_large_squarefree,
    carpi_word,
    complement,
    four_letter_squarefree,
    paperfolding_prefix,
    present,
    reverse_word,
    ternary_overlapfree,
)
from oracles import pf_positional

ORDINARY = FoldingSequence.ordinary()
SEED = 20260814


@contextmanager
def criterion(number, description, limit_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number:02d} FAIL ({elapsed:.1f}s) {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:02d} PASS ({elapsed:.1f}s) {description}")
    assert elapsed < limit_s, f"criterion {number} exceeded {limit_s}s: {elapsed:.1f}s"


def random_folds(rng, bit_count):
    return FoldingSequence(tuple(rng.randrange(2) for _ in range(bit_count)))


def test_criterion_01_golden_prefixes():
    with criterion(1, "golden prefixes of the three base words", 1):
        assert present(paperfolding_prefix(ORDINARY, 16), "paperfolding") == \
            "0010011000110110"
        assert paperfolding_prefix(ORDINARY, 7).to_text() == "0010011"
        assert present(four_letter_squarefree(ORDINARY, 16), "v") == "2131243121342431"


def test_criterion_02_construction_agreement():
    with criterion(2, "prefix matches letter formula and unfolding, 50 random folds", 5):
        rng = random.Random(SEED)
        for _ in range(50):
            k = rng.randrange(1, 11)
            folds = random_folds(rng, k + 1)
            full = (1 << (k + 1)) - 1  # 2047 at most
            expected = pf_positional(list(folds.bits), full)
            whole = paperfolding_prefix(folds, full)
            assert list(whole.symbols) == expected
            half = whole.prefix(full // 2)  # F(k-1), then b_k, then F(k-1) turned over
            assert whole[full // 2] == folds.bits[k]
            assert whole.symbols[full // 2 + 1:] == reverse_word(complement(half)).symbols
            n = rng.randrange(0, full + 1)
            assert list(paperfolding_prefix(folds, n).symbols) == expected[:n]


def test_criterion_03_carpi_identity():
    with criterion(3, "Carpi fixed point equals 0 prefixed to the four-letter word", 1):
        v = four_letter_squarefree(ORDINARY, 2047)
        assert carpi_word(2048).symbols == b"\x00" + v.symbols


def test_criterion_04_paperfolding_square_suite():
    with criterion(4, "square periods in {1,3,5}, exponents <= 3, 20 random folds", 60):
        rng = random.Random(SEED)
        diff1 = Differences.exactly(1)
        for _ in range(20):
            w = paperfolding_prefix(random_folds(rng, 12), 2048)
            assert square_periods(w, range(1, 1025)) <= {1, 3, 5}
            assert find_repetition(w, 3, strict=True, differences=diff1) is None
            assert find_repetition(w, 3, min_period=2, differences=diff1) is None


def test_criterion_05_four_letter_squares():
    with criterion(5, "four-letter word: no odd-AP squares, exponent approaches 2", 120):
        v = four_letter_squarefree(ORDINARY, 512)
        assert find_repetition(v, 2, differences=Differences.odd()) is None
        top = max_exponent(four_letter_squarefree(ORDINARY, 4096))
        assert Fraction(15, 8) <= top < 2
        assert top == Fraction(2047, 1024)


def test_criterion_06_ternary_overlapfree():
    with criterion(6, "ternary coding: no odd-AP overlaps or period->=2 squares", 120):
        t = ternary_overlapfree(ORDINARY, 512)
        odd = Differences.odd()
        assert find_repetition(t, 2, strict=True, differences=odd) is None
        assert find_repetition(t, 2, min_period=2, differences=odd) is None


# Block alphabets allowed in odd-difference subsequences of the block coding:
# two interleavings, each alternating a two-block even set and odd set.
_BLOCK_CONDITIONS = (
    (("0100", "0101"), ("0011", "0111")),
    (("0101", "0001"), ("0110", "0111")),
)


def test_criterion_07_binary_large_squares():
    with criterion(7, "block coding: no odd-AP squares of period >= 3", 120):
        b = binary_large_squarefree(ORDINARY, 512)
        assert find_repetition(b, 2, min_period=3, differences=Differences.odd()) is None

        block_start = time.perf_counter()
        count = 0
        for even_set, odd_set in _BLOCK_CONDITIONS:
            for parity in (0, 1):
                sets = [odd_set if (parity + i) % 2 else even_set for i in range(4)]
                for blocks in itertools.product(*sets):
                    word = Word.from_text("".join(blocks))
                    assert square_periods(word, (3, 4, 5, 6)) == set()
                    count += 1
        assert count == 64
        assert time.perf_counter() - block_start < 1


def test_criterion_08_extremal_searches():
    with criterion(8, "exact extremal lengths 11 / 7 / 8 with exact word sets", 180):
        start = time.perf_counter()
        res = backtrack_longest(AvoidanceProblem(2, Fraction(3), Differences.odd()))
        assert res.max_length == 11
        assert {w.to_text() for w in res.maximal_words} == {
            "00110011001", "01100110011", "10011001100", "11001100110",
        }
        assert time.perf_counter() - start < 60

        start = time.perf_counter()
        res = backtrack_longest(AvoidanceProblem(3, Fraction(2), Differences.odd()))
        assert res.max_length == 7
        assert {w.to_text() for w in res.maximal_words} == {
            "0102010", "0121012", "0201020", "0212021", "1012101", "1020102",
            "1202120", "1210121", "2010201", "2021202", "2101210", "2120212",
        }
        assert time.perf_counter() - start < 60

        start = time.perf_counter()
        res = backtrack_longest(
            AvoidanceProblem(2, Fraction(2), Differences.odd(), strict=True))
        assert res.max_length == 8
        assert {w.to_text() for w in res.maximal_words} == {
            "00110011", "01011010", "01100110", "10011001", "10100101", "11001100",
        }
        assert time.perf_counter() - start < 60


def test_criterion_09_structure_property_suites():
    with criterion(9, "spaced-repeat, parity, and power-of-two block properties", 60):
        rng = random.Random(SEED)
        folds = [ORDINARY] + [random_folds(rng, 13) for _ in range(5)]
        allowed = {2, 4} | {(1 << k) - 1 for k in range(1, 8)}
        for f in folds:
            w = paperfolding_prefix(f, 4096)
            # any wcw block spacing is 2, 4, or one below a power of two
            for m in range(1, 71):
                if find_spaced_repeat(w, m) is not None:
                    assert m in allowed, (m, f)
            # and every 2^k - 1 spacing genuinely occurs
            for k in range(1, 11):
                assert find_spaced_repeat(w, (1 << k) - 1) is not None
            # length-7 blocks pin the parity of their position
            for n in (7, 9, 12):
                assert check_parity_separation(w, n)
            # no square has a power-of-two period
            for k in range(1, 12):
                assert not has_power_of_period(w, 1 << k, 2)


def test_criterion_10_subword_census_covers_odd_aps():
    with criterion(10, "block census covers odd-AP windows", 60):
        census = paperfolding_subwords(10)
        assert len(census) == 80
        s = paperfolding_prefix(ORDINARY, 512)
        seen = set()
        for j in range(1, 512, 2):
            for start in range(j):
                ap = Word(s.symbols[start::j], 2)
                if len(ap) >= 10:
                    seen |= subword_set(ap, 10)
        assert len(seen) == 72
        assert seen <= census


def test_criterion_11_lex_least_shifts():
    with criterion(11, "zero-prefixed ordinary word is least over 200 shifts", 10):
        rng = random.Random(SEED)
        for _ in range(20):
            assert lex_least_check(random_folds(rng, 9), 64, 200)


_GRID_SHA256 = {
    "product16": "41240a6f21402a9890aa616dbb6f633f0337667d2060027a809f770bbfa14e80",
    "paperfold4": "69ea74fbe5de964d24119dc998d8904dd02e9986190668896603099642a65af0",
    "overlap9": "86f685ad262b2e11d77b1bdf46ab37d083a79a64431dae3e4090a77a5053bcce",
    "bigsq4": "f5195448e381331ab6ab0217cdea6352c144fb05add40b5d5e3adcc623383b20",
}

_GRID_RECIPES = {
    "product16": (four_letter_squarefree, Fraction(2), False, 1),
    "paperfold4": (paperfolding_prefix, Fraction(3), True, 1),
    "overlap9": (ternary_overlapfree, Fraction(2), True, 1),
    "bigsq4": (binary_large_squarefree, Fraction(2), False, 3),
}


def test_criterion_12_product_grids(tmp_path):
    with criterion(12, "all four 32x32 product grids verify clean, stable PPM", 300):
        for name, (builder, threshold, strict, min_period) in _GRID_RECIPES.items():
            component = builder(ORDINARY, 32)
            grid = product_grid(component, component)
            hit = verify_grid(grid, threshold, strict=strict, min_period=min_period,
                              max_direction=8)
            assert hit is None, (name, hit)
            first, second = tmp_path / f"{name}.ppm", tmp_path / f"{name}_again.ppm"
            export_ppm(grid, first)
            export_ppm(grid, second)
            data = first.read_bytes()
            assert data == second.read_bytes()
            assert hashlib.sha256(data).hexdigest() == _GRID_SHA256[name], name


def test_criterion_13_grid_infeasibility():
    with criterion(13, "three letters cannot tile squarefree beyond side 1", 60):
        # the two verdicts together freeze the largest feasible side at 1
        assert grid_search(3, 2, 1, node_budget=10**8).status == "satisfiable"
        assert grid_search(3, 2, 2, node_budget=10**8).status == "infeasible"


def test_criterion_13_long_threshold_confirmation():
    with criterion(13, "7/4-powers are unavoidable on odd APs over 4 letters", 600):
        verdict = confirm_unavoidable(4, Fraction(7, 4), Differences.odd(),
                                      node_budget=10**9)
        assert verdict.status == "finite"
        assert verdict.max_length == 17
        assert verdict.nodes == 17876


def test_criterion_13_long_seven_letter_grid():
    # Escalating the region side under the 10^8-node budget fills every side
    # up to 7 and then stalls: settling side 8 either way costs more nodes
    # than the budget allows, so the deterministic escalation profile is the
    # frozen desk-scale outcome. The count is of the plain tree; the walk
    # covers the renamed copies of each subtree by counting them.
    with criterion(13, "seven-letter escalation profile under the node budget", 10):
        nodes = {}
        for side in range(2, 8):
            out = grid_search(7, 2, side, node_budget=10**8)
            assert out.status == "satisfiable", (side, out.status)
            nodes[side] = out.nodes
        assert nodes == {2: 10, 3: 18, 4: 110, 5: 226, 6: 348, 7: 525}
        out = grid_search(7, 2, 8, node_budget=10**8)
        assert out.status == "budget_exhausted" and out.nodes == 10**8
