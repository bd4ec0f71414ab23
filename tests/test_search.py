import random
import tracemalloc
from fractions import Fraction
from itertools import permutations, product

import pytest

from apavoid import search
from apavoid._backend import clean_after_append
from apavoid.repetition import Differences, find_repetition
from apavoid.search import (
    AvoidanceProblem,
    SearchResult,
    UnavoidabilityVerdict,
    _validate_maximal,
    _word_rule,
    backtrack_longest,
    confirm_unavoidable,
)
from apavoid.words import Word, complement

from oracles import word_search_per_class
from test_kernels import THRESHOLDS


def w(text):
    return Word.from_text(text)


BINARY_CUBES_ODD = AvoidanceProblem(2, Fraction(3), Differences.odd())
TERNARY_SQUARES_ODD = AvoidanceProblem(3, Fraction(2), Differences.odd())
BINARY_OVERLAPS_ODD = AvoidanceProblem(2, Fraction(2), Differences.odd(), strict=True)


# ---------------------------------------------------------------- classic baselines

def test_factor_squarefree_binary_maxes_out_at_three():
    prob = AvoidanceProblem(2, Fraction(2), Differences.exactly(1))
    res = backtrack_longest(prob)
    assert res.max_length == 3
    assert {x.to_text() for x in res.maximal_words} == {"010", "101"}
    assert not res.capped and not res.canonicalized


def test_squares_on_all_differences_bite_harder():
    # with every difference in play, even 010 dies: positions 0 and 2 match
    res = backtrack_longest(AvoidanceProblem(2, Fraction(2), Differences.all()))
    assert res.max_length == 2
    assert {x.to_text() for x in res.maximal_words} == {"01", "10"}
    assert res.nodes_visited == 10


# ---------------------------------------------------------------- extremal searches

def test_binary_cubes_odd_differences():
    res = backtrack_longest(BINARY_CUBES_ODD)
    assert res.max_length == 11
    assert {x.to_text() for x in res.maximal_words} == {
        "00110011001", "01100110011", "10011001100", "11001100110",
    }
    assert res.nodes_visited == 230


def test_ternary_squares_odd_differences():
    res = backtrack_longest(TERNARY_SQUARES_ODD)
    assert res.max_length == 7
    assert {x.to_text() for x in res.maximal_words} == {
        "0102010", "0121012", "0201020", "0212021", "1012101", "1020102",
        "1202120", "1210121", "2010201", "2021202", "2101210", "2120212",
    }
    assert res.nodes_visited == 210


def test_binary_overlaps_odd_differences():
    res = backtrack_longest(BINARY_OVERLAPS_ODD)
    assert res.max_length == 8
    words = {x.to_text() for x in res.maximal_words}
    assert words == {"00110011", "01011010", "01100110",
                     "10011001", "10100101", "11001100"}
    assert res.nodes_visited == 158


def test_maximal_sets_are_complement_closed():
    for prob in (BINARY_CUBES_ODD, BINARY_OVERLAPS_ODD):
        words = set(backtrack_longest(prob).maximal_words)
        assert {complement(x) for x in words} == words


def test_canonical_search_agrees_and_prunes():
    for prob, plain_nodes, canon_nodes in (
        (BINARY_CUBES_ODD, 230, 115),
        (TERNARY_SQUARES_ODD, 210, 36),
        (BINARY_OVERLAPS_ODD, 158, 79),
    ):
        plain = backtrack_longest(prob)
        canon = backtrack_longest(prob, canonical=True)
        assert canon.canonicalized and not plain.canonicalized
        assert canon.max_length == plain.max_length
        assert set(canon.maximal_words) == set(plain.maximal_words)
        assert (plain.nodes_visited, canon.nodes_visited) == (plain_nodes, canon_nodes)


def test_maximal_words_are_clean_everywhere():
    for x in backtrack_longest(TERNARY_SQUARES_ODD).maximal_words:
        for n in range(1, len(x) + 1):
            assert find_repetition(x.prefix(n), 2, differences=Differences.odd()) is None


def test_answer_rechecked_once_per_word_the_walk_found(monkeypatch):
    # a renaming keeps a word clean and maximal, so a canonical answer is
    # re-checked on its canonical words only, not on every renamed copy
    checked = []
    monkeypatch.setattr(search, "find_repetition",
                        lambda word, *a, **k: checked.append(word) or find_repetition(word, *a, **k))
    for prob, canon_checks, plain_checks in (
        (TERNARY_SQUARES_ODD, 2, 12),
        (AvoidanceProblem(5, Fraction(3, 2), Differences.odd()), 1, 120),
        (AvoidanceProblem(4, Fraction(7, 4), Differences.odd()), 1, 24),
    ):
        for canonical, count in ((True, canon_checks), (False, plain_checks)):
            checked.clear()
            res = backtrack_longest(prob, canonical=canonical)
            assert len(checked) == len(set(checked)) == count
            assert set(checked) <= set(res.maximal_words)
            if not canonical:
                assert set(checked) == set(res.maximal_words)


def test_recheck_refuses_unclean_and_extendable_words():
    with pytest.raises(RuntimeError, match=r"an unclean word 000: diff=1 start=0 offset=0 "
                                           r"period=1 exponent=3/1"):
        _validate_maximal([b"\0\0\0"], BINARY_CUBES_ODD)
    # 0011 begins the maximal word 00110011001, so it still extends
    with pytest.raises(RuntimeError, match=r"a non-maximal word 0011$"):
        _validate_maximal([w("0011").symbols], BINARY_CUBES_ODD)
    _validate_maximal([w("00110011001").symbols], BINARY_CUBES_ODD)


def test_engine_matches_per_class_oracle():
    rng = random.Random(6021)
    outcomes = set()
    for _ in range(100):
        # small alphabets and min_period 1 give the finite trees, whose word
        # sets are compared
        k = rng.choice((2, 2, 3, 3, 4, 5))
        t = rng.choice(THRESHOLDS)
        strict = rng.random() < 0.5
        min_period = rng.choice((1, 1, 2, 3))
        diffs = rng.choice((Differences.all(), Differences.odd(),
                            Differences.exactly(rng.randrange(1, 4)),
                            Differences.all(rng.randrange(1, 6)),
                            Differences.odd(rng.randrange(1, 6))))
        canonical = rng.random() < 0.5
        cap = rng.choice((None, None, rng.randrange(1, 30)))
        # with min_period > 1 a constant word stays clean, so the search
        # dives as deep as its budget and each node scans every difference
        budget = rng.randrange(1, 501 if min_period == 1 else 61)
        case = (k, t, strict, min_period, diffs, canonical, cap, budget)
        length, found, nodes, capped, out = word_search_per_class(
            k, t, clean_after_append, strict, min_period, (diffs.kind, diffs.value),
            canonical, cap, budget)
        outcomes.add((capped, out))

        res = backtrack_longest(AvoidanceProblem(k, t, diffs, strict=strict,
                                                 min_period=min_period, length_cap=cap),
                                canonical=canonical, node_budget=budget)
        assert (res.max_length, res.nodes_visited, res.capped, res.budget_exhausted) == \
            (length, nodes, capped, out), case
        if not (capped or out):
            orbit = set(found) if not canonical else {
                x.translate(bytes(perm) + bytes(range(k, 256)))
                for perm in permutations(range(k)) for x in found}
            assert {x.symbols for x in res.maximal_words} == orbit, case

        if not canonical and cap is None:
            verdict = confirm_unavoidable(k, t, diffs, strict=strict, min_period=min_period,
                                          node_budget=budget)
            want = (UnavoidabilityVerdict("budget_exhausted", None, nodes) if out
                    else UnavoidabilityVerdict("finite", length, nodes))
            assert verdict == want, case
    assert outcomes >= {(False, False), (True, False), (False, True)}


# ---------------------------------------------------------------- the word rule

def test_word_rule_matches_full_recheck():
    # one rule per problem, asked about clean prefixes grown at random to 120
    # symbols; it must ban exactly the symbols after which some class
    # through the new position is unclean
    rng = random.Random(31337)
    # at 5/4 (and 5/4+) a chain needs no agreement up to period 4 (3), so each
    # length has several slices across the classes, rounded onto the steps of
    # odd(5), all(3) and exactly(3); at threshold 1 strict every period has one
    thresholds = (Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(7, 4), Fraction(2),
                  Fraction(5, 2), Fraction(3))
    selectors = (Differences.odd(), Differences.all(), Differences.odd(5), Differences.all(3),
                 Differences.exactly(3))
    longest = 0
    for t, strict, min_period, diffs in product(thresholds, (False, True), (1, 2, 3), selectors):
        k = rng.choice((2, 3, 4))
        prob = AvoidanceProblem(k, t, diffs, strict=strict, min_period=min_period)
        rule = _word_rule(prob)
        word = b""
        while len(word) < 120:
            n = len(word)
            clean = [sym for sym in range(k) if all(
                clean_after_append((word + bytes((sym,)))[n % j :: j], t.numerator,
                                   t.denominator, strict, min_period)
                for j in diffs.candidates(n + 1))]
            forbidden = rule(word, k)
            assert forbidden == set(range(k)) - set(clean), (prob, word)
            # a lower limit asks about the symbols below it only; the engine
            # never asks with a limit at or below a placed symbol
            limit = rng.randrange(max(word, default=0) + 1, k + 1)
            assert rule(word, limit) == forbidden & set(range(limit)), (prob, word, limit)
            if not clean:
                break
            word += bytes((rng.choice(clean),))
        assert find_repetition(Word(word, k), t, strict=strict, min_period=min_period,
                               differences=diffs) is None
        # a new rule asked first about the whole word plans every length at
        # once, as _validate_maximal does, and answers as the grown one does
        fresh = _word_rule(prob)
        assert fresh(word, k) == rule(word, k), (prob, word)
        # asked about a shorter prefix after a long one, the rule answers as a
        # new rule does
        cut = word[: rng.randrange(len(word) + 1)]
        assert rule(cut, k) == fresh(cut, k) == _word_rule(prob)(cut, k), (prob, cut)
        longest = max(longest, len(word))
    assert longest == 120


def test_word_rule_state_stays_linear_in_depth():
    # this confirmation reaches depth 167; the rule keeps O(1) entries per
    # word length and per class length; a tuple per (length, difference)
    # pair instead measured about 380 KB here
    tracemalloc.start()
    try:
        verdict = confirm_unavoidable(3, 2, Differences.odd(), strict=True, node_budget=10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict == UnavoidabilityVerdict("budget_exhausted", None, 10_000)
    assert peak < 160 * 1024


def test_word_rule_forbids_both_letters_after_claimed_cube_block():
    word = w("0010011001100")
    assert _word_rule(BINARY_CUBES_ODD)(word.symbols, 2) == {0, 1}


# ---------------------------------------------------------------- problem validation

def test_problem_validation():
    with pytest.raises(ValueError, match=r"alphabet size must be in 2\.\.16, not 1"):
        AvoidanceProblem(1, Fraction(2), Differences.all())
    with pytest.raises(ValueError, match=r"alphabet size must be in 2\.\.16, not 17"):
        AvoidanceProblem(17, Fraction(2), Differences.all())
    with pytest.raises(ValueError, match=r"threshold must be at least 1, not 1/2"):
        AvoidanceProblem(2, Fraction(1, 2), Differences.odd())
    with pytest.raises(ValueError, match=r"min_period must be at least 1, not 0"):
        AvoidanceProblem(2, Fraction(2), Differences.all(), min_period=0)
    with pytest.raises(ValueError, match=r"length cap must be at least 1, not -1"):
        AvoidanceProblem(2, Fraction(2), Differences.all(), length_cap=-1)
    with pytest.raises(ValueError, match=r"length cap must be at least 1, not 0"):
        AvoidanceProblem(2, Fraction(2), Differences.odd(), length_cap=0)
    assert AvoidanceProblem(2, Fraction(2), Differences.odd(), length_cap=1).length_cap == 1


def test_problem_coerces_threshold():
    assert AvoidanceProblem(2, 2, Differences.all()).threshold == Fraction(2)
    assert AvoidanceProblem(2, "7/4", Differences.all()).threshold == Fraction(7, 4)


# ---------------------------------------------------------------- caps and budgets

def test_length_cap_reports_capped():
    prob = AvoidanceProblem(2, Fraction(3), Differences.exactly(1), length_cap=12)
    res = backtrack_longest(prob)
    assert res.capped and res.max_length == 12 and res.maximal_words == ()


def test_capped_search_stores_no_words():
    # a capped answer carries no words, so the walk keeps none at the cap
    prob = AvoidanceProblem(4, Fraction(2), Differences.odd(), length_cap=16)
    tracemalloc.start()
    try:
        res = backtrack_longest(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.max_length, res.nodes_visited, res.capped, res.maximal_words) == \
        (16, 59828, True, ())
    assert peak < 64 * 1024


def test_length_cap_above_true_maximum_is_harmless():
    prob = AvoidanceProblem(2, Fraction(2), Differences.odd(), strict=True, length_cap=50)
    res = backtrack_longest(prob)
    assert not res.capped and res.max_length == 8


def test_confirm_unavoidable_finite():
    v = confirm_unavoidable(2, 2, Differences.all())
    assert v == UnavoidabilityVerdict("finite", 2, 10)
    v = confirm_unavoidable(2, 3, Differences.odd())
    assert (v.status, v.max_length) == ("finite", 11)


def test_confirm_unavoidable_budget_exhausted():
    # factor squarefree ternary words never run out, so the budget must trip
    v = confirm_unavoidable(3, 2, Differences.exactly(1), node_budget=500)
    assert v.status == "budget_exhausted"
    assert v.max_length is None and v.nodes == 500


def test_confirmation_counts_the_plain_tree_at_every_budget():
    # the walk counts the renamed copies of a subtree instead of walking
    # them; at every budget it must stop where the plain walk stops
    for k, t, diffs, total in ((3, 2, Differences.odd(), 210), (2, 2, Differences.all(), 10)):
        assert confirm_unavoidable(k, t, diffs).nodes == total
        for budget in range(total + 2):
            length, _, nodes, _, out = word_search_per_class(
                k, t, clean_after_append, differences=(diffs.kind, diffs.value),
                node_budget=budget)
            want = (UnavoidabilityVerdict("budget_exhausted", None, nodes) if out
                    else UnavoidabilityVerdict("finite", length, nodes))
            assert confirm_unavoidable(k, t, diffs, node_budget=budget) == want, (k, budget)


def test_min_period_search_grows_a_constant_word_within_budget():
    # the all-zero word stays clean when min_period is 2, so the walk dives
    # until the budget trips; each node's kernel call sees a period-1 tail
    prob = AvoidanceProblem(2, Fraction(7, 4), Differences.odd(), min_period=2)
    res = backtrack_longest(prob, canonical=True, node_budget=400)
    assert (res.budget_exhausted, res.nodes_visited) == (True, 400)


def test_negative_budget_is_rejected():
    prob = AvoidanceProblem(3, Fraction(2), Differences.exactly(1))
    with pytest.raises(ValueError, match=r"node budget must be nonnegative, not -1"):
        backtrack_longest(prob, node_budget=-1)
    with pytest.raises(ValueError, match=r"node budget must be nonnegative, not -3"):
        confirm_unavoidable(3, 2, Differences.exactly(1), node_budget=-3)
    # a budget of 0 is valid and visits nothing
    assert confirm_unavoidable(3, 2, Differences.odd(), node_budget=0) == \
        UnavoidabilityVerdict("budget_exhausted", None, 0)
    res = backtrack_longest(prob, node_budget=0)
    assert res.budget_exhausted and res.nodes_visited == 0


def test_budget_boundary():
    # a budget equal to a finished search's node count still finishes; one
    # node less runs out with exactly the budget visited
    for canonical, nodes in ((False, 210), (True, 36)):
        done = backtrack_longest(TERNARY_SQUARES_ODD, canonical=canonical, node_budget=nodes)
        assert (done.max_length, done.nodes_visited, done.budget_exhausted) == (7, nodes, False)
        assert len(done.maximal_words) == 12
        short = backtrack_longest(TERNARY_SQUARES_ODD, canonical=canonical,
                                  node_budget=nodes - 1)
        assert (short.nodes_visited, short.budget_exhausted, short.maximal_words) == \
            (nodes - 1, True, ())
    assert confirm_unavoidable(3, 2, Differences.odd(), node_budget=210) == \
        UnavoidabilityVerdict("finite", 7, 210)
    assert confirm_unavoidable(3, 2, Differences.odd(), node_budget=209) == \
        UnavoidabilityVerdict("budget_exhausted", None, 209)
