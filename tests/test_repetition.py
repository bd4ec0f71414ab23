import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apavoid.repetition import (
    Differences,
    Progression,
    RepetitionReport,
    check_parity_separation,
    find_repetition,
    find_spaced_repeat,
    has_power_of_period,
    lex_least_check,
    max_exponent,
    paperfolding_subwords,
    saturated_paperfolding_subwords,
    smallest_period,
    square_periods,
    subword_set,
)
from apavoid import _backend
from apavoid.words import (
    FoldingSequence,
    Word,
    binary_large_squarefree,
    four_letter_squarefree,
    paperfolding_prefix,
    ternary_overlapfree,
)
from oracles import (
    exponent_of,
    first_report,
    first_report_per_progression,
    max_exponent_scan,
    smallest_period_trial,
    square_periods_scan,
    subwords,
)

ORDINARY = FoldingSequence.ordinary()


def w(text):
    return Word.from_text(text)


# ---------------------------------------------------------------- periods, exponents

def test_smallest_period_goldens():
    assert smallest_period(w("0010011")) == 7
    assert smallest_period(w("0101")) == 2
    assert smallest_period(w("000")) == 1
    assert smallest_period(w("0110")) == 3
    assert smallest_period(w("7")) == 1
    with pytest.raises(ValueError):
        smallest_period(Word(b"", 2))


def test_word_exponent_goldens():
    assert exponent_of(w("0101").symbols) == 2
    assert exponent_of(w("011001100").symbols) == Fraction(9, 4)
    assert exponent_of(w("0010011").symbols) == 1


@given(st.lists(st.integers(0, 2), min_size=1, max_size=48))
def test_smallest_period_matches_trial_division(sym):
    word = Word(bytes(sym), 3)
    assert smallest_period(word) == smallest_period_trial(sym)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=40))
def test_max_exponent_matches_scan(sym):
    assert max_exponent(Word(bytes(sym), 2)) == max_exponent_scan(sym)


def test_max_exponent_goldens():
    assert max_exponent(paperfolding_prefix(ORDINARY, 512)) == 3
    assert max_exponent(four_letter_squarefree(ORDINARY, 4096)) == Fraction(2047, 1024)
    assert max_exponent(w("0")) == 1


def test_max_exponent_matches_kernel():
    rng = random.Random(4242)
    words = [four_letter_squarefree(ORDINARY, 600), ternary_overlapfree(ORDINARY, 333),
             Word(bytes(1), 2), Word(bytes(range(16)) * 3, 16)]
    for _ in range(12):
        n = rng.randrange(1, 601)
        sym = bytearray(rng.randrange(rng.choice((2, 3, 4))) for _ in range(n))
        for _ in range(rng.randrange(3)):
            # a long periodic stretch, so the best run is not a short one
            p, at = rng.randrange(1, 40), rng.randrange(n)
            for i in range(at + p, min(n, at + p + rng.randrange(1, 120))):
                sym[i] = sym[i - p]
        words.append(Word(bytes(sym), 4))
    for word in words:
        m, p = _backend.max_exponent_pair(word.symbols)
        assert max_exponent(word) == Fraction(m, p), word.to_text()


def test_max_exponent_size_cap():
    big = Word(bytes(9000), 2)
    with pytest.raises(ValueError):
        max_exponent(big)
    assert max_exponent(big, size_cap=9000) == 9000


# ---------------------------------------------------------------- progressions

def test_progression_positions_and_validation():
    assert list(Progression(1, 3, 5).positions()) == [1, 4, 7, 10, 13]
    assert list(Progression(0, 2, 0).positions()) == []
    with pytest.raises(ValueError):
        Progression(-1, 1, 1)
    with pytest.raises(ValueError):
        Progression(0, 0, 1)
    with pytest.raises(ValueError):
        Progression(0, 1, -1)


def test_differences_candidates():
    assert list(Differences.odd().candidates(10)) == [1, 3, 5, 7, 9]
    assert list(Differences.all().candidates(5)) == [1, 2, 3, 4]
    assert list(Differences.all(3).candidates(10)) == [1, 2, 3]
    assert list(Differences.odd(4).candidates(10)) == [1, 3]
    assert list(Differences.exactly(3).candidates(10)) == [3]
    assert list(Differences.exactly(12).candidates(10)) == []


def test_differences_validation():
    with pytest.raises(ValueError):
        Differences("weird")
    with pytest.raises(ValueError):
        Differences.exactly(0)
    with pytest.raises(ValueError):
        Differences.odd(0)


# ---------------------------------------------------------------- find_repetition

def test_report_line_format():
    rep = RepetitionReport(Progression(1, 3, 4), 0, 1, Fraction(4, 1))
    assert rep.to_line() == "diff=3 start=1 offset=0 period=1 exponent=4/1"


def test_cube_of_zeros():
    rep = find_repetition(w("000"), 3, differences=Differences.exactly(1))
    assert rep is not None
    assert rep.to_line() == "diff=1 start=0 offset=0 period=1 exponent=3/1"


def test_appending_either_letter_forces_overlap():
    # Both one-letter extensions of 0101100110 hold a strict-2 repetition on
    # an odd difference: one inside the word, one on the progression 1,4,7,10.
    base = w("0101100110")
    r0 = find_repetition(base + w("0"), 2, strict=True, differences=Differences.odd())
    assert r0 is not None and r0.to_line() == "diff=1 start=0 offset=2 period=4 exponent=9/4"
    r1 = find_repetition(base + w("1"), 2, strict=True, differences=Differences.odd())
    assert r1 is not None and r1.to_line() == "diff=3 start=1 offset=0 period=1 exponent=4/1"


def test_report_witness_is_consistent():
    rep = find_repetition(w("0101100110") + w("0"), 2, strict=True,
                          differences=Differences.odd())
    trace = w("01011001100").symbols[rep.progression.start :: rep.progression.difference]
    assert len(trace) == rep.progression.count
    run = int(rep.exponent * rep.period)
    witness = Word(trace[rep.offset : rep.offset + run], 2)
    assert smallest_period(witness) == rep.period
    assert exponent_of(witness.symbols) == rep.exponent


def test_threshold_validation():
    with pytest.raises(ValueError, match=r"threshold must be at least 1, not 1/2"):
        find_repetition(w("01"), Fraction(1, 2))
    with pytest.raises(ValueError, match=r"threshold must be at least 1, not 1/2"):
        find_repetition(w("01"), "1/2")
    with pytest.raises(ValueError, match=r"min_period must be at least 1, not 0"):
        find_repetition(w("01"), 2, min_period=0)


def test_threshold_accepts_int_str_fraction():
    for t in (2, "2", Fraction(2)):
        assert find_repetition(w("0101"), t).to_line() == \
            "diff=1 start=0 offset=0 period=2 exponent=2/1"


def test_min_period_skips_small_periods():
    # 000 is a period-1 cube; with min_period 2 the scan must look elsewhere.
    assert find_repetition(w("000"), 2, min_period=2) is None
    rep = find_repetition(w("001001"), 2, min_period=2)
    assert rep.period == 3 and rep.exponent == 2


def _spot_params():
    rng = random.Random(171819)
    thresholds = [Fraction(1), Fraction(3, 2), Fraction(7, 4), Fraction(2), Fraction(9, 4)]
    for _ in range(250):
        n = rng.randrange(1, 34)
        sym = [rng.randrange(rng.choice((2, 3))) for _ in range(n)]
        t = rng.choice(thresholds)
        strict = rng.random() < 0.5
        mp = rng.choice((1, 1, 2, 3))
        sel = rng.choice(("all", "odd", "exact"))
        exact = rng.randrange(1, n + 1) if sel == "exact" else None
        yield sym, t, strict, mp, sel, exact


def test_find_repetition_matches_oracle():
    for sym, t, strict, mp, sel, exact in _spot_params():
        word = Word(bytes(sym), max(sym) + 1)
        if sel == "exact":
            diffs = Differences.exactly(exact)
        else:
            diffs = Differences.odd() if sel == "odd" else Differences.all()
        got = find_repetition(word, t, strict=strict, min_period=mp, differences=diffs)
        want = first_report(sym, t, strict, mp, sel == "odd", exact)
        if want is None:
            assert got is None, (sym, t, strict, mp, sel, exact, got.to_line())
        else:
            j, start, offset, period, run = want
            assert got is not None, (sym, t, strict, mp, sel, exact, want)
            assert (got.progression.difference, got.progression.start, got.offset,
                    got.period, got.exponent) == (j, start, offset, period, Fraction(run, period))


@settings(max_examples=150)
@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=24),
    st.sampled_from([Fraction(3, 2), Fraction(2), Fraction(7, 3)]),
    st.booleans(),
    st.integers(1, 3),
)
def test_find_repetition_matches_oracle_hypothesis(sym, t, strict, mp):
    word = Word(bytes(sym), 2)
    got = find_repetition(word, t, strict=strict, min_period=mp,
                          differences=Differences.odd())
    want = first_report(sym, t, strict, mp, odd_only=True)
    if want is None:
        assert got is None
    else:
        j, start, offset, period, run = want
        assert got is not None
        assert (got.progression.difference, got.progression.start, got.offset,
                got.period, got.exponent) == (j, start, offset, period, Fraction(run, period))


# ---------------------------------------------------------------- screened scan

def _report_tuple(rep):
    if rep is None:
        return None
    return (rep.progression.difference, rep.progression.start, rep.offset, rep.period,
            int(rep.exponent * rep.period))


# bound at import, so that _count_kernel_calls sees only the scanner's calls
REFERENCE_KERNEL = _backend.first_repetition


def _assert_matches_loop(word, t, strict=False, min_period=1, differences=None):
    differences = Differences.all() if differences is None else differences
    got = find_repetition(word, t, strict=strict, min_period=min_period, differences=differences)
    want = first_report_per_progression(word.symbols, REFERENCE_KERNEL, t, strict,
                                        min_period, differences.candidates(len(word)))
    assert _report_tuple(got) == want, (word.to_text(), t, strict, min_period, differences)
    if got is not None:
        assert got.progression.count == len(range(got.progression.start, len(word),
                                                  got.progression.difference))
    return got


def _count_kernel_calls(monkeypatch):
    calls = []
    kernel = _backend.first_repetition

    def counted(s, *args):
        calls.append(len(s))
        return kernel(s, *args)

    monkeypatch.setattr(_backend, "first_repetition", counted)
    return calls


def test_threshold_one_needs_no_run():
    # at threshold 1 every factor of length p with smallest period p passes
    assert find_repetition(w("0120"), 1).to_line() == \
        "diff=1 start=0 offset=0 period=1 exponent=1/1"
    assert find_repetition(w("0012"), 1, min_period=3).to_line() == \
        "diff=1 start=0 offset=0 period=3 exponent=1/1"
    assert find_repetition(w("0000"), 1, min_period=2) is None
    assert find_repetition(w("0120"), 1, strict=True).to_line() == \
        "diff=1 start=0 offset=0 period=3 exponent=4/3"
    rng = random.Random(11)
    for _ in range(40):
        word = Word(bytes(rng.randrange(3) for _ in range(rng.randrange(1, 30))), 3)
        for strict in (False, True):
            for mp in (1, 2, 3, 5):
                _assert_matches_loop(word, 1, strict, mp)


def test_min_period_false_candidate_is_skipped(monkeypatch):
    # 000000 marks difference 1 for period 3, but its only repetitions have
    # period 1; the report is a square of period 3 on difference 2, start 1
    calls = _count_kernel_calls(monkeypatch)
    rep = _assert_matches_loop(w("000000110010110"), 2, min_period=3)
    assert rep.to_line() == "diff=2 start=1 offset=1 period=3 exponent=2/1"
    # the kernel ran on the false candidate, then from offset 1 of the class
    assert calls == [15, 6]


def test_min_period_false_candidates_random():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randrange(8, 60)
        sym = bytearray(rng.randrange(2) for _ in range(n))
        at = rng.randrange(n)
        sym[at : at + rng.randrange(4, 12)] = bytes(12)[: len(sym[at : at + 12])]
        for mp in (2, 3, 4):
            _assert_matches_loop(Word(bytes(sym[:n]), 2), 2, min_period=mp,
                                 differences=rng.choice((Differences.all(), Differences.odd())))


def test_threshold_beyond_machine_words():
    # (2**62 + 1) / 2**61 is just above 2: a square falls short, 5/2 does not
    t = Fraction(2**62 + 1, 2**61)
    assert find_repetition(w("0101"), t) is None
    assert find_repetition(w("00"), t) is None
    assert find_repetition(w("01010"), t).to_line() == \
        "diff=1 start=0 offset=0 period=2 exponent=5/2"
    assert find_repetition(w("1000"), t).to_line() == \
        "diff=1 start=0 offset=1 period=1 exponent=3/1"
    rng = random.Random(13)
    for _ in range(60):
        word = Word(bytes(rng.randrange(2) for _ in range(rng.randrange(1, 40))), 2)
        _assert_matches_loop(word, t, rng.random() < 0.5, rng.choice((1, 2)))


def test_all_zero_word_calls_kernel_once(monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    rep = find_repetition(Word(bytes(4096), 2), 2)
    assert rep.to_line() == "diff=1 start=0 offset=0 period=1 exponent=4096/1"
    assert calls == [4096]


def _long_scan_words():
    rng = random.Random(14)
    builders = (four_letter_squarefree, paperfolding_prefix, ternary_overlapfree,
                binary_large_squarefree)
    for k in range(24):
        n = rng.randrange(100, 401)
        if k % 3 == 0:
            sym = bytearray(builders[k // 3 % 4](ORDINARY, n).symbols)
            if k % 2:
                # one planted repetition somewhere in the word
                i, d, p = rng.randrange(n), rng.randrange(1, 8), rng.randrange(1, 6)
                for t in range(p, 3 * p):
                    if i + t * d < n:
                        sym[i + t * d] = sym[i + (t - p) * d]
        else:
            sym = bytearray(rng.randrange(rng.choice((3, 4, 8))) for _ in range(n))
        yield Word(bytes(sym), 16), rng


def test_scan_matches_per_progression_loop():
    thresholds = (Fraction(2), Fraction(5, 2), Fraction(3), Fraction(7, 2))
    for word, rng in _long_scan_words():
        sel = rng.choice(("all", "odd", "exact"))
        if sel == "exact":
            diffs = Differences.exactly(rng.randrange(1, len(word) // 3))
        else:
            diffs = Differences.odd() if sel == "odd" else Differences.all()
        _assert_matches_loop(word, rng.choice(thresholds), rng.random() < 0.5,
                             rng.choice((1, 1, 2, 3)), diffs)


def test_constructions_clean_on_their_differences(monkeypatch):
    v = four_letter_squarefree(ORDINARY, 400)
    assert _assert_matches_loop(v, 2, differences=Differences.odd()) is None
    f = paperfolding_prefix(ORDINARY, 400)
    assert _assert_matches_loop(f, 3, strict=True, differences=Differences.exactly(1)) is None
    # with min_period 1 a clean word never reaches the kernel
    calls = _count_kernel_calls(monkeypatch)
    assert find_repetition(four_letter_squarefree(ORDINARY, 1024), 2,
                           differences=Differences.odd()) is None
    assert find_repetition(ternary_overlapfree(ORDINARY, 1024), 2, strict=True,
                           differences=Differences.odd()) is None
    assert find_repetition(v, Fraction(5, 2), differences=Differences.odd()) is None
    # cubes 000 are there, but at 7/2 a period-1 run must be 3 long, not 2
    assert find_repetition(f, Fraction(7, 2), differences=Differences.exactly(1)) is None
    assert calls == []


# ---------------------------------------------------------------- block repeats

def test_spaced_repeat_golden():
    assert find_spaced_repeat(w("010"), 1) == 0
    assert find_spaced_repeat(w("0110100110010110"), 3) == 4
    assert find_spaced_repeat(w("001011"), 2) is None
    assert find_spaced_repeat(w("01"), 1) is None
    with pytest.raises(ValueError):
        find_spaced_repeat(w("0101"), 0)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=48), st.integers(1, 6))
def test_spaced_repeat_matches_naive(sym, m):
    got = find_spaced_repeat(Word(bytes(sym), 2), m)
    want = next((i for i in range(len(sym) - 2 * m)
                 if sym[i : i + m] == sym[i + m + 1 : i + 2 * m + 1]), None)
    assert got == want


def test_power_of_period_is_literal():
    assert has_power_of_period(w("0000"), 2, 2)
    assert has_power_of_period(w("0101"), 2, 2)
    assert not has_power_of_period(w("0101"), 1, 2)
    assert has_power_of_period(w("000"), 1, 3)
    assert not has_power_of_period(w("00100"), 2, 2)
    assert not has_power_of_period(w("010"), 2, 2)  # too short for any square of period 2
    with pytest.raises(ValueError):
        has_power_of_period(w("00"), 0, 2)
    with pytest.raises(ValueError):
        has_power_of_period(w("00"), 1, 1)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=40))
def test_square_periods_match_scan(sym):
    word = Word(bytes(sym), 2)
    top = len(sym) // 2
    assert square_periods(word, range(1, top + 1)) == square_periods_scan(sym, top)


# ---------------------------------------------------------------- block censuses

def test_subword_set_counts():
    f = paperfolding_prefix(ORDINARY, 4096)
    assert [len(subword_set(f, n)) for n in range(1, 9)] == [2, 4, 8, 12, 18, 23, 28, 32]
    assert subword_set(w("0101"), 4) == {w("0101")}
    with pytest.raises(ValueError):
        subword_set(w("01"), 3)
    with pytest.raises(ValueError):
        subword_set(w("01"), 0)


def test_paperfolding_census_contains_every_fold():
    rng = random.Random(7)
    census = paperfolding_subwords(4, 3)
    for _ in range(10):
        bits = tuple(rng.randrange(2) for _ in range(4))
        word = paperfolding_prefix(FoldingSequence(bits), 15)
        assert subword_set(word, 4) <= census


def test_paperfolding_census_validation():
    # 3 bits determine only 7 letters
    with pytest.raises(ValueError, match=r"depth 2 .* n = 8"):
        paperfolding_subwords(8, 2)
    for n in (0, -2):
        with pytest.raises(ValueError, match=rf"block length n must be at least 1, not {n}"):
            paperfolding_subwords(n, 3)
        with pytest.raises(ValueError, match=rf"block length n must be at least 1, not {n}"):
            saturated_paperfolding_subwords(n)
    # n = 5000 needs prefixes of 10,000 letters, so depth 13
    with pytest.raises(ValueError, match=r"n = 5000 needs census depth 13, beyond max_depth = 12"):
        saturated_paperfolding_subwords(5000)


def test_saturated_census_sizes():
    blocks4, done4 = saturated_paperfolding_subwords(4)
    blocks5, done5 = saturated_paperfolding_subwords(5)
    assert done4 and len(blocks4) == 12
    assert done5 and len(blocks5) == 20
    assert blocks4 == paperfolding_subwords(4, 6)


def test_saturation_can_be_cut_short():
    blocks, done = saturated_paperfolding_subwords(4, max_depth=3)
    assert not done and blocks == paperfolding_subwords(4, 3)


# ---------------------------------------------------------------- parity, order

def test_parity_separation():
    assert check_parity_separation(w("01010101"), 7)
    assert not check_parity_separation(w("000000000"), 7)
    assert check_parity_separation(paperfolding_prefix(ORDINARY, 2048), 7)
    with pytest.raises(ValueError):
        check_parity_separation(w("0101010"), 6)


def test_parity_separation_all_folds_sample():
    rng = random.Random(23)
    for _ in range(8):
        bits = tuple(rng.randrange(2) for _ in range(9))
        word = paperfolding_prefix(FoldingSequence(bits), 511)
        assert check_parity_separation(word, 7)


def test_lex_least_prefixed_zero():
    assert lex_least_check(ORDINARY, 32, 100)
    rng = random.Random(29)
    for _ in range(10):
        bits = tuple(rng.randrange(2) for _ in range(9))
        assert lex_least_check(FoldingSequence(bits), 24, 400)
    with pytest.raises(ValueError):
        lex_least_check(ORDINARY, 0, 5)
    with pytest.raises(ValueError):
        lex_least_check(ORDINARY, 5, 0)
