import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apavoid.lemmas import (
    check_parity_separation,
    find_spaced_repeat,
    has_power_of_period,
    lex_least_check,
    paperfolding_subwords,
    square_periods,
    subword_set,
)
from apavoid.repetition import (
    Differences,
    Progression,
    RepetitionReport,
    find_repetition,
    max_exponent,
    smallest_period,
)
from apavoid import _backend, repetition
from apavoid.words import (
    FoldingSequence,
    Word,
    binary_large_squarefree,
    four_letter_squarefree,
    paperfolding_prefix,
    relabel,
    ternary_overlapfree,
)
from oracles import (
    earliest_run,
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
    assert max_exponent(four_letter_squarefree(ORDINARY, 16384)) == Fraction(8191, 4096)
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
    # no cap on the length: a word past the old default of 8,192 letters
    assert max_exponent(Word(bytes(9000), 2)) == 9000


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


# ---------------------------------------------------------------- bit planes

# letter pairs that differ only in the top bit plane of the word, and all
# sixteen letters, which take all four planes
PLANE_ALPHABETS = ((3, 11), (0, 8), (7, 15), (1, 3), (2, 6), tuple(range(16)))


def _plane_word(rng, n):
    letters = rng.choice(PLANE_ALPHABETS)
    return Word(bytes(rng.choice(letters) for _ in range(n)), 16)


def test_top_plane_letters_match_oracle():
    rng = random.Random(1616)
    thresholds = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(4))
    for _ in range(300):
        word = _plane_word(rng, rng.randrange(1, 28))
        sym = list(word.symbols)
        t, strict, mp = rng.choice(thresholds), rng.random() < 0.5, rng.randrange(1, 4)
        sel = rng.choice(("all", "odd", "exact"))
        exact = rng.randrange(1, len(sym) + 1) if sel == "exact" else None
        if sel == "exact":
            diffs = Differences.exactly(exact)
        else:
            diffs = Differences.odd() if sel == "odd" else Differences.all()
        got = find_repetition(word, t, strict=strict, min_period=mp, differences=diffs)
        assert _report_tuple(got) == first_report(sym, t, strict, mp, sel == "odd", exact), \
            (word.to_text(), t, strict, mp, sel, exact)


def test_top_plane_letters_max_exponent_matches_kernel():
    rng = random.Random(1617)
    for _ in range(40):
        n = rng.randrange(1, 300)
        sym = bytearray(_plane_word(rng, n).symbols)
        p, at = rng.randrange(1, 30), rng.randrange(n)
        for i in range(at + p, min(n, at + p + rng.randrange(1, 90))):
            sym[i] = sym[i - p]
        m, q = _backend.max_exponent_pair(bytes(sym))
        assert max_exponent(Word(bytes(sym), 16)) == Fraction(m, q), sym.hex()


def test_top_plane_letters_lemmas_match_naive():
    rng = random.Random(1618)
    for _ in range(200):
        word = _plane_word(rng, rng.randrange(1, 60))
        s = word.symbols
        m, period, k = rng.randrange(1, 7), rng.randrange(1, 7), rng.randrange(2, 5)
        assert find_spaced_repeat(word, m) == next(
            (i for i in range(len(s) - 2 * m) if s[i : i + m] == s[i + m + 1 : i + 2 * m + 1]),
            None)
        assert has_power_of_period(word, period, k) == any(
            s[i : i + (k - 1) * period] == s[i + period : i + k * period]
            for i in range(len(s) - k * period + 1))


def test_scan_past_the_int_str_digit_limit():
    # 5000 letters, more than the 4300 digits int() reads in base 10; the
    # letters 3, 11, 7 and 15 differ only in the two top planes
    v = four_letter_squarefree(ORDINARY, 5000)
    high = relabel(v, {0: 3, 1: 11, 2: 7, 3: 15})
    assert find_repetition(high, 2, differences=Differences.odd()) is None
    assert max_exponent(high) == max_exponent(v)
    # a copy of the last letter closes squares, all ending there
    s = high.symbols + high.symbols[-1:]
    top = max(p for p in range(1, len(s) // 2 + 1) if s[-2 * p : -p] == s[-p:])
    assert find_repetition(Word(s, 16), 2, differences=Differences.odd()).to_line() == \
        f"diff=1 start=0 offset={len(s) - 2 * top} period={top} exponent=2/1"


def test_scan_builds_planes_once(monkeypatch):
    built = []
    planes = repetition._planes
    monkeypatch.setattr(repetition, "_planes", lambda s: built.append(len(s)) or planes(s))
    assert find_repetition(four_letter_squarefree(ORDINARY, 1024), 2,
                           differences=Differences.odd()) is None
    assert built == [1024]
    # a planted square on difference 1: its offset is the whole-word answer,
    # so the one class, the word, has no planes of its own
    sym = bytearray(four_letter_squarefree(ORDINARY, 1024).symbols)
    sym[503:506] = sym[500:503]
    for diffs in (Differences.odd(), Differences.exactly(1)):
        built.clear()
        rep = find_repetition(Word(bytes(sym), 4), 2, differences=diffs)
        assert rep.to_line() == "diff=1 start=0 offset=500 period=3 exponent=2/1"
        assert built == [1024]
    # a planted square on class 1 of difference 3: the whole-difference
    # answer gives that class its offset, so only class 0 gets planes
    sym = bytearray(four_letter_squarefree(ORDINARY, 1024).symbols)
    sym[310:319:3] = sym[301:310:3]
    built.clear()
    rep = find_repetition(Word(bytes(sym), 4), 2, differences=Differences.exactly(3))
    assert rep.to_line() == "diff=3 start=1 offset=100 period=3 exponent=2/1"
    assert built == [1024, 342]
    # with min_period 2, four equal letters on class 0 give that class a false
    # offset; the square planted later on class 1 is found on its own planes
    sym = bytearray(four_letter_squarefree(ORDINARY, 1024).symbols)
    sym[300:312:3] = bytes([sym[300]]) * 4
    sym[367:373:3] = sym[361:367:3]
    built.clear()
    rep = find_repetition(Word(bytes(sym), 4), 2, min_period=2,
                          differences=Differences.exactly(3))
    assert rep.to_line() == "diff=3 start=1 offset=120 period=2 exponent=2/1"
    assert built == [1024, 341]


@pytest.mark.parametrize("build, threshold, strict, min_period, last", [
    (paperfolding_prefix, 3, True, 1, 169),  # top(m) = (m - 1) // 3 >= 1 needs m >= 4
    (ternary_overlapfree, 2, True, 1, 255),  # (m - 1) // 2 >= 1 needs m >= 3
    (binary_large_squarefree, 2, False, 3, 101),  # m // 2 >= 3 needs m >= 6
])
def test_scan_stops_at_the_first_difference_with_no_room(monkeypatch, build, threshold,
                                                         strict, min_period, last):
    # a clean scan makes one run search per odd difference j whose classes,
    # ceil(n/j) letters, have room for a period, and none after the first without
    scanned = []
    search = repetition._earliest_run
    monkeypatch.setattr(repetition, "_earliest_run",
                        lambda planes, n, j, *rest: scanned.append(j) or search(planes, n, j, *rest))
    word = build(ORDINARY, 512)
    assert find_repetition(word, threshold, strict=strict, min_period=min_period,
                           differences=Differences.odd()) is None
    room = [j for j in range(1, 512, 2)
            if _backend._top_period(-(-512 // j), threshold, 1, strict) >= min_period]
    assert scanned == room == list(range(1, last + 1, 2))


# thresholds of the run search, with strict
RUN_THRESHOLDS = ((Fraction(1), False), (Fraction(3, 2), False), (Fraction(7, 4), False),
                  (Fraction(2), False), (Fraction(2), True), (Fraction(5, 2), False),
                  (Fraction(3), False))


def test_earliest_run_matches_oracle():
    rng = random.Random(2020)
    starts = []
    for _ in range(1500):
        n = rng.randrange(1, 48)
        if rng.random() < 0.5:
            letters = rng.choice(PLANE_ALPHABETS)
        else:
            letters = tuple(range(rng.randrange(2, 17)))
        sym = bytearray(rng.choice(letters) for _ in range(n))
        j, p, at = rng.randrange(1, 8), rng.randrange(1, 5), rng.randrange(n)
        for k in range(rng.randrange(6)):  # a planted run p strides long
            if at + (k + p) * j < n:
                sym[at + (k + p) * j] = sym[at + k * j]
        t, strict = rng.choice(RUN_THRESHOLDS)
        mp = rng.randrange(1, 4)
        runs = repetition._run_lengths(n, t.numerator, t.denominator, strict, mp)
        top = _backend._top_period(-(-n // j), t.numerator, t.denominator, strict)
        got = repetition._earliest_run(repetition._planes(bytes(sym)), n, j, runs, mp, top)
        assert got == earliest_run(list(sym), j, t, strict, mp), (sym.hex(), j, t, strict, mp)
        starts.append(got)
    # 760 none, 358 at 0, 382 later, 103 of them at 8 or more
    assert sum(i < 0 for i in starts) > 600 and sum(i > 0 for i in starts) > 300
    assert sum(i >= 8 for i in starts) > 80


def test_earliest_run_matches_oracle_on_long_runs():
    # words of 48-200 letters over 4-16 letters, each with a planted run 8-20
    # strides long, at thresholds 5/2 and 3; where the least period with a run
    # at the answer needs r >= 9 agreements, the search there covers 1, 2, 4,
    # 8 and then r bits: four doubling steps or more
    rng = random.Random(2024)
    starts, long_runs = [], 0
    for _ in range(200):
        n = rng.randrange(48, 201)
        sym = bytearray(rng.randrange(rng.randrange(4, 17)) for _ in range(n))
        j, p, at = rng.randrange(1, 8), rng.randrange(4, 11), rng.randrange(n // 2)
        for k in range(rng.randrange(8, 21)):
            if at + (k + p) * j < n:
                sym[at + (k + p) * j] = sym[at + k * j]
        t, strict = rng.choice(RUN_THRESHOLDS[5:])
        mp = rng.randrange(1, 4)
        runs = repetition._run_lengths(n, t.numerator, t.denominator, strict, mp)
        top = _backend._top_period(-(-n // j), t.numerator, t.denominator, strict)
        got = repetition._earliest_run(repetition._planes(bytes(sym)), n, j, runs, mp, top)
        assert got == earliest_run(list(sym), j, t, strict, mp), (sym.hex(), j, t, strict, mp)
        starts.append(got)
        if got > 0:
            q = next(q for q in range(mp, top + 1)
                     if all(a + q * j < n and sym[a] == sym[a + q * j]
                            for a in range(got, got + runs[q - mp] * j, j)))
            long_runs += runs[q - mp] >= 9
    # 77 none, 1 at 0 and 122 later, 59 of them with r >= 9
    assert sum(i < 0 for i in starts) > 50 and sum(i > 0 for i in starts) > 100
    assert long_runs > 40


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
    census = paperfolding_subwords(4)
    for _ in range(10):
        bits = tuple(rng.randrange(2) for _ in range(4))
        word = paperfolding_prefix(FoldingSequence(bits), 15)
        assert subword_set(word, 4) <= census


def test_paperfolding_census_validation():
    for n in (0, -2):
        with pytest.raises(ValueError, match=rf"block length n must be at least 1, not {n}"):
            paperfolding_subwords(n)


def test_saturated_census_sizes():
    assert [len(paperfolding_subwords(n)) for n in (1, 4, 5, 10)] == [2, 12, 20, 80]


def _census(build, n, depth):
    """Length-n blocks of the first 2**(depth+1) - 1 letters of every depth + 1 fold stream."""
    size = (2 << depth) - 1
    blocks = set()
    for bits in itertools.product((0, 1), repeat=depth + 1):
        s = build(FoldingSequence(bits), size).symbols
        blocks.update(s[i : i + n] for i in range(size - n + 1))
    return blocks


def _depth(n):
    return (n - 1).bit_length()  # ceil(log2 n)


def test_census_depth_is_exact():
    # Two folds deeper find no new block, including at n = 8, 16, 32 and 64,
    # where the census prefix has 2n - 1 letters. Each reference starts from
    # the largest n of its depth and drops one letter at a time: every window
    # of a prefix longer than n lies in a window one letter longer.
    for top in (1, 2, 4, 8, 16, 32, 64):
        blocks = _census(paperfolding_prefix, top, _depth(top) + 2)
        for n in range(top, top // 2, -1):
            if n <= 40 or n == 64:
                assert {b.symbols for b in paperfolding_subwords(n)} == blocks, n
            blocks = {b[:-1] for b in blocks} | {b[1:] for b in blocks}


def test_census_holds_windows_far_out():
    # windows anywhere under 18-bit fold streams lie in the census; the
    # four-letter word also needs the shift to keep the position mod 4
    rng = random.Random(41)
    sizes = (1, 2, 3, 4, 7, 8, 9, 16, 17, 31, 32, 33, 50)
    for build, census_of in (
        (paperfolding_prefix, lambda n: {b.symbols for b in paperfolding_subwords(n)}),
        (four_letter_squarefree, lambda n: _census(four_letter_squarefree, n, max(2, _depth(n)))),
    ):
        words = [build(FoldingSequence(tuple(rng.randrange(2) for _ in range(18))), 1 << 17)
                 for _ in range(3)]
        for n in sizes:
            census = census_of(n)
            for _ in range(10):
                s = rng.choice(words).symbols
                i = rng.randrange(len(s) - n + 1)
                assert s[i : i + n] in census, (build.__name__, n, i)


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
