"""The three exact kernels of ``apavoid._backend`` against the brute-force oracles,
and its threshold arithmetic against ``Fraction``.

Words have at least two symbols wherever the oracle scans difference 1, since
it scans no difference on a single symbol. Every case is seeded.
"""

import itertools
import random
from fractions import Fraction

import pytest

from apavoid._backend import (
    _min_run,
    _prefix_periods,
    _top_period,
    clean_after_append,
    first_repetition,
    max_exponent_pair,
)

from oracles import first_report, max_exponent_scan, smallest_period_trial

THRESHOLDS = [Fraction(1), Fraction(3, 2), Fraction(7, 4), Fraction(2), Fraction(9, 4),
              Fraction(3), Fraction(2**62 + 1, 2**61)]
SETTINGS = list(itertools.product(THRESHOLDS, (False, True), (1, 2, 3, 4)))


def _random_word(rng, lo, hi):
    k = rng.choice((2, 2, 3, 4))
    return bytes(rng.randrange(k) for _ in range(rng.randrange(lo, hi + 1)))


def _periodic_tail_word(rng, hi):
    """A random head, then a tail of period 1-3 running to the end."""
    head = _random_word(rng, 0, 6)
    block = _random_word(rng, 1, 3)
    return (head + block * hi)[: rng.randrange(len(head) + 2, hi + 1)]


class Counted(bytes):
    """A word that counts how often a kernel reads one of its symbols."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_prefix_periods_match_oracle():
    assert list(_prefix_periods(b"")) == []
    rng = random.Random(400)
    for _ in range(200):
        s = _periodic_tail_word(rng, 30) if rng.random() < 0.4 else _random_word(rng, 1, 30)
        want = [smallest_period_trial(s[:m]) for m in range(1, len(s) + 1)]
        assert list(_prefix_periods(s)) == want, s


def _check_first_repetition(s, t, strict, min_period):
    want = first_report(s, t, strict, min_period, exact_diff=1)
    got = first_repetition(s, t.numerator, t.denominator, strict, min_period)
    assert got == (None if want is None else want[2:]), (s, t, strict, min_period)


def _word(rng, min_period, lo, hi):
    # periodic tails matter only when their period can fall below min_period
    if min_period > 1 and rng.random() < 0.4:
        return _periodic_tail_word(rng, hi)
    return _random_word(rng, lo, hi)


def test_first_repetition_matches_oracle():
    rng = random.Random(401)
    for t, strict, min_period in SETTINGS:
        for _ in range(30):
            _check_first_repetition(_word(rng, min_period, 2, 18), t, strict, min_period)
    # a tail whose period is below min_period holds no repetition at any offset
    assert first_repetition(bytes(40), 2, 1, False, 2) is None
    assert first_repetition(b"\1\1\1" + b"\0\1" * 20, 2, 1, False, 3) is None
    assert first_repetition(b"\0\1\2\0\1\2\0" + bytes(20), 2, 1, False, 3) == (0, 3, 7)


def _check_clean_after_append(s, t, strict, min_period):
    """Check each prefix of s whose prefix one symbol shorter the oracle finds clean.

    The shorter prefix has at least two symbols, so the oracle's verdict on
    it covers difference 1. Returns how many prefixes were checked.
    """
    checked = 0
    clean = first_report(s[:2], t, strict, min_period, exact_diff=1) is None
    for n in range(3, len(s) + 1):
        if not clean:
            break
        clean = first_report(s[:n], t, strict, min_period, exact_diff=1) is None
        got = clean_after_append(s[:n], t.numerator, t.denominator, strict, min_period)
        assert got is clean, (s[:n], t, strict, min_period)
        checked += 1
    return checked


def test_clean_after_append_matches_oracle():
    rng = random.Random(403)
    checked = 0
    for t, strict, min_period in SETTINGS:
        for _ in range(10):
            checked += _check_clean_after_append(_word(rng, min_period, 3, 16), t, strict,
                                                 min_period)
    assert checked > 1000
    # tails up to 48 long whose period is below min_period: the longest
    # suffix with such a period, which no witness may fit inside, grows long
    checked = 0
    for t, strict, min_period in SETTINGS:
        if min_period > 1:
            for _ in range(2):
                checked += _check_clean_after_append(_periodic_tail_word(rng, 48), t, strict,
                                                     min_period)
    assert checked > 500


def test_clean_after_append_reads_a_low_period_word_a_few_times():
    # the whole word has a period below min_period, so no suffix can be a
    # witness; one backward run per smaller period shows it
    for s in (bytes(600), b"\1\0" * 300):
        word = Counted(s)
        assert clean_after_append(word, 7, 4, False, 3)
        assert word.reads <= 8 * len(s), word.reads / len(s)


def test_max_exponent_pair_matches_oracle():
    assert max_exponent_pair(b"\0") == (1, 1)
    rng = random.Random(405)
    for _ in range(150):
        s = _random_word(rng, 2, 24)
        m, p = max_exponent_pair(s)
        assert Fraction(m, p) == max_exponent_scan(s), s


@pytest.mark.parametrize("t, strict", [
    (Fraction(1), False), (Fraction(1), True), (Fraction(3, 2), False), (Fraction(7, 4), False),
    (Fraction(2), False), (Fraction(2), True), (Fraction(9, 4), False), (Fraction(3), False),
    (Fraction(2**62 + 1, 2**61), False), (Fraction(2**62 + 1, 2**61), True),
])
def test_top_period_is_the_threshold(t, strict):
    # any truthy strict means strict, as the public strict flags allow
    for flag in ((True, 1) if strict else (False, 0)):
        for m in range(201):
            top = _top_period(m, t.numerator, t.denominator, flag)
            for p in range(1, m + 2):
                reaches = Fraction(m, p) > t if strict else Fraction(m, p) >= t
                assert (p <= top) is reaches, (m, p, t, flag)
                fits = p + _min_run(p, t.numerator, t.denominator, flag) <= m
                assert fits is reaches, (m, p, t, flag)
