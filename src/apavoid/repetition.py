"""Repetition detection in words and their arithmetic subsequences.

The scan contract: candidates are visited by ascending difference, then
start, then offset within the subsequence, then period, and the first
passing candidate is reported. Periods in reports are always the smallest
period of the witness, and exponents are exact rationals.

Scans read a word, a progression class or a grid's row-major cells as bit
planes: plane P_k has bit k of symbol i as its bit i, so a 2-letter word has
one plane, a 4-letter word two and any word at most four. Symbols i and
i + d differ where bit i of OR_k (P_k ^ (P_k >> d)) is set, for i < n - d.
One strided run search on those planes, ``_earliest_run``, finds where a
repetition can first start; it screens each difference of a word and each
direction of a grid, and places each flagged class's first offset.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction

from . import _backend
from ._backend import _min_run, _top_period
from .words import Word, _check_integer, _set, _Value


class Progression(_Value):
    """Positions start, start+difference, ..., count terms in all."""

    __slots__ = ("start", "difference", "count")

    def __init__(self, start: int, difference: int, count: int) -> None:
        _check_integer(start, "start", 0)
        _check_integer(difference, "difference", 1)
        _check_integer(count, "count", 0)
        _set(self, "start", start)
        _set(self, "difference", difference)
        _set(self, "count", count)

    def positions(self) -> range:
        stop = self.start + self.count * self.difference
        return range(self.start, stop, self.difference)


class RepetitionReport(_Value):
    """A found repetition: where it lives and how strong it is.

    ``offset`` indexes into the extracted subsequence, not the host word.
    The witness is subsequence[offset : offset + run] with
    run = exponent * period.
    """

    __slots__ = ("progression", "offset", "period", "exponent")

    def __init__(self, progression: Progression, offset: int, period: int,
                 exponent: Fraction) -> None:
        _set(self, "progression", progression)
        _set(self, "offset", offset)
        _set(self, "period", period)
        _set(self, "exponent", exponent)

    def to_line(self) -> str:
        return (
            f"diff={self.progression.difference} start={self.progression.start} "
            f"offset={self.offset} period={self.period} "
            f"exponent={self.exponent.numerator}/{self.exponent.denominator}"
        )


class Differences(_Value):
    """Which differences an AP scan visits: all of them, odd only, or one.

    ``value`` is the inclusive cap for the first two kinds (None meaning
    the word decides, cap |w|-1) and the single difference for "exact".
    """

    __slots__ = ("kind", "value")

    def __init__(self, kind: str, value: int | None = None) -> None:
        if kind not in ("all", "odd", "exact"):
            raise ValueError(f"unknown difference selector {kind!r}")
        if value is not None and not isinstance(value, int):
            raise ValueError(f"the {kind} selector needs an integer, not {value!r}")
        if kind == "exact" and (value is None or value < 1):
            raise ValueError(f"exact selector needs a difference of at least 1, not {value}")
        if kind != "exact" and value is not None and value < 1:
            raise ValueError(f"difference cap must be at least 1, not {value}")
        _set(self, "kind", kind)
        _set(self, "value", value)

    @classmethod
    def all(cls, cap: int | None = None) -> "Differences":
        return cls("all", cap)

    @classmethod
    def odd(cls, cap: int | None = None) -> "Differences":
        return cls("odd", cap)

    @classmethod
    def exactly(cls, j: int) -> "Differences":
        return cls("exact", j)

    def candidates(self, n: int) -> range:
        """Differences to scan for a word of length n, ascending."""
        if self.kind == "exact":
            return range(self.value, min(self.value, n - 1) + 1)
        top = n - 1 if self.value is None else min(n - 1, self.value)
        return range(1, top + 1, 2 if self.kind == "odd" else 1)


def smallest_period(w: Word) -> int:
    """Least p >= 1 with w[i] == w[i+p] throughout; length minus border."""
    if len(w) == 0:
        raise ValueError("the empty word has no period")
    *_, p = _backend._prefix_periods(w.symbols)
    return p


_PLANE_DIGITS = tuple(bytes(48 + (b >> k & 1) for b in range(256)) for k in range(4))


def _planes(s: bytes) -> list[int]:
    """The bit planes of s, at least one: s reversed, spelled in binary digits
    and read by ``int``, which is linear in base 2 and has no digit limit there."""
    r = s[::-1]
    return [int(r.translate(_PLANE_DIGITS[k]) or b"0", 2)
            for k in range(max(1, max(s, default=0).bit_length()))]


def _mismatch(planes: list[int], d: int) -> int:
    """Bit i is set exactly when s[i] != s[i + d], for i < n - d; higher bits are junk."""
    e = 0
    for x in planes:
        e |= x ^ (x >> d)
    return e


def _run_start(e: int, size: int, k: int, stride: int = 1) -> int:
    """Least i with the k bits i, i + stride, ..., i + (k-1)*stride of e clear
    and below size, or -1. Or-ing in e shifted down by stride, 2*stride, ...
    until k bits are covered leaves bit i clear exactly there; a run of k
    holds shorter ones, so the search stops once no shorter run is in range.
    """
    covered = 1
    while True:
        i = (e ^ (e + 1)).bit_length() - 1  # the lowest clear bit
        if i >= size - (k - 1) * stride:
            return -1
        if covered == k:
            return i
        step = covered if 2 * covered <= k else k - covered
        e |= e >> (stride * step)
        covered += step


def _checked_threshold(threshold: Fraction | int | str, min_period: int,
                       strict: bool) -> Fraction:
    """The threshold as a Fraction, once it and min_period are known to be at least 1
    and strict to be a bool."""
    if not isinstance(strict, bool):  # any other value would be read for its truthiness
        raise ValueError(f"strict must be True or False, not {strict!r}")
    try:
        t = threshold if isinstance(threshold, Fraction) else Fraction(threshold)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValueError(f"threshold must be a rational number, not {threshold!r}") from None
    if t < 1:
        raise ValueError(f"threshold must be at least 1, not {t}")
    _check_integer(min_period, "min_period", 1)
    return t


def _check_differences(differences: Differences) -> None:
    if not isinstance(differences, Differences):
        raise ValueError("differences must be a Differences, such as Differences.odd(), "
                         f"not {differences!r}")


def max_exponent(w: Word) -> Fraction:
    """Largest exponent over all nonempty factors of w.

    This is the maximum over shifts p of (r + p) / p, where r is the longest
    run of positions with w[i] == w[i + p]: a factor of smallest period q
    gives a run of |f| - q at shift q, and a run at shift p gives a factor of
    exponent at least (r + p) / p. For p = 1, 2, ... the mismatch of the
    word's bit planes at shift p is searched for a run of clear bits long
    enough to beat the best exponent so far; a found run is grown to the next
    set bit, with one set just past the end. The scan stops once p passes the
    largest period at which a run can still beat the best, which falls each
    time the best improves.

    The work is quadratic in the worst case, with no cap on the length:
    ``four_letter_squarefree`` prefixes of 8,192, 16,384 and 32,768 letters
    take 0.03, 0.09 and 0.3 s (2 CPUs, Python 3.11).
    """
    if len(w) == 0:
        raise ValueError("the empty word has no exponent")
    n = len(w)
    planes = _planes(w.symbols)
    best = Fraction(1)
    p, top = 1, _top_period(n, 1, 1, True)
    while p <= top:
        e = _mismatch(planes, p) | 1 << (n - p)  # a mismatch past the end stops every run
        i = _run_start(e, n - p, _min_run(p, best.numerator, best.denominator, True))
        while i >= 0:
            rest = e >> i
            stop = i + (rest & -rest).bit_length() - 1
            best = Fraction(stop - i + p, p)
            top = _top_period(n, best.numerator, best.denominator, True)
            i = _run_start(e | ((1 << stop) - 1), n - p, stop - i + 1)
        p += 1
    return best


def _earliest_run(planes: list[int], n: int, j: int, longest: int, t_num: int, t_den: int,
                  strict: bool, min_period: int, cut: Callable[[int], int] | None = None) -> int:
    """Least i where a repetition along stride j in the n symbols can start, or -1.

    For each period p >= min_period, bit i of the mismatch at shift p*j is
    clear when s[i] == s[i + p*j]. ``_run_start`` with stride j looks for r =
    _min_run(p) clear bits i, i + j, ..., i + (r-1)*j below n - p*j: r pairs
    one stride apart, all in one class, all agreeing, which a repetition of
    period p starting at i needs. Once a run is found, later periods only
    look for runs that start before it. A repetition of smallest period q >=
    min_period leaves a run where it starts at p = q, so none starts before
    the answer. With min_period 1 one starts right there: the run spans p + r
    symbols of period p, so their smallest period passes too.

    ``longest`` bounds the length of one progression. When the progressions
    are shorter than the classes, as the lines of a grid in its row-major
    cells are, ``cut(p)`` returns an integer with bit i set for each
    i < n - p*j whose pair i + p*j lies on another progression. It is or-ed
    into the mismatch, so those pairs never agree. The search stays exact
    when every chain of uncut pairs one stride apart lies on one
    progression; ``lattice`` shows this holds for the lines of a grid.
    """
    best = -1
    for p in range(min_period, _top_period(longest, t_num, t_den, strict) + 1):
        r = _min_run(p, t_num, t_den, strict)
        if r == 0:
            return 0
        e = _mismatch(planes, p * j)
        if cut is not None:
            e |= cut(p)
        size = n - p * j
        if best >= 0:  # only a run starting before the best can improve it
            size = min(size, best + (r - 1) * j)
        i = _run_start(e, size, r, j)
        if i >= 0:
            best = i
            if i == 0:
                break
    return best


def find_repetition(
    w: Word,
    threshold: Fraction | int | str,
    *,
    strict: bool = False,
    min_period: int = 1,
    differences: Differences | None = None,
) -> RepetitionReport | None:
    """First repetition at or above the threshold in any scanned progression.

    A repetition is a factor of an extracted subsequence whose exponent
    is at least the threshold (above it when strict) with smallest period at
    least min_period. Returns None when every progression is clean.

    The word's bit planes are built once, and ``_earliest_run`` searches
    each difference j on them as a whole for the least position i where a
    repetition can start; a difference with none (-1) is skipped. In a
    flagged difference the classes are walked in start order, and the exact
    kernel runs on each from the earliest offset where a repetition can
    start. Position i is offset i // j of class i % j, and no repetition of
    the difference starts before it, so that class starts there; every other
    class runs the same search with stride 1 on its own planes. For j = 1
    the one class is the word, which gets no planes of its own. The kernel
    reads no symbol before the offset, so its report, shifted back by it, is
    the one the scan contract asks for. With min_period > 1 an offset can be
    false; the kernel then finds nothing and the walk moves on.
    """
    t = _checked_threshold(threshold, min_period, strict)
    if differences is None:
        differences = Differences.all()
    _check_differences(differences)
    t_num, t_den = t.numerator, t.denominator
    s = w.symbols
    n = len(s)
    planes = _planes(s)
    for j in differences.candidates(n):
        first = _earliest_run(planes, n, j, -(-n // j), t_num, t_den, strict, min_period)
        if first < 0:
            continue
        for start in range(j):
            ap = s[start::j]
            i = first // j if start == first % j else _earliest_run(
                _planes(ap), len(ap), 1, len(ap), t_num, t_den, strict, min_period)
            if i < 0:
                continue
            hit = _backend.first_repetition(ap[i:], t_num, t_den, strict, min_period)
            if hit is not None:
                offset, period, run = hit
                return RepetitionReport(
                    Progression(start, j, len(ap)), i + offset, period, Fraction(run, period)
                )
    return None
