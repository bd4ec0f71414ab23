"""Repetition detection in words and their arithmetic subsequences.

The scan contract: candidates are visited by ascending difference, then
start, then offset within the subsequence, then period, and the first
passing candidate is reported. Periods in reports are always the smallest
period of the witness, and exponents are exact rationals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from . import _backend
from ._backend import _min_run, _top_period
from .words import FoldingSequence, Word, paperfolding_prefix


@dataclass(frozen=True, slots=True)
class Progression:
    """Positions start, start+difference, ..., count terms in all."""

    start: int
    difference: int
    count: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"start must be nonnegative, not {self.start}")
        if self.difference < 1:
            raise ValueError(f"difference must be at least 1, not {self.difference}")
        if self.count < 0:
            raise ValueError(f"count must be nonnegative, not {self.count}")

    def positions(self) -> range:
        stop = self.start + self.count * self.difference
        return range(self.start, stop, self.difference)


@dataclass(frozen=True, slots=True)
class RepetitionReport:
    """A found repetition: where it lives and how strong it is.

    ``offset`` indexes into the extracted subsequence, not the host word.
    The witness is subsequence[offset : offset + run] with
    run = exponent * period.
    """

    progression: Progression
    offset: int
    period: int
    exponent: Fraction

    def to_line(self) -> str:
        return (
            f"diff={self.progression.difference} start={self.progression.start} "
            f"offset={self.offset} period={self.period} "
            f"exponent={self.exponent.numerator}/{self.exponent.denominator}"
        )


@dataclass(frozen=True, slots=True)
class Differences:
    """Which differences an AP scan visits: all of them, odd only, or one.

    ``value`` is the inclusive cap for the first two kinds (None meaning
    the word decides, cap |w|-1) and the single difference for "exact".
    """

    kind: str
    value: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("all", "odd", "exact"):
            raise ValueError(f"unknown difference selector {self.kind!r}")
        if self.kind == "exact" and (self.value is None or self.value < 1):
            raise ValueError(f"exact selector needs a difference of at least 1, not {self.value}")
        if self.kind != "exact" and self.value is not None and self.value < 1:
            raise ValueError(f"difference cap must be at least 1, not {self.value}")

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
        top = n - 1
        if self.kind == "exact":
            assert self.value is not None
            return range(self.value, self.value + 1) if self.value <= top else range(0)
        if self.value is not None:
            top = min(top, self.value)
        return range(1, top + 1, 2 if self.kind == "odd" else 1)


def smallest_period(w: Word) -> int:
    """Least p >= 1 with w[i] == w[i+p] throughout; length minus border."""
    if len(w) == 0:
        raise ValueError("the empty word has no period")
    *_, p = _backend._prefix_periods(w.symbols)
    return p


def _mismatches(s: bytes, shift: int) -> bytes:
    """Byte i is zero exactly when s[i] == s[i + shift]; one big-integer xor."""
    size = len(s) - shift
    x = int.from_bytes(s[:size], "big") ^ int.from_bytes(s[shift:], "big")
    return x.to_bytes(size, "big")


def _checked_threshold(threshold: Fraction | int | str, min_period: int) -> Fraction:
    """The threshold as a Fraction, once it and min_period are known to be at least 1."""
    t = threshold if isinstance(threshold, Fraction) else Fraction(threshold)
    if t < 1:
        raise ValueError(f"threshold must be at least 1, not {t}")
    if min_period < 1:
        raise ValueError(f"min_period must be at least 1, not {min_period}")
    return t


def max_exponent(w: Word, *, size_cap: int = 8192) -> Fraction:
    """Largest exponent over all nonempty factors of w.

    This is the maximum over shifts p of (r + p) / p, where r is the longest
    run of positions with w[i] == w[i + p]: a factor of smallest period q
    gives a run of |f| - q at shift q, and a run at shift p gives a factor of
    exponent at least (r + p) / p. For p = 1, 2, ... the word is xored with
    itself shifted by p, and bytes.find looks for a zero run long enough to
    beat the best exponent so far; a found run is grown to its end. The scan
    stops once p passes the largest period at which a run can still beat the
    best, which falls each time the best improves.

    The byte work is still quadratic in the worst case, so inputs beyond
    size_cap are rejected rather than silently taking minutes; pass a bigger
    cap to override.
    """
    if len(w) == 0:
        raise ValueError("the empty word has no exponent")
    if len(w) > size_cap:
        raise ValueError(f"word of length {len(w)} exceeds size_cap={size_cap}")
    s = w.symbols
    n = len(s)
    best = Fraction(1)
    p, top = 1, _top_period(n, 1, 1, True)
    while p <= top:
        diff = _mismatches(s, p)
        i = diff.find(bytes(_min_run(p, best.numerator, best.denominator, True)))
        while i >= 0:
            stop = len(diff) - len(diff[i:].lstrip(b"\0"))
            best = Fraction(stop - i + p, p)
            top = _top_period(n, best.numerator, best.denominator, True)
            i = diff.find(bytes(stop - i + 1), stop)
        p += 1
    return best


def _difference_flagged(s: bytes, j: int, t_num: int, t_den: int, strict: bool,
                        min_period: int, longest: int | None = None,
                        cut: Callable[[int], bytes] | None = None) -> bool:
    """Might some progression of difference j hold a repetition?

    For each period p, the word is xored with itself shifted by p*j; a zero
    byte at i says s[i] == s[i + p*j]. Or-ing in copies shifted by j, 2j,
    4j, ... bytes until r = _min_run(p) terms are covered leaves a zero at
    i >= (r - 1)*j exactly where r such pairs end, one stride apart, in one
    class. A repetition of smallest period q >= min_period leaves that mark
    at p = q, so a difference that is never flagged is clean.

    ``longest`` bounds the length of one progression (default: a class of
    the whole word). When the progressions are shorter than the classes, as
    the lines of a grid in its row-major cells are, ``cut(p)`` returns bytes
    (at least n - p*j of them) that are nonzero at each i whose pair
    i + p*j lies on another progression. They are or-ed into the xor, so
    those pairs never agree. The screen stays exact when every chain of
    uncut pairs one stride apart lies on one progression; ``lattice``
    shows this holds for the lines of a grid.
    """
    n = len(s)
    if longest is None:
        longest = -(-n // j)
    for p in range(min_period, _top_period(longest, t_num, t_den, strict) + 1):
        r = _min_run(p, t_num, t_den, strict)
        if r == 0:
            return True
        size = n - p * j
        e = int.from_bytes(s[:size], "big") ^ int.from_bytes(s[p * j :], "big")
        if cut is not None:
            e |= int.from_bytes(cut(p)[:size], "big")
        covered = 1
        while covered < r:
            step = min(covered, r - covered)
            e |= e >> (8 * j * step)
            covered += step
        if e.to_bytes(size, "big").find(0, (r - 1) * j) >= 0:
            return True
    return False


def _first_candidate(ap: bytes, t_num: int, t_den: int, strict: bool,
                     min_period: int) -> int | None:
    """Earliest offset where ap has r = _min_run(p) positions agreeing p apart.

    No repetition of smallest period >= min_period starts before it; with
    min_period 1 one starts right there.
    """
    m = len(ap)
    best = None
    for p in range(min_period, _top_period(m, t_num, t_den, strict) + 1):
        r = _min_run(p, t_num, t_den, strict)
        if r == 0:
            return 0
        i = _mismatches(ap, p).find(bytes(r), 0, m if best is None else best - 1 + r)
        if i == 0:
            return 0
        if i > 0:
            best = i
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

    Each difference is first screened as a whole, one xor-and-find pass per
    period, and a difference without a mark is skipped. In a flagged
    difference the classes are walked in start order; in each, the earliest
    offset where a repetition can start is found the same way, and the exact
    kernel runs from that offset on. It reads no symbol before it, so its
    report, shifted back by the offset, is the one the scan contract asks
    for. With min_period > 1 a candidate can be false; the kernel then finds
    nothing and the walk moves on.
    """
    t = _checked_threshold(threshold, min_period)
    if differences is None:
        differences = Differences.all()
    t_num, t_den = t.numerator, t.denominator
    s = w.symbols
    n = len(s)
    for j in differences.candidates(n):
        if not _difference_flagged(s, j, t_num, t_den, strict, min_period):
            continue
        for start in range(j):
            ap = s[start::j]
            o = _first_candidate(ap, t_num, t_den, strict, min_period)
            if o is None:
                continue
            hit = _backend.first_repetition(ap[o:], t_num, t_den, strict, min_period)
            if hit is not None:
                offset, period, run = hit
                return RepetitionReport(
                    Progression(start, j, len(ap)), o + offset, period, Fraction(run, period)
                )
    return None


def find_spaced_repeat(w: Word, m: int) -> int | None:
    """First i with w[i..i+m) == w[i+m+1..i+2m+1), a repeat around one spacer.

    The two shifted copies are xored as big integers; a block match is a run
    of m zero bytes, located with bytes.find at C speed.
    """
    if m < 1:
        raise ValueError("block length must be at least 1")
    s = w.symbols
    n = len(s)
    if n < 2 * m + 1:
        return None
    pos = _mismatches(s, m + 1).find(bytes(m))
    return pos if pos >= 0 else None


def has_power_of_period(w: Word, period: int, k: int) -> bool:
    """Does w contain x^k for some block x of exactly this length?

    The period here is literal, not reduced: 0101 counts as a square of
    period 2 even though its smallest period is also 2, and 0000 counts as
    a square of period 2 with smallest period 1.
    """
    if period < 1:
        raise ValueError("period must be at least 1")
    if k < 2:
        raise ValueError("power must be at least 2")
    s = w.symbols
    n = len(s)
    if n < k * period:
        return False
    return _mismatches(s, period).find(bytes((k - 1) * period)) >= 0


def square_periods(w: Word, periods: Iterable[int]) -> set[int]:
    """The subset of the given periods that admit a square in w."""
    return {p for p in periods if has_power_of_period(w, p, 2)}


def subword_set(w: Word, n: int) -> set[Word]:
    """All distinct length-n contiguous blocks of w."""
    if not 1 <= n <= len(w):
        raise ValueError(f"block length {n} out of range for a word of length {len(w)}")
    s = w.symbols
    blocks = {s[i : i + n] for i in range(len(s) - n + 1)}
    return {Word(b, w.alphabet_size) for b in blocks}


def paperfolding_subwords(n: int, depth: int) -> set[Word]:
    """Every length-n block seen in any depth-limited paperfolding prefix.

    All 2**(depth+1) instruction streams of depth+1 bits are expanded to
    the longest prefixes those bits determine, 2**(depth+1) - 1 letters,
    and their length-n blocks are unioned.
    """
    if n < 1:
        raise ValueError(f"block length n must be at least 1, not {n}")
    bit_count = depth + 1
    prefix_len = (1 << bit_count) - 1 if depth >= 0 else 0
    if prefix_len < 2 * n:
        raise ValueError(f"depth {depth} gives prefixes of {prefix_len} letters, "
                         f"fewer than 2n = {2 * n} for block length n = {n}")
    blocks: set[bytes] = set()
    for bits in itertools.product((0, 1), repeat=bit_count):
        s = paperfolding_prefix(FoldingSequence(bits), prefix_len).symbols
        blocks.update(s[i : i + n] for i in range(prefix_len - n + 1))
    return {Word(b, 2) for b in blocks}


def saturated_paperfolding_subwords(n: int, *, max_depth: int = 12) -> tuple[set[Word], bool]:
    """Grow the census depth until the block set stops changing.

    Saturation means two consecutive depth increments left the set intact.
    Returns the final set and whether saturation came by max_depth; an n
    whose first census depth is beyond max_depth is an error. Empirical by
    design; there is no finite completeness proof.
    """
    if n < 1:
        raise ValueError(f"block length n must be at least 1, not {n}")
    start_depth = 1
    while (1 << (start_depth + 1)) - 1 < 2 * n:
        start_depth += 1
    if start_depth > max_depth:
        raise ValueError(f"block length n = {n} needs census depth {start_depth}, "
                         f"beyond max_depth = {max_depth}")
    stable = 0
    prev: set[Word] | None = None
    current: set[Word] = set()
    for depth in range(start_depth, max_depth + 1):
        current = paperfolding_subwords(n, depth)
        if prev is not None and current == prev:
            stable += 1
            if stable == 2:
                return current, True
        else:
            stable = 0
        prev = current
    return current, False


def check_parity_separation(w: Word, n: int) -> bool:
    """True iff no length-n block of w occurs at both an even and an odd shift.

    Only meaningful from n = 7 upward; shorter blocks of paperfolding words
    do recur across parities, so smaller n is rejected.
    """
    if n < 7:
        raise ValueError("parity separation requires block length at least 7")
    s = w.symbols
    seen: dict[bytes, int] = {}
    for i in range(len(s) - n + 1):
        block = s[i : i + n]
        seen[block] = seen.get(block, 0) | (1 << (i & 1))
    return all(mask != 3 for mask in seen.values())


def lex_least_check(folds: FoldingSequence, n: int, shifts: int) -> bool:
    """No length-n factor of the folds word is below 0 + ordinary prefix.

    Checks the factors starting at shifts 0..shifts-1, a necessary (finite)
    condition for the candidate being the least word over all shifts.
    """
    if n < 1:
        raise ValueError("factor length must be at least 1")
    if shifts < 1:
        raise ValueError("need at least one shift")
    target = b"\x00" + paperfolding_prefix(FoldingSequence.ordinary(), n - 1).symbols
    s = paperfolding_prefix(folds, shifts + n - 1).symbols
    return all(s[i : i + n] >= target for i in range(shifts))
