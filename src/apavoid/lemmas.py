"""Checkers for the paper's lemmas on contiguous blocks of paperfolding words."""

from __future__ import annotations

import itertools
from typing import Iterable

from .repetition import _mismatch, _planes, _run_start
from .words import FoldingSequence, Word, _check_integer, paperfolding_prefix


def find_spaced_repeat(w: Word, m: int) -> int | None:
    """First i with w[i..i+m) == w[i+m+1..i+2m+1), a repeat around one spacer.

    A block match is a run of m clear bits in the mismatch of w's bit planes
    at shift m + 1.
    """
    _check_integer(m, "block length", 1)
    s = w.symbols
    pos = _run_start(_mismatch(_planes(s), m + 1), len(s) - m - 1, m)
    return pos if pos >= 0 else None


def has_power_of_period(w: Word, period: int, k: int) -> bool:
    """Does w contain x^k for some block x of exactly this length?

    The period here is literal, not reduced: 0101 counts as a square of
    period 2 even though its smallest period is also 2, and 0000 counts as
    a square of period 2 with smallest period 1.
    """
    _check_integer(period, "period", 1)
    _check_integer(k, "power", 2)
    s = w.symbols
    return _run_start(_mismatch(_planes(s), period), len(s) - period, (k - 1) * period) >= 0


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


def paperfolding_subwords(n: int) -> set[Word]:
    """Every length-n factor of every paperfolding word, exactly.

    With K = ceil(log2 n), the length-n blocks of the 2**(K+1) - 1 letters
    that each fold stream g_0..g_K determines are unioned. Each block is a
    factor. Conversely, write a tail p + 1 as 2**e * (2q + 1); its letter
    is g_e XOR (q mod 2). Shift any window of n <= 2**K letters back by
    M * 2**K so that it starts below 2**K, and so ends in the prefix. A
    tail with e < K keeps e and moves q by M * 2**(K-e-1), so:

    - letters with e <= K - 2 do not change;
    - letters with e = K - 1 flip with the parity of M, and all read g_(K-1);
    - at most one of n <= 2**K consecutive tails is a multiple of 2**K,
      and it lands on tail 2**K, whose letter is the free bit g_K.

    The stream with g_(K-1) flipped when M is odd and g_K set to that
    letter spells the window (Dekking, Mendès France and van der Poorten,
    "Folds!", 1982; Allouche, "The number of factors in a paperfolding
    sequence", 1992).
    """
    _check_integer(n, "block length n", 1)
    depth = (n - 1).bit_length()
    size = (2 << depth) - 1
    blocks: set[bytes] = set()
    for bits in itertools.product((0, 1), repeat=depth + 1):
        s = paperfolding_prefix(FoldingSequence(bits), size).symbols
        blocks.update(s[i : i + n] for i in range(size - n + 1))
    return {Word(b, 2) for b in blocks}


def check_parity_separation(w: Word, n: int) -> bool:
    """True iff no length-n block of w occurs at both an even and an odd shift.

    Only meaningful from n = 7 upward; shorter blocks of paperfolding words
    do recur across parities, so smaller n is rejected.
    """
    if n < 7:
        raise ValueError(f"parity separation requires block length at least 7, not {n}")
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
    _check_integer(n, "factor length", 1)
    if shifts < 1:
        raise ValueError(f"need at least one shift, not {shifts}")
    target = b"\x00" + paperfolding_prefix(FoldingSequence.ordinary(), n - 1).symbols
    s = paperfolding_prefix(folds, shifts + n - 1).symbols
    return all(s[i : i + n] >= target for i in range(shifts))
