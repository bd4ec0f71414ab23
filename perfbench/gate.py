"""Independent checks of the verdicts, run after the timed region.

Nothing here calls apavoid. Witnesses are re-verified with the brute-force
oracles in ``tests/oracles.py``; exponents with a scan over period runs, a
different algorithm from the package's failure-function kernel; search and
grid outcomes against values frozen in ``tests/`` and the README. Each check
returns None when the verdict holds and a message naming the mismatch
otherwise.
"""

from __future__ import annotations

import re
from fractions import Fraction

import oracles

# (alphabet, threshold, strict) over odd differences ->
# (max length, plain nodes, canonical nodes, number of maximal words, the words or None).
# Word sets and the 11/7/8 node counts are the goldens of tests/test_search.py;
# 17 in 17,876 nodes is criterion 13 of tests/test_acceptance.py. The other
# counts were recorded at the commit that introduced this benchmark, where
# the ROADMAP freezes every deterministic node count.
EXACT_SEARCHES = {
    (2, Fraction(3), False): (11, 230, 115, 4, {
        "00110011001", "01100110011", "10011001100", "11001100110"}),
    (3, Fraction(2), False): (7, 210, 36, 12, {
        "0102010", "0121012", "0201020", "0212021", "1012101", "1020102",
        "1202120", "1210121", "2010201", "2021202", "2101210", "2120212"}),
    (2, Fraction(2), True): (8, 158, 79, 6, {
        "00110011", "01011010", "01100110", "10011001", "10100101", "11001100"}),
    (5, Fraction(3, 2), False): (7, 4030, 40, 120, None),
    (4, Fraction(7, 4), False): (17, 17876, 749, 24, None),
}

# Carpi tree, 4 letters, squares on odd differences, by length cap:
# (plain nodes, canonical nodes).
CARPI_NODES = {
    12: (17972, 753), 13: (24116, 1009), 14: (32564, 1361), 15: (44084, 1841),
    16: (59828, 2497), 17: (77108, 3217), 18: (97364, 4061), 19: (120596, 5029),
    20: (148436, 6189),
}

# grid_search outcomes: (alphabet, threshold, side) -> (status, nodes).
# Seven letters fill sides 2..7 in the node counts of criterion 13; three
# letters cannot go beyond side 1.
GRID_SEARCHES = {
    (3, 2, 1): ("satisfiable", 1),
    (3, 2, 2): ("infeasible", 48),
    (7, 2, 2): ("satisfiable", 10),
    (7, 2, 3): ("satisfiable", 18),
    (7, 2, 4): ("satisfiable", 110),
    (7, 2, 5): ("satisfiable", 226),
    (7, 2, 6): ("satisfiable", 348),
    (7, 2, 7): ("satisfiable", 525),
}

_ZERO_RUNS = re.compile(rb"\x00+")


def passes(exponent: Fraction, threshold: Fraction, strict: bool) -> bool:
    return exponent > threshold if strict else exponent >= threshold


def witness_error(seq: bytes, found, threshold: Fraction, strict: bool, min_period: int,
                  odd_only: bool = False, exact_diff: int | None = None) -> str | None:
    """Re-verify a reported repetition (diff, start, count, offset, period, exponent)."""
    diff, start, count, offset, period, exponent = found
    n = len(seq)
    if odd_only and diff % 2 == 0:
        return f"difference {diff} is even"
    if exact_diff is not None and diff != exact_diff:
        return f"difference {diff} is not {exact_diff}"
    if not 0 <= start < diff or count != len(range(start, n, diff)):
        return f"progression start={start} diff={diff} count={count} out of range for length {n}"
    run = exponent * period
    if run.denominator != 1 or offset < 0 or offset + int(run) > count:
        return f"witness offset={offset} run={run} out of range for a class of {count}"
    sub = oracles.ap_slice(seq, start, diff, count)[offset:offset + int(run)]
    true_period = oracles.smallest_period_trial(sub)
    if true_period != period:
        return f"witness has smallest period {true_period}, reported {period}"
    if period < min_period:
        return f"period {period} below min_period {min_period}"
    if not passes(Fraction(len(sub), true_period), threshold, strict):
        return f"witness exponent {exponent} does not reach {threshold}{'+' if strict else ''}"
    return None


def first_report_error(seq: bytes, found, threshold: Fraction, strict: bool,
                       min_period: int) -> str | None:
    """Compare a whole odd-difference report with the brute-force scan."""
    want = oracles.first_report(list(seq), threshold, strict, min_period, odd_only=True)
    got = None
    if found is not None:
        diff, start, _count, offset, period, exponent = found
        got = (diff, start, offset, period, int(exponent * period))
    if got != want:
        return f"report {got} differs from the brute-force scan {want}"
    return None


def max_exponent_by_runs(s: bytes) -> Fraction:
    """Largest exponent of a factor: max over p of (longest run with s[i] == s[i+p] plus p) / p.

    A factor with smallest period q gives a run of length |f| - q at shift q,
    and every run at shift p gives a factor of exponent at least (run + p) / p,
    so the two maxima agree.
    """
    n = len(s)
    best = Fraction(1)
    for p in range(1, n):
        diff = (int.from_bytes(s[:n - p], "big") ^ int.from_bytes(s[p:], "big")).to_bytes(n - p, "big")
        longest = max(map(len, _ZERO_RUNS.findall(diff)), default=0)
        if longest and Fraction(longest + p, p) > best:
            best = Fraction(longest + p, p)
    return best


def maximal_set_error(texts: set[str], alphabet: int, threshold: Fraction, strict: bool,
                      length: int) -> str | None:
    """Every word clean, none extendable, and the set closed under renaming letters."""
    for text in texts:
        seq = [int(c) for c in text]
        if len(seq) != length:
            return f"maximal word {text} does not have length {length}"
        if oracles.first_report(seq, threshold, strict, 1, odd_only=True) is not None:
            return f"maximal word {text} is not clean"
        for sym in range(alphabet):
            if oracles.first_report(seq + [sym], threshold, strict, 1, odd_only=True) is None:
                return f"maximal word {text} extends by {sym}"
    for text in texts:
        swapped = text.translate(str.maketrans("01", "10"))
        if swapped not in texts:
            return f"maximal set is not closed under swapping 0 and 1 ({text})"
    return None


def clean_grid_error(cells: bytes, side: int, threshold: Fraction, strict: bool,
                     min_period: int, max_direction: int) -> str | None:
    """Every maximal line of a side x side grid is clean, by brute force."""
    for row, col, drow, dcol, count in oracles.grid_lines(side, side, max_direction):
        line = [cells[(row + t * drow) * side + col + t * dcol] for t in range(count)]
        hit = oracles.first_report(line, threshold, strict, min_period, exact_diff=1)
        if hit is not None:
            return f"line at ({row},{col}) step ({drow},{dcol}) has a repetition {hit}"
    return None
