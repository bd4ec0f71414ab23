"""Exhaustive backtracking for extremal repetition-avoiding words.

The predicate is hereditary (every prefix of a good word is good), so the
tree is walked depth-first in ascending symbol order, extending by one
symbol at a time and checking only witnesses that end at the new position.
Node counts are extension attempts and are deterministic for a given
problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from . import _backend
from .repetition import Differences, _checked_threshold, find_repetition
from .words import MAX_ALPHABET, Word


@dataclass(frozen=True)
class AvoidanceProblem:
    """What to avoid: exponent threshold over selected differences."""

    alphabet_size: int
    threshold: Fraction
    differences: Differences
    strict: bool = False
    min_period: int = 1
    length_cap: int | None = None

    def __post_init__(self) -> None:
        if not 2 <= self.alphabet_size <= MAX_ALPHABET:
            raise ValueError(f"alphabet size must be in 2..{MAX_ALPHABET}")
        object.__setattr__(self, "threshold",
                           _checked_threshold(self.threshold, self.min_period))
        if self.length_cap is not None and self.length_cap < 0:
            raise ValueError("length cap must be nonnegative")


@dataclass(frozen=True)
class SearchResult:
    """Exact extremal answer, unless capped or out of budget (then
    maximal_words is empty)."""

    max_length: int
    maximal_words: tuple[Word, ...]
    nodes_visited: int
    canonicalized: bool
    capped: bool = False
    budget_exhausted: bool = False


@dataclass(frozen=True)
class UnavoidabilityVerdict:
    status: str  # "finite" or "budget_exhausted"
    max_length: int | None
    nodes: int


def _extend_clean(cand: bytes, t_num: int, t_den: int, strict: bool,
                  min_period: int, differences: Differences) -> bool:
    # every new witness must end at the last position, so per difference
    # only the progression class through that position needs a suffix check
    n = len(cand)
    last = n - 1
    for j in differences.candidates(n):
        ap = cand[last % j :: j]
        if not _backend.clean_after_append(ap, t_num, t_den, strict, min_period):
            return False
    return True


def extend_ok(w: Word, symbol: int, problem: AvoidanceProblem) -> bool:
    """Would appending this symbol keep the word clean?

    Assumes w itself is clean; only repetitions ending at the appended
    position are tested, which is equivalent to a full re-check then.
    """
    if not 0 <= symbol < problem.alphabet_size:
        raise ValueError(f"symbol {symbol} outside alphabet of size {problem.alphabet_size}")
    t = problem.threshold
    return _extend_clean(w.symbols + bytes([symbol]), t.numerator, t.denominator,
                         problem.strict, problem.min_period, problem.differences)


def _run_search(problem: AvoidanceProblem, canonical: bool,
                node_budget: int | None) -> tuple[int, list[bytes], int, bool, bool]:
    k = problem.alphabet_size
    t = problem.threshold
    t_num, t_den = t.numerator, t.denominator
    strict, min_period = problem.strict, problem.min_period
    diffs = problem.differences
    cap = problem.length_cap

    nodes = 0
    best_len = 0
    best: list[bytes] = [b""]
    capped = False
    budget_hit = False

    # frame: (prefix, distinct symbols used, next symbol to try)
    stack: list[tuple[bytes, int, int]] = [(b"", 0, 0)]
    while stack:
        prefix, used, sym = stack.pop()
        limit = min(used + 1, k) if canonical else k
        if sym >= limit:
            continue
        stack.append((prefix, used, sym + 1))
        if node_budget is not None and nodes >= node_budget:
            budget_hit = True
            break
        nodes += 1
        cand = prefix + bytes([sym])
        if not _extend_clean(cand, t_num, t_den, strict, min_period, diffs):
            continue
        n = len(cand)
        if n > best_len:
            best_len = n
            best = [cand]
        elif n == best_len:
            best.append(cand)
        if cap is not None and n >= cap:
            capped = True
        else:
            stack.append((cand, used + (1 if sym == used else 0), 0))
    return best_len, best, nodes, capped, budget_hit


def _expand_permutations(words: list[bytes], k: int) -> set[bytes]:
    out: set[bytes] = set()
    for perm in permutations(range(k)):
        table = bytes(perm) + bytes(range(k, 256))  # translate wants 256 entries
        out.update(w.translate(table) for w in words)
    return out


def backtrack_longest(problem: AvoidanceProblem, *, canonical: bool = False,
                      node_budget: int | None = None) -> SearchResult:
    """Exact longest clean words for the problem.

    With canonical=True the tree is restricted to words whose symbols first
    appear in increasing order, then the result is expanded back over all
    alphabet permutations; the answer is identical, the tree smaller.
    Set problem.length_cap or node_budget when the predicate admits an
    infinite word, otherwise this will not terminate. A search that runs
    out of nodes reports budget_exhausted, with nodes_visited equal to the
    budget. Every word of an exact answer is re-checked, clean and maximal,
    before it is returned.
    """
    best_len, best, nodes, capped, budget_hit = _run_search(problem, canonical, node_budget)
    if capped or budget_hit:
        return SearchResult(best_len, (), nodes, canonical, capped, budget_hit)
    raw = set(best) if not canonical else _expand_permutations(best, problem.alphabet_size)
    words = tuple(Word(b, problem.alphabet_size) for b in sorted(raw))
    _validate_maximal(words, problem)
    return SearchResult(best_len, words, nodes, canonical, False)


def _validate_maximal(words: tuple[Word, ...], problem: AvoidanceProblem) -> None:
    # independent re-check of the search outcome, not a unit-test concern:
    # each reported word must be clean and must not extend
    for w in words:
        rep = find_repetition(w, problem.threshold, strict=problem.strict,
                              min_period=problem.min_period,
                              differences=problem.differences)
        if rep is not None:
            raise RuntimeError(f"search returned an unclean word {w.to_text()}: {rep.to_line()}")
        for sym in range(problem.alphabet_size):
            if extend_ok(w, sym, problem):
                raise RuntimeError(f"search returned a non-maximal word {w.to_text()}")


def confirm_unavoidable(alphabet_size: int, threshold, differences: Differences, *,
                        strict: bool = False, min_period: int = 1,
                        node_budget: int = 10**9) -> UnavoidabilityVerdict:
    """Certify that the avoidance predicate only admits finite words.

    Exhausts the search tree under a node budget. A finite verdict carries
    the exact maximum length; running out of budget is an explicit outcome,
    not an error.
    """
    problem = AvoidanceProblem(alphabet_size, threshold, differences,
                               strict=strict, min_period=min_period)
    best_len, _, nodes, _, budget_hit = _run_search(problem, False, node_budget)
    if budget_hit:
        return UnavoidabilityVerdict("budget_exhausted", None, nodes)
    return UnavoidabilityVerdict("finite", best_len, nodes)
