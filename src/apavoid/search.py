"""Exhaustive backtracking for extremal repetition-avoiding words and grids.

The predicates are hereditary (every prefix of a good word or grid is good),
so one engine walks the positions depth first, symbols ascending, and on
entering a position asks a rule which symbols would close a repetition
there: one class per difference for words, witness chains for grids. Node
counts are symbols tried and are deterministic for a given problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Callable

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
            raise ValueError(f"alphabet size must be in 2..{MAX_ALPHABET}, not {self.alphabet_size}")
        object.__setattr__(self, "threshold",
                           _checked_threshold(self.threshold, self.min_period))
        if self.length_cap is not None and self.length_cap < 1:
            raise ValueError(f"length cap must be at least 1, not {self.length_cap}")


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


def _backtrack(alphabet_size: int, forbidden: Callable[[bytearray, int], set[int]],
               on_clean: Callable[[bytearray], bool | None], node_budget: int | None,
               canonical: bool = False) -> tuple[int, bool, bytes | None]:
    """Walk positions 0, 1, 2, ... depth first, symbols ascending, one node each.

    On entering a position, ``forbidden(prefix, limit)`` gives the symbols
    below limit that may not follow the prefix; limit is the alphabet size,
    or with canonical the largest symbol used so far plus one. Each clean
    prefix goes to ``on_clean``: True grows it, False tries the next symbol,
    None ends the walk. Returns the nodes, whether the budget ran out, and
    the prefix that ended the walk, if one did.
    """
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"node budget must be nonnegative, not {node_budget}")
    budget = float("inf") if node_budget is None else node_budget
    prefix = bytearray()
    stack: list[tuple[int, int, set[int]]] = []  # (next symbol, limit, ban) per open position
    sym = nodes = 0
    limit = 1 if canonical else alphabet_size
    ban = forbidden(prefix, limit)
    while True:
        if sym >= limit:
            if not stack:
                return nodes, False, None
            del prefix[-1]
            sym, limit, ban = stack.pop()
            continue
        if nodes >= budget:
            return nodes, True, None
        nodes += 1
        if sym in ban:
            sym += 1
            continue
        prefix.append(sym)
        grow = on_clean(prefix)
        if grow:
            stack.append((sym + 1, limit, ban))
            if canonical and sym == limit - 1 and limit < alphabet_size:
                limit += 1
            sym = 0
            ban = forbidden(prefix, limit)
        elif grow is None:
            return nodes, False, bytes(prefix)
        else:
            del prefix[-1]
            sym += 1


def _word_rule(problem: AvoidanceProblem) -> Callable[[bytes | bytearray, int], set[int]]:
    """The symbols below limit whose append makes a clean prefix unclean: a new
    witness ends at the new position, so each difference checks one class."""
    t_num, t_den = problem.threshold.numerator, problem.threshold.denominator
    strict, min_period = problem.strict, problem.min_period
    candidates = problem.differences.candidates
    clean = _backend.clean_after_append

    def forbidden(prefix: bytes | bytearray, limit: int) -> set[int]:
        last = len(prefix)
        diffs = candidates(last + 1)
        out = set()
        for sym in range(limit):
            cand = prefix + bytes((sym,))
            for j in diffs:
                if not clean(cand[last % j :: j], t_num, t_den, strict, min_period):
                    out.add(sym)
                    break
        return out

    return forbidden


def _longest_words(problem: AvoidanceProblem, canonical: bool,
                   node_budget: int | None) -> tuple[int, list[bytes], int, bool]:
    best = [b""]

    def record(prefix: bytearray) -> bool:
        # keep the longest clean words; grow a word until it reaches the cap
        n = len(prefix)
        if n > len(best[0]):
            best[:] = [bytes(prefix)]
        elif n == len(best[0]):
            best.append(bytes(prefix))
        return problem.length_cap is None or n < problem.length_cap

    nodes, budget_hit, _ = _backtrack(problem.alphabet_size, _word_rule(problem), record,
                                      node_budget, canonical)
    return len(best[0]), best, nodes, budget_hit


def backtrack_longest(problem: AvoidanceProblem, *, canonical: bool = False,
                      node_budget: int | None = None) -> SearchResult:
    """Exact longest clean words for the problem.

    With canonical=True the tree is restricted to words whose symbols first
    appear in increasing order, then the result is expanded back over all
    alphabet permutations; the answer is identical, the tree smaller.
    Set problem.length_cap or node_budget when the predicate admits an
    infinite word, otherwise this will not terminate. A search that runs
    out of nodes reports budget_exhausted, with nodes_visited equal to the
    budget. For an exact answer, the words the walk found are re-checked,
    clean and maximal, before the k! renamings of a canonical search; a
    renaming keeps both, so the renamed copies are not re-checked.
    """
    best_len, best, nodes, budget_hit = _longest_words(problem, canonical, node_budget)
    capped = problem.length_cap is not None and best_len >= problem.length_cap
    if capped or budget_hit:
        return SearchResult(best_len, (), nodes, canonical, capped, budget_hit)
    _validate_maximal(best, problem)
    k = problem.alphabet_size
    raw = set(best)
    if canonical:  # the answer stands for its orbit under the k! renamings
        raw = {w.translate(bytes(perm) + bytes(range(k, 256)))  # translate wants 256 entries
               for perm in permutations(range(k)) for w in best}
    words = tuple(Word(b, k) for b in sorted(raw))
    return SearchResult(best_len, words, nodes, canonical, False)


def _validate_maximal(found: list[bytes], problem: AvoidanceProblem) -> None:
    # independent re-check of the search outcome, not a unit-test concern:
    # each word the walk found must be clean and must not extend
    forbidden, k = _word_rule(problem), problem.alphabet_size
    for symbols in found:
        w = Word(symbols, k)
        rep = find_repetition(w, problem.threshold, strict=problem.strict,
                              min_period=problem.min_period,
                              differences=problem.differences)
        if rep is not None:
            raise RuntimeError(f"search returned an unclean word {w.to_text()}: {rep.to_line()}")
        if len(forbidden(symbols, k)) < k:
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
    best_len, _, nodes, budget_hit = _longest_words(problem, False, node_budget)
    if budget_hit:
        return UnavoidabilityVerdict("budget_exhausted", None, nodes)
    return UnavoidabilityVerdict("finite", best_len, nodes)
