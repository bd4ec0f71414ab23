"""Exhaustive backtracking for extremal repetition-avoiding words and grids.

The predicates are hereditary (every prefix of a good word or grid is good),
so one engine walks the positions depth first, symbols ascending, and on
entering a position asks a rule which symbols would close a repetition
there. Both rules read the answer off witness chains, the agreements
already placed that a repetition ending at the new position needs: along
the class of each difference for words, along each backward ray for grids.
Node counts are symbols tried and are deterministic for a given problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Callable

from . import _backend
from ._backend import _min_run
from .repetition import Differences, _checked_threshold, find_repetition
from .words import MAX_ALPHABET, Word


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class SearchResult:
    """Exact extremal answer, unless capped or out of budget (then
    maximal_words is empty)."""

    max_length: int
    maximal_words: tuple[Word, ...]
    nodes_visited: int
    canonicalized: bool
    capped: bool = False
    budget_exhausted: bool = False


@dataclass(frozen=True, slots=True)
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


def _closing_symbols(candidates: set[int], heads: list[bytes | bytearray], t_num: int,
                     t_den: int, strict: bool, min_period: int) -> set[int]:
    """The candidates whose append to one of the heads makes it unclean.

    The word and grid rules read candidates off witness chains; where a
    chain alone cannot decide (min_period > 1, or threshold 1 not strict),
    each candidate is confirmed by ``_backend.clean_after_append`` on every
    head: the placed part of a class or ray through the new position.
    """
    return {sym for sym in candidates if not all(
        _backend.clean_after_append(head + bytes((sym,)), t_num, t_den, strict, min_period)
        for head in heads)}


def _word_rule(problem: AvoidanceProblem) -> Callable[[bytes | bytearray, int], set[int]]:
    """The symbols below limit whose append at position n closes a repetition.

    Only repetitions ending at n need a check. One of period p on the class
    of difference j through n has r = _min_run(p) agreements p*j apart, the
    last pairing n with n - p*j; so it exists exactly when the r - 1 pairs
    (n - k*j, n - k*j - p*j), k = 1..r-1, already agree among the placed
    symbols (a witness chain, which needs p <= _top_period(n//j + 1)), and
    the new symbol equals the one at n - p*j. The rule bans those symbols:
    exactly the closing ones, with min_period 1. With min_period > 1, or
    with r = 0 (threshold 1, not strict), they are only candidates,
    confirmed as the grid rule's are. The answer depends on the prefix
    alone, so the rule can be asked about any prefix, in or out of a walk.

    On each class, a chain with r = 1 holds with nothing to check. Any
    other holds only if its pair nearest n agrees, so rfind on the class
    finds the periods worth a look, and two slices compare the rest.
    """
    t_num, t_den = problem.threshold.numerator, problem.threshold.denominator
    strict, min_period = problem.strict, problem.min_period
    candidates = problem.differences.candidates
    r0 = _min_run(min_period, t_num, t_den, strict)
    exact = min_period == 1 and r0 > 0
    r1s = [0]  # r - 1 for each period p >= 1
    tight = 1 if strict else 0

    def forbidden(prefix: bytes | bytearray, limit: int) -> set[int]:
        n = len(prefix)
        diffs = candidates(n + 1)
        while len(r1s) <= n + 1:  # every period up to _top_period(n + 1) <= n + 1
            r1s.append(_min_run(len(r1s), t_num, t_den, strict) - 1)
        ban = set()
        for j in diffs:
            m = n // j  # placed symbols on the class; the new one is its (m+1)-th
            # _top_period(m + 1), inlined: this runs once per difference per node
            top = ((m + 1) * t_den - tight) // t_num
            if top < min_period:
                break  # m only falls as j grows
            if r0 == 0:  # every symbol makes a factor of exponent 1
                ban.update(range(limit))
                break
            head = prefix[n % j :: j]
            p = min_period
            while p <= top and not r1s[p]:  # r = 1
                ban.add(head[m - p])
                p += 1
            c, lo = head[-1], m - 1 - top
            i = head.rfind(c, lo, m - p)
            while i >= 0:  # period m - 1 - i has its pair nearest n agreeing
                r1 = r1s[m - 1 - i]
                if head[m - r1 :] == head[i + 1 - r1 : i + 1]:
                    ban.add(head[i + 1])
                i = head.rfind(c, lo, i)
        if ban and max(ban) >= limit:  # a limit below a placed symbol
            ban = {sym for sym in ban if sym < limit}
        if exact or not ban:
            return ban
        return _closing_symbols(ban, [prefix[n % j :: j] for j in diffs],
                                t_num, t_den, strict, min_period)

    return forbidden


def _longest_words(problem: AvoidanceProblem, canonical: bool,
                   node_budget: int | None) -> tuple[int, list[bytes], int, bool]:
    cap = problem.length_cap
    longest = 0
    best: list[bytes] = []

    def record(prefix: bytearray) -> bool:
        # keep the longest clean words below the cap, where a capped answer
        # needs none; grow a word until its length is the cap
        nonlocal longest
        n = len(prefix)
        if n > longest:
            longest = n
            best.clear()
        if n == longest and n != cap:
            best.append(bytes(prefix))
        return n != cap

    nodes, budget_hit, _ = _backtrack(problem.alphabet_size, _word_rule(problem), record,
                                      node_budget, canonical)
    return longest, best, nodes, budget_hit


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
