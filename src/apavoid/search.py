"""Exhaustive backtracking for extremal repetition-avoiding words and grids.

The predicates are hereditary (every prefix of a good word or grid is good),
so one engine walks the positions depth first, symbols ascending, and on
entering a position asks a rule which symbols would close a repetition
there, with a limit above every placed symbol: the rule returns exactly
the symbols below limit that close one. Both rules read the answer off
witness chains, the agreements already placed that a repetition ending at
the new position needs: along the class of each difference for words,
along each backward ray for grids. The word rule reads the chains that
need no agreement as one slice of the prefix per period, across every
class at once, from a plan it keeps per word length.
Node counts are symbols tried and are deterministic for a given problem.

The walks whose answer is a verdict, ``confirm_unavoidable`` and
``lattice.grid_search``, walk the canonical tree (symbols first used in
increasing order) but report the plain walk's node count. Three facts make
that exact. Renaming symbols keeps cleanness, so the subtrees under the
unused symbols of a prefix are renamed copies with one node count. In
plain order those copies are the siblings right after the first unused
symbol, so their count can be added once its subtree is done. And a
word's canonical renaming is never lexicographically larger than the
word, so the first full grid of the plain walk is canonical. For
``grid_search(6, 2, 4)`` that is 549 canonical nodes in place of 374,802
plain ones. ``backtrack_longest`` keeps its plain walk for now: walking it
canonically and renaming the words back would hold the search benchmark's
memory over its bound, since the harness keeps every result until its gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Callable

from . import _backend
from ._backend import _min_run, _top_period
from .repetition import Differences, _check_differences, _checked_threshold, find_repetition
from .words import MAX_ALPHABET, Word, _check_integer


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
        _check_integer(self.alphabet_size, "alphabet size", 2, MAX_ALPHABET)
        object.__setattr__(self, "threshold",
                           _checked_threshold(self.threshold, self.min_period))
        _check_differences(self.differences)
        if self.length_cap is not None:
            _check_integer(self.length_cap, "length cap", 1)


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
               canonical: bool = False,
               count_plain: bool = False) -> tuple[int, bool, bytes | None]:
    """Walk positions 0, 1, 2, ... depth first, symbols ascending, one node each.

    On entering a position, ``forbidden(prefix, limit)`` is asked for the
    symbols below limit that may not follow the prefix. Limit is above every
    placed symbol: the alphabet size, or with canonical the number of
    symbols used so far plus one, at most k (the root asks with limit 1, and
    the child after symbol 0 with limit 2). A rule must return exactly the
    symbols below limit whose append closes a repetition. Each clean
    prefix goes to ``on_clean``: True grows it, False tries the next symbol,
    None ends the walk. Returns the nodes, whether the budget ran out, and
    the prefix that ended the walk, if one did.

    With count_plain the walk is canonical but counts nodes as the plain
    walk does. Under a prefix with m < k of the k symbols, limit is m + 1,
    so child m is limit - 1, and the children m, ..., k - 1 are the unused
    symbols. Renaming one to another maps their subtrees onto each other:
    the rules and ``on_clean`` ask nothing that a renaming changes, so the
    copies have the same bans, depths and node count T. In plain order the
    k - m - 1 copies are the siblings right after child m, so once child
    m's subtree is done, adding (k - m - 1)*T keeps the count equal to the
    plain walk's at every canonical node. A word's canonical renaming is
    never lexicographically larger than the word, so the first prefix that
    ends a plain walk is canonical: the walk ends on the same prefix with
    the same count. When the copies overrun the budget, the plain walk
    would have run out inside them; the walk returns the budget as its
    count and no prefix.
    """
    if node_budget is not None:
        _check_integer(node_budget, "node budget", 0)
    budget = float("inf") if node_budget is None else node_budget
    k = alphabet_size
    canonical = canonical or count_plain
    prefix = bytearray()
    # per open position: (its symbol, limit, ban, nodes before its symbol);
    # while limit < k, child limit - 1 is the unused symbol whose copies are counted
    stack: list[tuple[int, int, set[int], int]] = []
    sym = nodes = 0
    limit = 1 if canonical else k
    ban = forbidden(prefix, limit)
    while True:
        if sym >= limit:
            if not stack:
                return nodes, False, None
            del prefix[-1]
            sym, limit, ban, start = stack.pop()
        else:
            if nodes >= budget:
                return nodes, True, None
            start = nodes
            nodes += 1
            if sym not in ban:
                prefix.append(sym)
                grow = on_clean(prefix)
                if grow:
                    stack.append((sym, limit, ban, start))
                    if canonical and sym == limit - 1 and limit < k:
                        limit += 1
                    sym = 0
                    ban = forbidden(prefix, limit)
                    continue
                if grow is None:
                    return nodes, False, bytes(prefix)
                del prefix[-1]
        if count_plain and sym == limit - 1 < k - 1:  # subtree done: count the renamed copies
            nodes += (k - 1 - sym) * (nodes - start)
            if nodes > budget:
                return node_budget, True, None
        sym += 1


def _closing_symbols(candidates: set[int], heads: list[bytes | bytearray], t_num: int,
                     t_den: int, strict: bool, min_period: int) -> set[int]:
    """The candidates whose append to one of the heads makes it unclean.

    Where witness chains cannot decide (min_period > 1), or give nothing to
    read (threshold 1 not strict: every symbol below limit is a candidate),
    the rules confirm each candidate by ``_backend.clean_after_append`` on
    every head: the placed part of a class or ray through the new position.
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
    exactly the closing ones, with min_period 1, and then it stops once it
    holds limit bans: they are placed symbols, all below limit. With
    min_period > 1 they are only candidates, confirmed as the grid rule's
    are, so every chain is read; with r = 0 (threshold 1, not strict) every
    symbol below limit is a candidate. The answer depends on the prefix and
    limit alone, so the rule can be asked about any prefix, in or out of a
    walk.

    A chain with r = 1 holds with nothing to check and needs only p*j <= n.
    The differences form a range, so for each such period p the bans of
    every class are one strided slice of the prefix. Any other chain holds
    only if its pair nearest n agrees, so on each class that can hold one,
    rfind finds the periods worth a look, and two slices compare the rest.
    The slices and the range of classes that can hold such a chain depend
    on n alone, so they are planned once per length; where rfind starts
    depends on the class length alone. The plan grows by O(1) entries per
    length, never one per class.
    """
    t_num, t_den = problem.threshold.numerator, problem.threshold.denominator
    strict, min_period = problem.strict, problem.min_period
    candidates = problem.differences.candidates
    r0 = _min_run(min_period, t_num, t_den, strict)
    exact = min_period == 1 and r0 > 0
    r1s = [0]  # r - 1 for each period p >= 1
    p1 = min_period  # the first period with r >= 2, once r1s reaches it
    ones_at: list[tuple[slice, ...]] = []  # per length n: one slice per period with r = 1
    chains_at: list[range] = []  # per length n: the differences whose class has r >= 2 chains
    los: list[int] = []  # per class length m, once p1 is known: where rfind starts
    nothing = range(0)

    def plan(n: int) -> None:
        # plans every length up to n, in order
        nonlocal p1
        while len(chains_at) <= n:
            d = len(chains_at)
            while len(r1s) <= d + 1:  # every period up to _top_period(d + 1) <= d + 1
                r1s.append(_min_run(len(r1s), t_num, t_den, strict) - 1)
            while p1 < len(r1s) and r1s[p1] < 1:
                p1 += 1
            diffs = candidates(d + 1)
            ones, chains = [], nothing
            if diffs:
                j0, step = diffs.start, diffs.step
                for p in range(min_period, min(p1, d // j0 + 1)):  # r = 1 and p*j0 <= d
                    jmax = min(diffs[-1], d // p)
                    jmax -= (jmax - j0) % step
                    ones.append(slice(d - p * jmax, d - p * j0 + 1, p * step))
                if p1 < len(r1s):  # a class of m symbols holds a chain of r >= 2
                    mmin = p1 + r1s[p1]  # when m >= mmin, that is j <= d // mmin
                    chains = range(j0, min(diffs.stop, d // mmin + 1), step)
                    while len(los) <= d // j0:
                        m = len(los)
                        los.append(m - 1 - _top_period(m + 1, t_num, t_den, strict))
            ones_at.append(tuple(ones))
            chains_at.append(chains)

    def forbidden(prefix: bytes | bytearray, limit: int) -> set[int]:
        n = len(prefix)
        if n >= len(chains_at):
            plan(n)
        ban = set() if r0 else set(range(limit))  # with r = 0 every symbol is a candidate
        for s in ones_at[n]:
            ban.update(prefix[s])
        for j in chains_at[n]:
            if exact and len(ban) >= limit:
                return ban  # every symbol below limit is banned
            m = n // j  # placed symbols on the class; the new one is its (m+1)-th
            head = prefix[n % j :: j]
            lo = los[m]
            c = head[-1]
            i = head.rfind(c, lo, m - p1)
            while i >= 0:  # period m - 1 - i has its pair nearest n agreeing
                r1 = r1s[m - 1 - i]
                if head[m - r1 :] == head[i + 1 - r1 : i + 1]:
                    ban.add(head[i + 1])
                i = head.rfind(c, lo, i)
        if exact or not ban:
            return ban
        return _closing_symbols(ban, [prefix[n % j :: j] for j in candidates(n + 1)],
                                t_num, t_den, strict, min_period)

    return forbidden


def _longest_words(problem: AvoidanceProblem, canonical: bool, node_budget: int | None,
                   count_plain: bool = False) -> tuple[int, list[bytes], int, bool]:
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
                                      node_budget, canonical, count_plain)
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
    not an error. The nodes are those of the plain tree, every symbol tried
    at every position, but the walk visits only the canonical tree and
    counts each subtree under an unused symbol once per renamed copy (see
    ``_backtrack``); lengths and counts are as a plain walk gives them.
    """
    problem = AvoidanceProblem(alphabet_size, threshold, differences,
                               strict=strict, min_period=min_period)
    best_len, _, nodes, budget_hit = _longest_words(problem, False, node_budget,
                                                    count_plain=True)
    if budget_hit:
        return UnavoidabilityVerdict("budget_exhausted", None, nodes)
    return UnavoidabilityVerdict("finite", best_len, nodes)
