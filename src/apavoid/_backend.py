"""The exact repetition kernels and the threshold arithmetic, in pure Python.

All three kernels take a raw ``bytes`` word. A candidate of length m and
period p passes when m/p >= t_num/t_den (or > with strict). The package
asks that question in two integer forms: ``_top_period(m)``, the largest
period a run of m symbols can repeat at, and ``_min_run(p)``, how many
agreements p apart a repetition of period p needs. Python integers do not
overflow, so any rational threshold is exact. Periods reported are always
the smallest period of the witness.

``_prefix_periods`` is the one failure-function loop: it yields the
smallest period of each prefix, m - pi[m - 1] for the prefix of length m.
``first_repetition`` and ``max_exponent_pair`` read periods off it, and so
does ``repetition.smallest_period``. ``clean_after_append`` needs no
failure function: it tries periods in ascending order, so the first run
that passes and is longer than every suffix with a period below
``min_period`` has smallest period p (a smaller period q >= ``min_period``
of the same run would have passed first, since run/q > run/p).

``repetition.find_repetition`` runs ``first_repetition`` on a progression
class from its earliest candidate offset, and the word and grid searches
run ``clean_after_append`` on each class through a newly placed symbol.
``max_exponent_pair`` is the reference that the tests hold
``repetition.max_exponent`` to.
"""

BACKEND = "pure"


def _top_period(m, t_num, t_den, strict):
    """Largest p with m / p >= t_num / t_den (> when strict).

    Every p <= _top_period(m) passes, and exactly those p have
    p + _min_run(p) <= m, so a period loop over a run of m symbols is
    ``range(min_period, _top_period(m) + 1)``.
    """
    return (m * t_den - 1) // t_num if strict else m * t_den // t_num


def _min_run(p, t_num, t_den, strict):
    """Least r >= 0 with (p + r) / p >= t_num / t_den (> when strict).

    A factor of period p and length p + r has exponent at least (p + r) / p,
    so r is how many positions must agree p steps apart.
    """
    excess = p * (t_num - t_den)
    return excess // t_den + 1 if strict else -(-excess // t_den)


def _prefix_periods(s):
    """Yield the smallest period of each nonempty prefix of s, shortest first."""
    n = len(s)
    if not n:
        return
    yield 1
    pi = [0] * n
    k = 0
    for i in range(1, n):
        c = s[i]
        while k and s[k] != c:
            k = pi[k - 1]
        if s[k] == c:
            k += 1
        pi[i] = k
        yield i + 1 - k


def first_repetition(s, t_num, t_den, strict, min_period):
    """Earliest repetition: (offset, period, run_length), or None.

    Offsets are scanned in increasing order; at the first offset holding
    any passing candidate, the smallest passing period wins and the run is
    extended as far as that period stays the smallest one. Smallest periods
    of prefixes never decrease as the prefix grows, which justifies the
    early exit once the winning period is outgrown.
    """
    for o in range(len(s)):
        best_p = best_m = 0
        for m, p in enumerate(_prefix_periods(s[o:]), 1):
            if best_p:
                if p == best_p:
                    best_m = m
                elif p > best_p:
                    break
            elif min_period <= p <= _top_period(m, t_num, t_den, strict):
                best_p, best_m = p, m
        if best_p:
            return o, best_p, best_m
        if p < min_period:
            # the loop ran to the end, so p is the smallest period of s[o:];
            # every factor of s[o:] has a period below min_period too, so no
            # later offset can hold a repetition either
            return None
    return None


def clean_after_append(s, t_num, t_den, strict, min_period):
    """True when no suffix of s passes the threshold.

    Assumes every proper prefix of s was already clean, so only witnesses
    ending at the last position can exist. Periods p >= min_period are tried
    in ascending order, each growing its maximal suffix run backwards, and
    the first passing run is a witness of smallest period p. The exception
    is a run that also has a period below min_period: with min_period > 1,
    ``low`` is the longest suffix with such a period, found by one backward
    run per smaller period, and a passing run counts only when it is longer.
    When the whole word is that suffix, no witness can count at all.
    """
    n = len(s)
    low = 0
    if min_period > 1:
        for q in range(1, min(min_period, n)):
            i = n - q - 1
            while i >= 0 and s[i] == s[i + q]:
                i -= 1
            low = max(low, n - 1 - i)
        if low >= n:
            return True
    for p in range(min_period, _top_period(n, t_num, t_den, strict) + 1):
        run = p
        i = n - p - 1
        while i >= 0 and s[i] == s[i + p]:
            run += 1
            i -= 1
        if run > low and p <= _top_period(run, t_num, t_den, strict):
            return False
    return True


def max_exponent_pair(s):
    """(length, period) maximizing length/period over all factors of s.

    Periods are smallest periods, so the ratio is the factor's exponent.
    Strict improvement keeps the earliest witness. Expects len(s) >= 1.
    Quadratic; the package no longer calls it, and the tests keep it as the
    reference for ``repetition.max_exponent``.
    """
    best_m, best_p = 1, 1
    for o in range(len(s)):
        for m, p in enumerate(_prefix_periods(s[o:]), 1):
            if m * best_p > best_m * p:
                best_m, best_p = m, p
    return best_m, best_p
