"""The exact repetition kernels, in pure Python.

All three functions take a raw ``bytes`` word. Exponents are compared by
cross-multiplication against threshold t_num/t_den; a candidate passes when
length/period >= threshold (or > with strict). Python integers do not
overflow, so any rational threshold is exact. Periods reported are always
the smallest period of the witness, which the failure function yields
directly: the smallest period of a prefix of length m is m - pi[m - 1].

``repetition.find_repetition`` runs ``first_repetition`` on a progression
class from its earliest candidate offset, and the word and grid searches
run ``clean_after_append`` on each class through a newly placed symbol.
``max_exponent_pair`` is the reference that the tests hold
``repetition.max_exponent`` to.
"""

BACKEND = "pure"


def _passes(m, p, t_num, t_den, strict):
    lhs = m * t_den
    rhs = p * t_num
    return lhs > rhs if strict else lhs >= rhs


def _smallest_period(s, start):
    # failure function of s[start:], then length minus last border
    sub = s[start:]
    n = len(sub)
    pi = [0] * n
    k = 0
    for i in range(1, n):
        c = sub[i]
        while k and sub[k] != c:
            k = pi[k - 1]
        if sub[k] == c:
            k += 1
        pi[i] = k
    return n - pi[n - 1] if n else 0


def first_repetition(s, t_num, t_den, strict, min_period):
    """Earliest repetition: (offset, period, run_length), or None.

    Offsets are scanned in increasing order; at the first offset holding
    any passing candidate, the smallest passing period wins and the run is
    extended as far as that period stays the smallest one. Smallest periods
    of prefixes never decrease as the prefix grows, which justifies the
    early exit once the winning period is outgrown.
    """
    n = len(s)
    for o in range(n):
        sub = s[o:]
        ln = n - o
        pi = [0] * ln
        best_p = 0
        best_m = 0
        if min_period <= 1 and _passes(1, 1, t_num, t_den, strict):
            best_p, best_m = 1, 1
        k = 0
        for i in range(1, ln):
            c = sub[i]
            while k and sub[k] != c:
                k = pi[k - 1]
            if sub[k] == c:
                k += 1
            pi[i] = k
            m = i + 1
            p = m - k
            if best_p:
                if p == best_p:
                    best_m = m
                elif p > best_p:
                    break
            elif p >= min_period and _passes(m, p, t_num, t_den, strict):
                best_p, best_m = p, m
        if best_p:
            return o, best_p, best_m
        if ln - k < min_period:
            # the loop ran to the end, so ln - k is the smallest period of
            # s[o:]; every factor of s[o:] has a period below min_period too,
            # so no later offset can hold a repetition either
            return None
    return None


def clean_after_append(s, t_num, t_den, strict, min_period):
    """True when no suffix of s reaches the threshold.

    Assumes every proper prefix of s was already clean, so only witnesses
    ending at the last position can exist. For each candidate period the
    maximal suffix run is grown backwards; a passing run only counts when
    the candidate period is genuinely the smallest period of the run,
    otherwise the same witness is owned by a smaller period.
    """
    n = len(s)
    p = min_period
    while True:
        cost = p * t_num
        bound = n * t_den
        if cost > bound or (strict and cost == bound):
            return True
        run = p
        i = n - p - 1
        while i >= 0 and s[i] == s[i + p]:
            run += 1
            i -= 1
        if _passes(run, p, t_num, t_den, strict) and _smallest_period(s, n - run) == p:
            return False
        p += 1


def max_exponent_pair(s):
    """(length, period) maximizing length/period over all factors of s.

    Periods are smallest periods, so the ratio is the factor's exponent.
    Strict improvement keeps the earliest witness. Expects len(s) >= 1.
    Quadratic; the package no longer calls it, and the tests keep it as the
    reference for ``repetition.max_exponent``.
    """
    n = len(s)
    best_m, best_p = 1, 1
    for o in range(n):
        sub = s[o:]
        ln = n - o
        pi = [0] * ln
        k = 0
        for i in range(1, ln):
            c = sub[i]
            while k and sub[k] != c:
                k = pi[k - 1]
            if sub[k] == c:
                k += 1
            pi[i] = k
            m = i + 1
            p = m - k
            if m * best_p > best_m * p:
                best_m, best_p = m, p
    return best_m, best_p
