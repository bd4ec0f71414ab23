"""Slow definitional reference implementations used to pin expected values.

Everything here works on plain Python sequences and deliberately avoids the
library's algorithms: paperfolding via the recursive even/odd construction
and letter by letter from each position, periods by trial division,
repetition scans by string slicing.
"""

from fractions import Fraction


def pf_recursive(bits, n):
    """Paperfolding prefix by the even/odd recursion.

    Even positions alternate c0, 1-c0; the odd-position subsequence is the
    paperfolding word of the remaining instructions.
    """
    if n == 0:
        return []
    if not bits:
        raise ValueError("out of folding instructions")
    evens = [(bits[0] + t) % 2 for t in range((n + 1) // 2)]
    odds = pf_recursive(bits[1:], n // 2)
    out = []
    for i in range(n):
        out.append(evens[i // 2] if i % 2 == 0 else odds[i // 2])
    return out


def pf_positional(bits, n):
    """Paperfolding prefix letter by letter.

    Writing p + 1 = 2**e * (2q + 1), position p reads bits[e] flipped when
    q is odd.
    """
    out = []
    for p in range(n):
        q, e = p + 1, 0
        while q % 2 == 0:
            q, e = q // 2, e + 1
        if e >= len(bits):
            raise ValueError("out of folding instructions")
        out.append(bits[e] ^ (q // 2 % 2))
    return out


def smallest_period_trial(seq):
    n = len(seq)
    for p in range(1, n + 1):
        if all(seq[i] == seq[i + p] for i in range(n - p)):
            return p
    raise AssertionError("n is always a period")


def exponent_of(seq):
    return Fraction(len(seq), smallest_period_trial(seq))


def max_exponent_scan(seq):
    n = len(seq)
    best = Fraction(0)
    for i in range(n):
        for j in range(i + 1, n + 1):
            e = exponent_of(seq[i:j])
            if e > best:
                best = e
    return best


def ap_slice(seq, start, diff, count):
    return [seq[start + t * diff] for t in range(count)]


def repetition_reports(seq, threshold, strict=False, min_period=1, odd_only=False,
                       exact_diff=None):
    """Every (diff, start, offset, period, run) hit, in the engine's scan order.

    A hit is a maximal run of trace positions agreeing p steps back whose
    exponent run/p passes the threshold and whose smallest period is p.
    """
    n = len(seq)
    if exact_diff is not None:
        diffs = [exact_diff] if exact_diff <= n - 1 else []
    else:
        diffs = range(1, n, 2 if odd_only else 1)
    out = []
    for j in diffs:
        for start in range(j):
            sub = seq[start::j]
            m = len(sub)
            for offset in range(m):
                for p in range(1, m - offset + 1):
                    run = p
                    while offset + run < m and sub[offset + run] == sub[offset + run - p]:
                        run += 1
                    if p < min_period or smallest_period_trial(sub[offset:offset + run]) != p:
                        continue
                    q = Fraction(run, p)
                    if (q > threshold) if strict else (q >= threshold):
                        out.append((j, start, offset, p, run))
                        break
                else:
                    continue
                break
    return out


def first_report(seq, threshold, strict=False, min_period=1, odd_only=False,
                 exact_diff=None):
    hits = repetition_reports(seq, threshold, strict, min_period, odd_only, exact_diff)
    return hits[0] if hits else None


def first_report_per_progression(seq, first_repetition, threshold, strict=False, min_period=1,
                                 differences=None):
    """The first report as one kernel call per progression, in scan order.

    This is how the package scanned before it screened whole differences.
    ``first_repetition`` is a kernel with the signature of
    ``apavoid._backend.first_repetition``, passed in so that this module
    imports nothing from apavoid; ``differences`` lists the differences to
    scan, ascending (default 1..n-1). Returns (diff, start, offset, period,
    run), like ``first_report``.
    """
    seq = bytes(seq)
    threshold = Fraction(threshold)
    if differences is None:
        differences = range(1, len(seq))
    for j in differences:
        for start in range(j):
            hit = first_repetition(seq[start::j], threshold.numerator, threshold.denominator,
                                   strict, min_period)
            if hit is not None:
                offset, period, run = hit
                return (j, start, offset, period, run)
    return None


def earliest_run(seq, j, threshold, strict=False, min_period=1, longest=None, cut=None):
    """Least i where a repetition along stride j can start, or -1, by trial.

    A repetition of period p needs r(p) = the least r >= 0 with (p + r) / p
    at or above the threshold (above it when strict) agreeing pairs
    (i + k*j, i + k*j + p*j), k < r, and p + r(p) symbols on one
    progression, at most ``longest`` (default: the longest class, whose
    bound matters only when r(p) = 0). This returns the least i such that
    some p >= min_period has those pairs all below len(seq), all agreeing
    and none cut: ``cut(p)`` is an integer with bit i + k*j set when that
    pair is cut.
    """
    n = len(seq)
    threshold = Fraction(threshold)
    if longest is None:
        longest = -(-n // j)
    periods = []
    for p in range(min_period, longest + 1):
        r = 0
        while not (Fraction(p + r, p) > threshold if strict else Fraction(p + r, p) >= threshold):
            r += 1
        if p + r <= longest:
            periods.append((p, r, 0 if cut is None else cut(p)))
    for i in range(n):
        for p, r, cuts in periods:
            if all(a + p * j < n and seq[a] == seq[a + p * j] and not cuts >> a & 1
                   for a in range(i, i + r * j, j)):
                return i
    return -1


def subwords(seq, n):
    return {tuple(seq[i:i + n]) for i in range(len(seq) - n + 1)}


def square_periods_scan(seq, max_period):
    found = set()
    n = len(seq)
    for p in range(1, max_period + 1):
        for i in range(n - 2 * p + 1):
            if seq[i:i + p] == seq[i + p:i + 2 * p]:
                found.add(p)
                break
    return found


def grid_directions(max_direction):
    """Primitive directions up to reversal, in the package's order."""
    return [(0, 1)] + [(dr, dc)
                       for dr in range(1, max_direction + 1)
                       for dc in range(-max_direction, max_direction + 1)
                       if __import__("math").gcd(dr, abs(dc)) == 1]


def grid_lines(rows, cols, max_direction):
    """All maximal in-bounds segments, direction-major then row-major."""
    lines = []
    for (dr, dc) in grid_directions(max_direction):
        for r in range(rows):
            for c in range(cols):
                pr, pc = r - dr, c - dc
                if 0 <= pr < rows and 0 <= pc < cols:
                    continue
                count = 0
                rr, cc = r, c
                while 0 <= rr < rows and 0 <= cc < cols:
                    count += 1
                    rr += dr
                    cc += dc
                if count >= 2:
                    lines.append((r, c, dr, dc, count))
    return lines


def first_line_report_per_line(cells, rows, cols, first_repetition, threshold, strict=False,
                               min_period=1, max_direction=8):
    """The first report of a grid verification as one kernel call per line.

    This is how the package verified grids before it screened whole
    directions: every maximal line of ``grid_lines``, in order, through
    ``first_repetition`` (the signature of ``apavoid._backend.first_repetition``).
    ``cells`` are row-major. Returns ((row, col, drow, dcol, count),
    (offset, period, run)) or None.
    """
    threshold = Fraction(threshold)
    for line in grid_lines(rows, cols, max_direction):
        r, c, dr, dc, count = line
        seq = bytes(cells[(r + t * dr) * cols + c + t * dc] for t in range(count))
        hit = first_repetition(seq, threshold.numerator, threshold.denominator, strict,
                               min_period)
        if hit is not None:
            return line, hit
    return None


def backward_rays(side, max_direction):
    """Per row-major cell of a square region, the in-bounds run of 2+ cells
    ending there along each direction, in line order."""
    rays_at = [[] for _ in range(side * side)]
    for dr, dc in grid_directions(max_direction):
        for r in range(side):
            for c in range(side):
                ray = []
                rr, cc = r, c
                while 0 <= rr < side and 0 <= cc < side:
                    ray.append(rr * side + cc)
                    rr -= dr
                    cc -= dc
                if len(ray) >= 2:
                    rays_at[r * side + c].append(ray[::-1])
    return rays_at


def grid_search_per_ray(alphabet_size, threshold, side, clean_after_append, strict=False,
                        min_period=1, max_direction=None, node_budget=10**8):
    """A square-grid search that rebuilds every ray at every node.

    This is how the package searched grids before it kept witness chains:
    cells in row-major order, symbols ascending, one node per symbol tried,
    and ``clean_after_append`` (the signature of
    ``apavoid._backend.clean_after_append``) on the backward ray of each
    direction through the new cell. Returns (status, nodes, cells), cells
    being None unless the status is "satisfiable".
    """
    threshold = Fraction(threshold)
    t_num, t_den = threshold.numerator, threshold.denominator
    if max_direction is None:
        max_direction = max(1, side - 1)
    total = side * side
    rays_at = backward_rays(side, max_direction)
    values = bytearray(total)
    next_sym = [0] * total
    nodes = 0
    depth = 0
    while True:
        if depth == total:
            return "satisfiable", nodes, bytes(values)
        sym = next_sym[depth]
        if sym >= alphabet_size:
            next_sym[depth] = 0
            depth -= 1
            if depth < 0:
                return "infeasible", nodes, None
            next_sym[depth] += 1
            continue
        if nodes >= node_budget:
            return "budget_exhausted", nodes, None
        nodes += 1
        values[depth] = sym
        if all(clean_after_append(bytes(values[i] for i in ray), t_num, t_den, strict,
                                  min_period) for ray in rays_at[depth]):
            depth += 1
        else:
            next_sym[depth] += 1


def _word_differences(kind, value, n):
    """Differences scanned on a word of length n, as ``Differences(kind, value)`` picks them."""
    if kind == "exact":
        return [value] if value <= n - 1 else []
    top = n - 1 if value is None else min(n - 1, value)
    return range(1, top + 1, 2 if kind == "odd" else 1)


def word_search_per_class(alphabet_size, threshold, clean_after_append, strict=False,
                          min_period=1, differences=("all", None), canonical=False,
                          length_cap=None, node_budget=None):
    """A word search that re-reads one progression class per difference at every node.

    It is the reference for ``apavoid.search``'s engine, written as that
    engine was first written: depth first, symbols ascending, one node per
    symbol tried, and
    ``clean_after_append`` (the signature of
    ``apavoid._backend.clean_after_append``) on the class through the new
    last position, for each difference that ``differences`` selects.
    ``differences`` is (kind, value) as in ``apavoid.repetition.Differences``.
    With ``canonical`` a symbol is tried only if it is at most one more than
    the largest used so far. Returns (max_length, longest words as bytes in
    the order found, nodes, capped, budget_exhausted).
    """
    threshold = Fraction(threshold)
    t_num, t_den = threshold.numerator, threshold.denominator
    kind, value = differences

    def extend_clean(cand):
        n = len(cand)
        last = n - 1
        return all(clean_after_append(cand[last % j :: j], t_num, t_den, strict, min_period)
                   for j in _word_differences(kind, value, n))

    nodes = 0
    best_len = 0
    best = [b""]
    capped = False
    budget_hit = False
    # frame: (prefix, distinct symbols used, next symbol to try)
    stack = [(b"", 0, 0)]
    while stack:
        prefix, used, sym = stack.pop()
        limit = min(used + 1, alphabet_size) if canonical else alphabet_size
        if sym >= limit:
            continue
        stack.append((prefix, used, sym + 1))
        if node_budget is not None and nodes >= node_budget:
            budget_hit = True
            break
        nodes += 1
        cand = prefix + bytes([sym])
        if not extend_clean(cand):
            continue
        n = len(cand)
        if n > best_len:
            best_len = n
            best = [cand]
        elif n == best_len:
            best.append(cand)
        if length_cap is not None and n >= length_cap:
            capped = True
        else:
            stack.append((cand, used + (1 if sym == used else 0), 0))
    return best_len, best, nodes, capped, budget_hit
