import random
from fractions import Fraction

import pytest

from apavoid import _backend, lattice, repetition
from apavoid.lattice import (
    DEFAULT_PALETTE,
    Grid,
    GridSearchOutcome,
    LineSpec,
    directions,
    export_ppm,
    extract_line,
    grid_search,
    product_grid,
    verify_grid,
)
from apavoid.repetition import Differences, Progression, find_repetition
from apavoid.words import FoldingSequence, Word, four_letter_squarefree
from oracles import (backward_rays, earliest_run, first_line_report_per_line, first_report,
                     grid_lines, grid_search_per_ray)

ORDINARY = FoldingSequence.ordinary()
THRESHOLDS = (Fraction(1), Fraction(3, 2), Fraction(7, 4), Fraction(2), Fraction(5, 2),
              Fraction(3), Fraction(2**62 + 1, 2**61))


def random_grid(rng, rows, cols, k):
    return Grid(rows, cols, bytes(rng.randrange(k) for _ in range(rows * cols)), k)


# ---------------------------------------------------------------- grids

def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(0, 3, b"", 2)
    with pytest.raises(ValueError):
        Grid(2, 2, b"\x00" * 3, 2)
    with pytest.raises(ValueError):
        Grid(1, 2, b"\x00\x02", 2)
    with pytest.raises(ValueError):
        Grid(1, 1, b"\x00", 4, factors=(2, 3))


def test_grid_cell_indexing():
    g = Grid(2, 3, bytes([0, 1, 2, 3, 4, 5]), 6)
    assert g.cell(0, 0) == 0 and g.cell(1, 2) == 5
    with pytest.raises(ValueError):
        g.cell(2, 0)
    with pytest.raises(ValueError):
        g.cell(0, -1)


def test_grid_text_round_trip():
    g = Grid(2, 2, bytes([0, 15, 3, 7]), 16)
    text = g.to_text()
    assert text == "2 2 16\n0f\n37\n"
    back = Grid.from_text(text)
    assert back.rows == 2 and back.cells == g.cells and back.alphabet_size == 16


def test_grid_from_text_errors():
    with pytest.raises(ValueError):
        Grid.from_text("nonsense\n")
    with pytest.raises(ValueError):
        Grid.from_text("2 2 2\n01\n")
    with pytest.raises(ValueError):
        Grid.from_text("1 2 2\n0z\n")


def test_grid_from_text_refuses_ragged_rows():
    # the cell count matches the shape, but the rows do not
    with pytest.raises(ValueError, match=r"row 0 has 4 cells, not 3$"):
        Grid.from_text("2 3 2\n0101\n01\n")
    with pytest.raises(ValueError, match=r"row 1 has 2 cells, not 3$"):
        Grid.from_text("2 3 2\n010\n01\n")
    with pytest.raises(ValueError, match=r"row 0 has 3 cells, not 2$"):
        Grid.from_text("1 2 2\n012\n")


def test_grid_from_text_names_bad_character():
    with pytest.raises(ValueError, match=r"bad cell character 'z' in row 1, column 2"):
        Grid.from_text("2 3 2\n010\n10z\n")
    with pytest.raises(ValueError, match=r"' ' in row 0, column 1"):
        Grid.from_text("1 3 2\n0 1\n")


def test_product_grid_pairs():
    v = four_letter_squarefree(ORDINARY, 6)
    g = product_grid(v, v)
    assert g.alphabet_size == 16 and g.factors == (4, 4)
    for r in range(6):
        for c in range(6):
            assert g.pair(r, c) == (v[r], v[c])
            assert g.cell(r, c) == v[r] * 4 + v[c]


def test_product_grid_validation():
    v = four_letter_squarefree(ORDINARY, 4)
    with pytest.raises(ValueError):
        product_grid(v, Word(b"", 4))
    with pytest.raises(ValueError):
        product_grid(v, Word(b"\x00", 3))
    with pytest.raises(ValueError):
        product_grid(Word(b"\x00", 5), Word(b"\x00", 5))  # 25 symbols


def test_pair_requires_factorization():
    g = Grid(1, 1, b"\x00", 4)
    with pytest.raises(ValueError):
        g.pair(0, 0)


# ---------------------------------------------------------------- lines

def test_direction_counts():
    assert directions(1) == [(0, 1), (1, -1), (1, 0), (1, 1)]
    assert len(directions(2)) == 8
    assert len(directions(8)) == 88
    with pytest.raises(ValueError):
        directions(0)


def test_directions_are_primitive_and_distinct():
    ds = directions(6)
    assert len(set(ds)) == len(ds)
    import math
    for dr, dc in ds:
        assert math.gcd(abs(dr), abs(dc)) == 1
        assert dr > 0 or (dr, dc) == (0, 1)


def test_kept_directions_take_two_integers_each():
    # sixteen kept caps near 70 left about 7 MB behind as tuples of pairs
    import tracemalloc
    lattice._directions.cache_clear()
    tracemalloc.start()
    try:
        for cap in range(60, 76):
            directions(cap)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        lattice._directions.cache_clear()
    assert kept < 2_000_000, kept


def test_directions_beyond_the_region_are_not_enumerated(monkeypatch):
    # a step with dr >= rows or |dc| >= cols has no line of two cells, so no
    # cap beyond the region is asked for, and the results are the fitted cap's
    asked = []
    build = lattice._directions

    def record(*bounds):
        asked.append(bounds)
        assert max(bounds) < 12, bounds  # rather than enumerate a cap of 10**6
        return build(*bounds)

    monkeypatch.setattr(lattice, "_directions", record)
    v = four_letter_squarefree(ORDINARY, 12)
    for rows in (1, 4, 12):
        g = product_grid(v.prefix(rows), v)
        for t in (2, Fraction(7, 4)):
            assert (verify_grid(g, t, max_direction=10**6)
                    == verify_grid(g, t, max_direction=11)), (rows, t)
    assert set(asked) == {(0, 11), (3, 11), (11, 11)}
    asked.clear()
    for side, letters in ((1, 2), (4, 3), (5, 6)):
        assert (grid_search(letters, 2, side, max_direction=10**6)
                == grid_search(letters, 2, side)), side
    assert set(asked) == {(0, 0), (3, 3), (4, 4)}


def test_two_by_two_has_six_segments():
    specs = [s for dr, dc in directions(1) for s in lattice._direction_lines(2, 2, dr, dc)]
    assert len(specs) == 6
    assert all(s.count == 2 for s in specs)


def test_enumeration_matches_oracle():
    # verify_grid's line order: direction by direction, heads row-major
    rng = random.Random(99)
    for _ in range(12):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        cap = rng.randrange(1, 5)
        got = [(s.row, s.col, s.drow, s.dcol, s.count) for dr, dc in directions(cap)
               for s in lattice._direction_lines(rows, cols, dr, dc)]
        assert got == grid_lines(rows, cols, cap)


def test_line_spec_validation():
    with pytest.raises(ValueError):
        LineSpec(-1, 0, 1, 0, 2)
    with pytest.raises(ValueError):
        LineSpec(0, 0, 0, 0, 2)
    with pytest.raises(ValueError):
        LineSpec(0, 0, 2, 2, 2)
    with pytest.raises(ValueError):
        LineSpec(0, 0, 1, 0, 0)


def test_extract_line_is_an_ap_of_the_flattening():
    rng = random.Random(5)
    g = random_grid(rng, 5, 7, 3)
    for spec in (LineSpec(*line) for line in grid_lines(5, 7, 3)):
        step = spec.drow * 7 + spec.dcol
        head = spec.row * 7 + spec.col
        want = Word(g.cells[head : head + (spec.count - 1) * step + 1 : step], 3)
        assert len(want) == spec.count
        assert extract_line(g, spec) == want


def test_extract_line_bounds():
    g = Grid(2, 2, bytes(4), 2)
    with pytest.raises(ValueError):
        extract_line(g, LineSpec(0, 0, 1, 1, 3))


# ---------------------------------------------------------------- verification

def random_verify_case(rng, case):
    """A grid for the differential tests: 1 x n, n x 1 or rectangular. Two
    in three are product grids, squarefree on every line, with a repeated
    run copied along one line of a random direction, so that the first
    repetition can sit on any direction; the rest have random cells."""
    shape = case % 4
    rows = 1 if shape == 0 else rng.randrange(1, 15)
    cols = 1 if shape == 1 else rng.randrange(1, 15)
    if case % 3 and rows * cols > 1:
        folds = FoldingSequence(tuple(rng.randrange(2) for _ in range(6)))
        g = product_grid(four_letter_squarefree(folds, rows), four_letter_squarefree(folds, cols))
        cells = bytearray(g.cells)
        row, col, drow, dcol, count = rng.choice(grid_lines(rows, cols, 8))
        at = [(row + t * drow) * cols + col + t * dcol for t in range(count)]
        p = rng.randrange(1, count)
        start = rng.randrange(count - p)
        for t in range(start + p, rng.randrange(start + p, count) + 1):
            cells[at[t]] = cells[at[t - p]]
        return Grid(rows, cols, bytes(cells), 16)
    k = rng.randrange(1, 17)
    used = rng.randrange(1, k + 1)
    return Grid(rows, cols, bytes(rng.randrange(used) for _ in range(rows * cols)), k)


def brute_first_repetition(seq, t_num, t_den, strict, min_period):
    """``_backend.first_repetition`` by brute force over every factor."""
    hit = first_report(list(seq), Fraction(t_num, t_den), strict, min_period, exact_diff=1)
    return None if hit is None else hit[2:]


def verify_cases():
    """(grid, kernel for the per-line loop, threshold, strict, min_period, cap).

    Fifteen random 6 x 6 grids are held to the brute-force kernel; the
    thousand grids of ``random_verify_case`` to the package's kernel.
    """
    rng = random.Random(404)
    for _ in range(15):
        g = random_grid(rng, 6, 6, rng.choice((2, 3, 4)))
        t = rng.choice((Fraction(2), Fraction(5, 2), Fraction(3)))
        yield g, brute_first_repetition, t, rng.random() < 0.5, rng.choice((1, 2)), 4
    rng = random.Random(2026)
    for case in range(1000):
        g = random_verify_case(rng, case)
        t = rng.choice(THRESHOLDS)
        strict = rng.random() < 0.5
        mp = rng.randrange(1, 4)
        yield g, _backend.first_repetition, t, strict, mp, rng.choice((1, 2, 3, 8))


def test_verify_matches_line_by_line_oracle():
    hits = 0
    hit_directions = set()
    for g, kernel, t, strict, mp, cap in verify_cases():
        got = verify_grid(g, t, strict=strict, min_period=mp, max_direction=cap)
        want = first_line_report_per_line(g.cells, g.rows, g.cols, kernel, t, strict, mp, cap)
        if want is None:
            assert got is None, (g, t, strict, mp, cap)
            continue
        hits += 1
        line, (offset, period, run) = want
        hit_directions.add(line[2:4])
        spec, rep = got
        assert (spec.row, spec.col, spec.drow, spec.dcol, spec.count) == line
        assert rep.progression == Progression(0, 1, line[4])
        assert (rep.offset, rep.period, rep.exponent) == (offset, period, Fraction(run, period))
    assert 200 < hits < 800 and len(hit_directions) >= 8


def test_verify_top_plane_cells_match_line_by_line_oracle():
    # cells that differ only in the top bit plane, and product grids over
    # all sixteen symbols, whose rows differ only in the two top planes
    rng = random.Random(1616)
    hits = 0
    for case in range(300):
        if case % 2:
            g = random_verify_case(rng, 3 * case + 1)
        else:
            rows, cols = rng.randrange(1, 10), rng.randrange(1, 10)
            letters = rng.choice(((3, 11), (0, 8), (7, 15)))
            g = Grid(rows, cols, bytes(rng.choice(letters) for _ in range(rows * cols)), 16)
        t = rng.choice((Fraction(2), Fraction(5, 2), Fraction(3), Fraction(4)))
        strict, mp, cap = rng.random() < 0.5, rng.randrange(1, 4), rng.choice((1, 2, 8))
        got = verify_grid(g, t, strict=strict, min_period=mp, max_direction=cap)
        want = first_line_report_per_line(g.cells, g.rows, g.cols, _backend.first_repetition,
                                          t, strict, mp, cap)
        if got is not None:
            hits += 1
            spec, rep = got
            got = ((spec.row, spec.col, spec.drow, spec.dcol, spec.count),
                   (rep.offset, rep.period, int(rep.exponent * rep.period)))
        assert got == want, (g, t, strict, mp, cap)
    assert 50 < hits < 250


def test_threshold_one_builds_no_planes(monkeypatch):
    # at threshold 1, not strict, a repetition needs no agreeing pair, so
    # verify_grid lays nothing out and walks the lines of each direction
    # with room; only the scanned lines get planes, in find_repetition
    built = []
    planes = lattice._planes
    monkeypatch.setattr(lattice, "_planes", lambda s: built.append(len(s)) or planes(s))
    rng = random.Random(111)
    hits = 0
    for case in range(200):
        g = random_verify_case(rng, case)
        mp, cap = rng.randrange(1, 4), rng.choice((1, 2, 8))
        got = verify_grid(g, 1, min_period=mp, max_direction=cap)
        want = first_line_report_per_line(g.cells, g.rows, g.cols, _backend.first_repetition,
                                          Fraction(1), False, mp, cap)
        if got is not None:
            hits += 1
            spec, rep = got
            got = ((spec.row, spec.col, spec.drow, spec.dcol, spec.count),
                   (rep.offset, rep.period, int(rep.exponent * rep.period)))
        assert got == want, (g, mp, cap)
    assert built == [] and 100 < hits < 200, (built, hits)
    # strict, a repetition needs one agreeing pair, so the layout is screened
    verify_grid(Grid(3, 3, bytes(range(9)), 9), 1, strict=True)
    assert len(built) == 1


def test_mutating_directions_changes_no_later_result():
    # directions() hands out a fresh list each call, so a caller editing it
    # cannot reorder or drop the directions verify_grid and grid_search use
    g = product_grid(four_letter_squarefree(ORDINARY, 16), four_letter_squarefree(ORDINARY, 16))
    searched = grid_search(6, 2, 4, max_direction=2)
    for cap in (2, 3, 8):
        ds = directions(cap)
        ds.reverse()
        ds.append((1, cap + 1))
        del ds[-3:]
    assert directions(2) == [(0, 1), (1, -2), (1, -1), (1, 0), (1, 1), (1, 2), (2, -1), (2, 1)]
    for cap in (2, 3, 8):
        spec, rep = verify_grid(g, Fraction(7, 4), max_direction=cap)
        assert (spec.row, spec.col, spec.drow, spec.dcol, spec.count) == (0, 0, 0, 1, 16)
        assert rep.to_line() == "diff=1 start=0 offset=2 period=4 exponent=7/4"
    assert grid_search(6, 2, 4, max_direction=2) == searched


def test_earliest_run_matches_oracle_on_grids(monkeypatch):
    # each direction's screen on verify_grid's padded planes, its start mapped
    # back to the row-major cells, against a trial search there whose pairs
    # leaving the grid sideways are cut one cell at a time
    screens = []

    def record(*args):
        screens.append(args)
        return -1  # every direction reads as clean, so every one is screened

    monkeypatch.setattr(lattice, "_earliest_run", record)
    rng = random.Random(2021)
    starts = []
    for case in range(400):
        g = random_verify_case(rng, case)
        rows, cols = g.rows, g.cols
        t = rng.choice(THRESHOLDS[:-1])
        strict, mp = rng.random() < 0.5, rng.randrange(1, 4)
        cap = rng.choice((1, 2, 8))
        screens.clear()
        got = verify_grid(g, t, strict=strict, min_period=mp, max_direction=cap)
        if _backend._min_run(mp, t.numerator, t.denominator, strict) == 0:
            # threshold 1, not strict: every direction with room is walked unscreened
            assert screens == []
            continue
        assert got is None
        lines, counts = [], {}
        for _, _, dr, dc, count in grid_lines(rows, cols, cap):
            counts[dr, dc] = max(count, counts.get((dr, dc), 0))
        for dr, dc in directions(cap):
            longest = counts.get((dr, dc), 1)  # grid_lines holds lines of 2+ cells
            top = _backend._top_period(longest, t.numerator, t.denominator, strict)
            if longest >= 2 and top >= mp:
                lines.append((dr, dc, longest))
        assert len(screens) == len(lines)
        for (dr, dc, longest), args in zip(lines, screens):
            width = args[1] // rows
            got = repetition._earliest_run(*args)
            if got >= 0:
                got = got // width * cols + got % width

            def cut(p, dc=dc):
                return sum(1 << r * cols + c for r in range(rows) for c in range(cols)
                           if not 0 <= c + p * dc < cols)

            assert got == earliest_run(list(g.cells), dr * cols + dc, t, strict, mp, longest,
                                       cut), (g, t, strict, mp, dr, dc)
            starts.append(got)
    # 1,371 screened directions: 754 clean, 325 flagged at 0 and 292 later
    assert sum(i < 0 for i in starts) > 600 and sum(i > 0 for i in starts) > 200


@pytest.mark.parametrize("t, strict", [(Fraction(1), False), (Fraction(3, 2), False),
                                       (Fraction(2), False), (Fraction(2), True),
                                       (Fraction(3), False)])
def test_row_pad_holds_every_pair_of_a_screened_direction(t, strict):
    # a screened direction's pairs p*(dr, dc) apart, p up to the top period of
    # its longest line, never leave their row by more than the pad; dr = 1
    # gives every dc up to the cap, and enough rows leave the columns as the bound
    for cols in range(1, 31):
        for cap in range(1, 32):
            for mp in (1, 2, 3):
                pad = lattice._row_pad(cols, cap, t.numerator, t.denominator, strict)
                assert pad >= 0
                for dc in range(1, min(cap, cols - 1) + 1):
                    longest = 1 + (cols - 1) // dc
                    top = _backend._top_period(longest, t.numerator, t.denominator, strict)
                    if top >= mp:
                        assert top * dc <= pad, (cols, cap, mp, dc)


def test_square_across_a_row_edge_is_not_a_line(monkeypatch):
    # "9 10 | 9 10" is a square of the row-major cells at difference 1, but
    # it wraps from row 0 to row 1; the wrapped pairs are 9 columns apart,
    # beyond the direction cap, so no line holds a repetition
    g = Grid(2, 11, bytes([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                           9, 10, 11, 12, 13, 14, 15, 11, 12, 13, 14]), 16)
    assert find_repetition(Word(g.cells, 16), 2, differences=Differences.exactly(1)) is not None
    scanned = []
    monkeypatch.setattr(lattice, "find_repetition",
                        lambda *a, **k: scanned.append(a) or find_repetition(*a, **k))
    assert verify_grid(g, 2) is None
    assert scanned == []


def test_product_of_odd_clean_words_verifies_clean():
    # any primitive direction has an odd component, so one factor of every
    # line square would be a square on an odd difference of v
    v = four_letter_squarefree(ORDINARY, 8)
    g = product_grid(v, v)
    assert verify_grid(g, 2, max_direction=7) is None


def test_constant_grid_fails_fast():
    g = Grid(2, 2, bytes(4), 2)
    hit = verify_grid(g, 2)
    assert hit is not None
    spec, rep = hit
    assert (spec.row, spec.col, spec.drow, spec.dcol) == (0, 0, 0, 1)
    assert rep.period == 1 and rep.exponent == 2


# ---------------------------------------------------------------- search

def test_single_cell_is_always_satisfiable():
    out = grid_search(3, 2, 1)
    assert out.status == "satisfiable" and out.witness.cells == b"\x00"


def test_three_letters_cannot_fill_two_by_two():
    # the four cells are pairwise collinear at distance 1 or on a diagonal,
    # so they would all need distinct symbols
    out = grid_search(3, 2, 2)
    assert out.status == "infeasible" and out.witness is None


def test_four_letters_fill_two_by_two():
    out = grid_search(4, 2, 2)
    assert out.status == "satisfiable"
    assert verify_grid(out.witness, 2, max_direction=1) is None
    assert len(set(out.witness.cells)) == 4


def test_search_budget_exhaustion():
    out = grid_search(3, 2, 4, node_budget=5)
    assert out.status == "budget_exhausted" and out.nodes == 5


def test_search_witness_cap_relaxation():
    # cubes need three cells in line; a 2x2 region cannot host one
    out = grid_search(2, 3, 2)
    assert out.status == "satisfiable" and out.witness.cells == bytes(4)


def test_search_validation():
    with pytest.raises(ValueError, match=r"alphabet size must be in 1\.\.16, not 0"):
        grid_search(0, 2, 2)
    with pytest.raises(ValueError, match=r"alphabet size must be in 1\.\.16, not 17"):
        grid_search(17, 2, 2)
    with pytest.raises(ValueError, match=r"threshold must be at least 1, not 1/2"):
        grid_search(2, Fraction(1, 2), 2)
    with pytest.raises(ValueError, match=r"region side must be at least 1, not 0"):
        grid_search(2, 2, 0)
    with pytest.raises(ValueError, match=r"direction cap must be at least 1, not 0"):
        grid_search(4, 2, 2, max_direction=0)
    with pytest.raises(ValueError, match=r"node budget must be nonnegative, not -3"):
        grid_search(4, 2, 2, node_budget=-3)
    assert grid_search(4, 2, 2, node_budget=0) == GridSearchOutcome("budget_exhausted", 2, 0)


def test_search_budget_boundary():
    # a budget equal to a finished search's node count still finishes; one
    # node less runs out with exactly the budget visited
    for k, side, status, nodes in ((7, 7, "satisfiable", 525), (3, 2, "infeasible", 48)):
        done = grid_search(k, 2, side, node_budget=nodes)
        assert (done.status, done.nodes) == (status, nodes)
        short = grid_search(k, 2, side, node_budget=nodes - 1)
        assert short == GridSearchOutcome("budget_exhausted", side, nodes - 1)


def test_search_counts_the_plain_tree_at_every_budget():
    # the walk counts the renamed copies of a subtree instead of walking
    # them; at every budget it must stop where the plain walk stops
    for k, side, status, total in ((3, 2, "infeasible", 48), (7, 4, "satisfiable", 110)):
        full = grid_search(k, 2, side)
        assert (full.status, full.nodes) == (status, total)
        for budget in range(total + 2):
            out = grid_search(k, 2, side, node_budget=budget)
            want = grid_search_per_ray(k, 2, side, _backend.clean_after_append,
                                       node_budget=budget)
            assert (out.status, out.nodes, out.witness and out.witness.cells) == want, budget


def test_search_walks_the_canonical_tree(monkeypatch):
    # the plain tree of six letters at side 4 has 374,802 nodes, the
    # canonical one 549; the rule is asked once per grown node
    calls = 0
    grid_rule = lattice._grid_rule

    def counted_rule(*args):
        rule = grid_rule(*args)

        def forbidden(values, limit):
            nonlocal calls
            calls += 1
            return rule(values, limit)

        return forbidden

    monkeypatch.setattr(lattice, "_grid_rule", counted_rule)
    out = grid_search(6, 2, 4)
    assert (out.status, out.nodes) == ("infeasible", 374_802)
    assert 0 < calls <= 549, calls


def test_threshold_and_min_period_checked_up_front():
    with pytest.raises(ValueError, match=r"min_period must be at least 1, not 0"):
        grid_search(3, 2, 2, min_period=0)
    with pytest.raises(ValueError, match=r"min_period must be at least 1, not -1"):
        grid_search(3, 2, 2, min_period=-1)
    with pytest.raises(ValueError, match=r"threshold must be at least 1, not 1/2"):
        grid_search(3, Fraction(1, 2), 2)
    one = Grid(1, 1, b"\x00", 2)
    with pytest.raises(ValueError, match=r"threshold must be at least 1, not 1/2"):
        verify_grid(one, Fraction(1, 2))
    with pytest.raises(ValueError, match=r"min_period must be at least 1, not 0"):
        verify_grid(one, 2, min_period=0)


def test_search_matches_per_ray_loop():
    rng = random.Random(1871)
    statuses = {}
    for _ in range(1500):
        k = rng.randrange(1, 9)
        side = rng.randrange(1, 6)
        t = rng.choice(THRESHOLDS)
        strict = rng.random() < 0.5
        mp = rng.randrange(1, 4)
        cap = rng.choice((None, 1, 2, 3, 8))
        budget = int(10 ** rng.uniform(0, 3.3))
        out = grid_search(k, t, side, strict=strict, min_period=mp, max_direction=cap,
                          node_budget=budget)
        want = grid_search_per_ray(k, t, side, _backend.clean_after_append, strict, mp, cap,
                                   budget)
        got = (out.status, out.nodes, out.witness.cells if out.witness else None)
        assert got == want, (k, t, side, strict, mp, cap, budget)
        statuses[out.status] = statuses.get(out.status, 0) + 1
    assert min(statuses.values()) >= 75 and len(statuses) == 3, statuses


def recheck_rule(rng, limits, side, k, t, strict, mp, cap):
    """Grow a random clean partial grid greedily, every placed cell checked by
    brute force on each backward ray; at the next cell the rule must forbid
    exactly the symbols that the brute force rejects. A limit above every
    placed symbol, as a canonical walk asks with, keeps the symbols below it.
    Yields each checked cell and the symbols it forbids."""
    rule = lattice._grid_rule(t, side, strict, mp, cap)
    values = bytearray()
    for rays in backward_rays(side, cap):
        want = {sym for sym in range(k) if any(
            first_report(bytes(values[i] for i in ray[:-1]) + bytes((sym,)), t, strict,
                         mp, exact_diff=1) is not None for ray in rays)}
        assert rule(values, k) == want, (side, k, t, strict, mp, cap, bytes(values))
        limit = limits.randrange(max(values, default=0) + 1, k + 1)
        assert rule(values, limit) == want & set(range(limit)), (
            side, k, t, strict, mp, cap, bytes(values), limit)
        yield len(values), want
        allowed = [sym for sym in range(k) if sym not in want]
        if not allowed:
            return
        values.append(rng.choice(allowed))


def test_grid_rule_matches_full_recheck():
    # besides the default cap side - 1, caps 1, 2 and 8 reach directions
    # with no ray and strides at the grid's edge
    rng, limits = random.Random(4242), random.Random(4243)
    checked = fallback_bans = 0  # at the cap side - 1
    for _ in range(300):
        side = rng.randrange(2, 6)
        k = rng.randrange(2, 6)
        t = rng.choice((Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2)))
        strict = rng.random() < 0.5
        mp = rng.randrange(1, 4)
        for cap in sorted({side - 1, 1, 2, 8}):
            for _, want in recheck_rule(rng, limits, side, k, t, strict, mp, cap):
                if cap == side - 1:
                    checked += 1
                    fallback_bans += mp > 1 and bool(want)
    assert checked >= 3000 and fallback_bans >= 400, (checked, fallback_bans)


@pytest.mark.parametrize("t, strict", [(Fraction(7, 4), False), (Fraction(2), False),
                                       (Fraction(2), True), (Fraction(3), False)])
def test_grid_rule_matches_full_recheck_on_larger_sides(t, strict):
    # sides 6-9, at the default cap and cap 8: a chain of period p reaches
    # span = p + _min_run(p) - 1 cells back, 3 or more from p = 2 on at each
    # of these thresholds, and only cells from row or column 3 on hold one
    rng, limits = random.Random(f"rule:{t}:{strict}"), random.Random(4246)
    deep = 0
    for side in range(6, 10):
        for cap in sorted({side - 1, 8}):
            k = rng.randrange(5, 9)
            mp = rng.choice((1, 1, 2))
            for cell, _ in recheck_rule(rng, limits, side, k, t, strict, mp, cap):
                deep += cell >= 3 * side or cell % side >= 3
    assert deep >= 150, deep


def test_grid_rule_reads_one_lone_cell_or_none():
    # at threshold 2 a period-1 chain needs no agreement: at side 2 with cap
    # 1 cell 1 has one such back (cell 0), cell 0 none, cells 2 and 3 two and
    # three; at threshold 3 every chain needs one, so no cell has a lone back
    rule = lattice._grid_rule(Fraction(2), 2, False, 1, 1)
    assert rule(bytearray(), 3) == set()
    assert rule(bytearray([2]), 3) == {2}
    assert rule(bytearray([2, 1]), 3) == {1, 2}
    assert rule(bytearray([2, 1, 0]), 3) == {0, 1, 2}
    rule = lattice._grid_rule(Fraction(3), 3, False, 1, 2)
    assert rule(bytearray(), 2) == set()
    assert rule(bytearray([1]), 2) == set()
    assert rule(bytearray([1, 1]), 2) == {1}  # the row 1 1 1 would be a cube
    assert rule(bytearray([1, 0]), 2) == set()


def test_grid_rule_builds_each_chain_once_per_direction_and_period():
    # counted back from the new cell, a chain is one object for its whole
    # rectangle; a getter pair per cell and chain took about 11 MB
    import tracemalloc
    tracemalloc.start()
    try:
        lattice._grid_rule(Fraction(2), 24, False, 1, 23)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000, peak


# ---------------------------------------------------------------- export

def test_ppm_bytes_golden(tmp_path):
    g = Grid(1, 2, bytes([0, 1]), 2)
    path = tmp_path / "tiny.ppm"
    export_ppm(g, path)
    assert path.read_bytes() == b"P3\n2 1\n255\n0 0 0\n230 25 75\n"


def test_default_palette_covers_max_alphabet():
    assert len(DEFAULT_PALETTE) == 16
    assert len(set(DEFAULT_PALETTE)) == 16
