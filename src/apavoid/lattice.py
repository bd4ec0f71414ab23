"""Two-dimensional words: products of one-dimensional ones, line extraction
and verification over finite regions, small-alphabet feasibility search,
and image export.

Directions are primitive vectors counted once per undirected line: (0,1)
plus every (dr, dc) with dr >= 1, |dc| <= the direction cap and
gcd(dr, |dc|) = 1. Every such vector has an odd component, which is what
lets product grids inherit cleanness from odd-difference progressions of
their factors. A region enumerates only the directions that fit it, dr
below its rows and |dc| below its columns: a longer step has no line of
two cells there, so the cap beyond that changes nothing.

The lines of one direction are progressions of one step in the grid's
cells, laid out with pad cells after each row, so ``verify_grid`` screens a
direction on their bit planes, as ``find_repetition`` screens a difference,
and ``grid_search`` runs the word searches' engine on a rule read from
per-cell witness chains, whose backward rays are progressions through the
row-major cells.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Callable, Iterator
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

from ._backend import _min_run, _top_period
from .repetition import (Differences, RepetitionReport, _checked_threshold,
                         _earliest_run, _planes, find_repetition)
from .search import _backtrack, _closing_symbols
from .words import (MAX_ALPHABET, Word, _CHARS, _check_alphabet_size, _check_integer, _set,
                    _symbol_bytes, _Value)


class Grid(_Value):
    """Row-major rectangle of symbols; factors records a product alphabet."""

    __slots__ = ("rows", "cols", "cells", "alphabet_size", "factors")

    def __init__(self, rows: int, cols: int, cells: bytes, alphabet_size: int,
                 factors: tuple[int, int] | None = None) -> None:
        _check_integer(rows, "row count")
        _check_integer(cols, "column count")
        if rows < 1 or cols < 1:
            raise ValueError(f"grid must have at least one row and one column, not {rows}x{cols}")
        _check_alphabet_size(alphabet_size)
        cells = _symbol_bytes(cells, "cell symbol", alphabet_size)
        if len(cells) != rows * cols:
            raise ValueError(f"{len(cells)} cells do not fill the declared {rows}x{cols} shape")
        if factors is not None:
            if not isinstance(factors, (tuple, list)) or len(factors) != 2:
                raise ValueError(f"factors must be a pair of sizes, not {factors!r}")
            for size in factors:
                _check_integer(size, "factor size", 1)
            if factors[0] * factors[1] != alphabet_size:
                raise ValueError("factors do not multiply to the alphabet size")
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "cells", cells)
        _set(self, "alphabet_size", alphabet_size)
        # a tuple, since a list would make the grid unhashable
        _set(self, "factors", factors if factors is None else tuple(factors))

    def cell(self, row: int, col: int) -> int:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ValueError(f"cell ({row}, {col}) outside {self.rows}x{self.cols} grid")
        return self.cells[row * self.cols + col]

    def pair(self, row: int, col: int) -> tuple[int, int]:
        """Project a product cell back to its two components."""
        if self.factors is None:
            raise ValueError("grid does not carry a product factorization")
        return divmod(self.cell(row, col), self.factors[1])

    def to_text(self) -> str:
        lines = [f"{self.rows} {self.cols} {self.alphabet_size}"]
        for r in range(self.rows):
            row = self.cells[r * self.cols : (r + 1) * self.cols]
            lines.append("".join(_CHARS[s] for s in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Grid":
        lines = [ln for ln in text.splitlines() if ln]
        try:
            rows, cols, alphabet = map(int, lines[0].split())
        except (IndexError, ValueError):
            raise ValueError("grid text must start with 'rows cols alphabet'") from None
        if len(lines) != rows + 1:
            raise ValueError(f"expected {rows} rows of cells, found {len(lines) - 1}")
        cells = bytearray()
        for row, ln in enumerate(lines[1:]):
            if len(ln) != cols:
                raise ValueError(f"row {row} has {len(ln)} cells, not {cols}")
            for col, c in enumerate(ln):
                sym = _CHARS.find(c)
                if sym < 0:
                    raise ValueError(f"bad cell character {c!r} in row {row}, column {col}; "
                                     f"cells are digits from {_CHARS!r}")
                cells.append(sym)
        return cls(rows, cols, bytes(cells), alphabet)


class LineSpec(_Value):
    """A maximal straight run of cells: start, primitive step, cell count."""

    __slots__ = ("row", "col", "drow", "dcol", "count")

    def __init__(self, row: int, col: int, drow: int, dcol: int, count: int) -> None:
        _check_integer(row, "line row")
        _check_integer(col, "line col")
        _check_integer(drow, "line drow")
        _check_integer(dcol, "line dcol")
        _check_integer(count, "line cell count", 1)
        if row < 0 or col < 0:
            raise ValueError("line start must be inside the grid")
        if drow == 0 and dcol == 0:
            raise ValueError("line direction cannot be zero")
        if math.gcd(abs(drow), abs(dcol)) != 1:
            raise ValueError("line direction must be primitive")
        _set(self, "row", row)
        _set(self, "col", col)
        _set(self, "drow", drow)
        _set(self, "dcol", dcol)
        _set(self, "count", count)


def product_grid(u: Word, v: Word) -> Grid:
    """Pair word: cell (r, c) holds (u[r], v[c]) flattened as u[r]*k + v[c]."""
    if len(u) == 0 or len(v) == 0:
        raise ValueError("both component words must be nonempty")
    if u.alphabet_size != v.alphabet_size:
        raise ValueError("component words must share one alphabet")
    k = u.alphabet_size
    if k * k > MAX_ALPHABET:
        raise ValueError(f"flattened alphabet {k}x{k} exceeds {MAX_ALPHABET}")
    rows = [bytes(a * k + b for b in v.symbols) for a in range(k)]  # the row of u's symbol a
    cells = b"".join(rows[a] for a in u.symbols)
    return Grid(len(u), len(v), cells, k * k, factors=(k, k))


def directions(max_direction: int) -> list[tuple[int, int]]:
    """Primitive directions up to reversal, components bounded in magnitude."""
    _check_integer(max_direction, "direction cap", 1)
    return list(zip(*_directions(max_direction, max_direction)))


@lru_cache(maxsize=16)
def _directions(most_dr: int, most_dc: int) -> tuple[array, array]:
    """(0, 1) and the primitive (dr, dc) with 1 <= dr <= most_dr and |dc| <=
    most_dc, in the order of ``directions``, kept per bound as two columns of
    machine integers, dr and dc, which ``zip`` reads as pairs: 8 bytes a
    direction, where a tuple of pairs holds an object of 56 bytes or more."""
    drs, dcs = array("i", [0]), array("i", [1])
    for dr in range(1, most_dr + 1):
        row = [dc for dc in range(-most_dc, most_dc + 1) if math.gcd(dr, dc) == 1]
        drs.extend([dr] * len(row))
        dcs.extend(row)
    return drs, dcs


def _direction_lines(rows: int, cols: int, dr: int, dc: int) -> Iterator[LineSpec]:
    """The maximal lines of 2+ cells along one direction, heads row-major.

    Heads are cells whose predecessor along the direction falls outside the
    region: every cell of the first dr rows, and below them the first dc
    columns when dc > 0 or the last -dc when dc < 0. A line from (r, c) has
    1 + min((rows-1-r)//dr, (cols-1-c)//dc or c//-dc) cells, a zero
    component bounding nothing.
    """
    edge = range(min(dc, cols)) if dc >= 0 else range(max(0, cols + dc), cols)
    for r in range(rows):
        down = (rows - 1 - r) // dr if dr else cols
        for c in range(cols) if r < dr else edge:
            steps = min(down, (cols - 1 - c) // dc if dc > 0 else c // -dc if dc else rows)
            if steps:
                yield LineSpec(r, c, dr, dc, 1 + steps)


def extract_line(g: Grid, spec: LineSpec) -> Word:
    """The cells of a line: the row-major cells from its head in steps of
    j = drow*cols + dcol. A straight line lies inside the grid when its first
    and last cells do. j is 0 only for a one-cell line (any longer one with
    j = 0 leaves the grid), so a step of 1 reads the same cell.
    """
    for t in (0, spec.count - 1):
        r, c = spec.row + t * spec.drow, spec.col + t * spec.dcol
        if not (0 <= r < g.rows and 0 <= c < g.cols):
            raise ValueError(f"line leaves the grid at step {t}: ({r}, {c})")
    head = spec.row * g.cols + spec.col
    j = spec.drow * g.cols + spec.dcol
    return Word(memoryview(g.cells)[head::j or 1][:spec.count].tobytes(), g.alphabet_size)


def _row_pad(cols: int, max_direction: int, t_num: int, t_den: int, strict: bool) -> int:
    """Pad cells after each row in ``verify_grid``'s layout: enough that no
    pair p*(dr, dc) apart with p <= ``_top_period`` of its direction's longest
    line leaves its row by more than the pad. A screened direction with
    dc != 0 has 1 <= |dc| <= cols - 1 and a longest line of L >= 2 cells with
    (L - 1)*|dc| <= cols - 1, so L*|dc| <= cols - 1 + min(max_direction,
    cols - 1); and _top_period(L)*k <= _top_period(L*k), strict or not, so
    p*|dc| is at most this pad. With one column no such direction exists.
    """
    return _top_period(cols - 1 + min(max_direction, cols - 1), t_num, t_den,
                       strict) if cols > 1 else 0


def verify_grid(
    g: Grid,
    threshold,
    *,
    strict: bool = False,
    min_period: int = 1,
    max_direction: int = 8,
) -> tuple[LineSpec, RepetitionReport] | None:
    """First repetition on any maximal line, or None. Lines are taken
    direction by direction, in the order of ``directions``, and row-major by
    head within a direction.

    Only the directions that fit the grid are enumerated, with dr <=
    min(max_direction, rows - 1) and |dc| <= min(max_direction, cols - 1),
    since a longer step has no line of two cells; each such list is built
    once and kept by ``_directions``. A direction's longest line starts at a
    corner and has 1 + min((rows-1)//dr, (cols-1)//|dc|) cells, a zero
    component bounding nothing; a direction whose longest line has no room
    for a period is skipped. The rows are laid out width = cols +
    ``_row_pad`` cells apart, with pad cells after each, and the lines of
    direction (dr, dc) are progressions of step j = dr*width + dc in that
    layout. Each direction is searched as a whole by
    ``repetition._earliest_run`` on the layout's bit planes, built once, and
    bounded by its longest line. Pad cells have a plane of their own, so no
    cell agrees with one, and their mask starts every mismatch, so none
    starts a run. A pair whose column
    leaves the grid, and a step of a chain that leaves its line, land on pad
    cells, so every run found lies on one line. A direction where no
    repetition can start (-1) is clean. A flagged one has its lines scanned
    in that order at difference 1, so the first report is the one a
    line-by-line scan gives. When ``_min_run(min_period)`` is 0 (threshold
    1, not strict) a repetition needs no agreeing pair, so the screen would
    flag every direction with room at once: no layout is built, and those
    directions have their lines scanned directly.
    """
    t = _checked_threshold(threshold, min_period, strict)
    _check_integer(max_direction, "direction cap", 1)
    t_num, t_den = t.numerator, t.denominator
    rows, cols = g.rows, g.cols
    screen = _min_run(min_period, t_num, t_den, strict) > 0
    if screen:  # else every direction with room is flagged, and no layout is needed
        pad = _row_pad(cols, max_direction, t_num, t_den, strict)
        width = cols + pad
        mask = int(("1" * pad + "0" * cols) * rows, 2)  # bit r*width + c for c >= cols
        laid_out = b"".join(g.cells[k:k + cols] + bytes(pad) for k in range(0, rows * cols, cols))
        planes = _planes(laid_out) + [mask]  # the pad cells' own plane
    for dr, dc in zip(*_directions(min(max_direction, rows - 1), min(max_direction, cols - 1))):
        # a zero component bounds nothing: (0, 1) runs along a row and (1, 0) down a column
        longest = 1 + min((rows - 1) // dr if dr else cols, (cols - 1) // abs(dc) if dc else rows)
        top = _top_period(longest, t_num, t_den, strict)
        if longest < 2 or top < min_period:
            continue
        if screen and _earliest_run(planes, rows * width, dr * width + dc, t_num, t_den, strict,
                                    min_period, top, mask) < 0:
            continue
        for spec in _direction_lines(rows, cols, dr, dc):
            rep = find_repetition(extract_line(g, spec), t, strict=strict,
                                  min_period=min_period, differences=Differences.exactly(1))
            if rep is not None:
                return spec, rep
    return None


class GridSearchOutcome(_Value):
    """What ``grid_search`` found: status "satisfiable", with a witness grid,
    "infeasible" or "budget_exhausted"."""

    __slots__ = ("status", "side", "nodes", "witness")

    def __init__(self, status: str, side: int, nodes: int, witness: Grid | None = None) -> None:
        _set(self, "status", status)
        _set(self, "side", side)
        _set(self, "nodes", nodes)
        _set(self, "witness", witness)


def _grid_rule(t: Fraction, side: int, strict: bool, min_period: int,
               max_direction: int) -> Callable[[bytearray, int], set[int]]:
    """The engine's rule for a side x side grid, the counterpart of
    ``search._word_rule``: given the cells placed so far in row-major order
    and a limit above each of them, the symbols below limit whose placement
    at the next cell closes a repetition on one of its backward rays.

    Only repetitions ending at the new cell need a check. As in
    ``extract_line``, a line of direction (dr, dc) is a progression of stride
    j = dr*side + dc through the row-major cells. Only the directions that
    fit the grid are enumerated, dr and |dc| at most side - 1, so j >= 1,
    since dr >= 1 with |dc| < side or the direction is (0, 1); a cell's
    backward ray cell - j, cell - 2j, ... runs over cells already placed. The
    dropped directions have no line of two cells, so no chain. The new cell
    is len(values) whenever the rule is asked, so every table entry is an
    offset back from it: -j is the cell one step back on the ray. A
    repetition of period p ending at the cell has r = _min_run(p)
    agreements p steps apart along the ray; the last pairs the cell with
    the cell at back = -p*j, and the r - 1 before it lie among cells already
    placed. Its witness chain reaches span = p + r - 1 cells back, so the
    cells with a chain of period p are those with span predecessors on the
    ray: a rectangle of rows span*dr to side - 1, and of columns span*dc to
    side - 1 when dc >= 0 or 0 to side - 1 + span*dc when dc < 0. Counted
    back from the new cell, the chain is the same at every cell of that
    rectangle, so it is built once per direction and period: the int back
    when r = 1, a lone back that needs no agreement, and otherwise (getter
    of the r - 1 cells before back, getter of the r - 1 before the new
    cell, back). Span grows strictly with p, since r never falls, so the
    periods stop at the first span that leaves the grid. Each cell holds
    one getter of its lone backs and a list of its longer chains, in the
    order of directions and then periods.

    So the rule is the set of symbols at the backs of the chains whose
    r - 1 agreements hold: exactly those that close a repetition, with
    min_period 1. With min_period > 1 they are only candidates, as is every
    symbol below limit with r = 0 (threshold 1, not strict), kept by
    ``search._closing_symbols`` if ``_backend.clean_after_append`` rejects
    one of the cell's rays, which it reads through slices built in one pass
    per direction.
    """
    _check_integer(max_direction, "direction cap", 1)
    total = side * side
    fit = min(max_direction, side - 1)  # a longer step leaves the grid
    t_num, t_den = t.numerator, t.denominator
    r0 = _min_run(min_period, t_num, t_den, strict)
    exact = min_period == 1 and r0 > 0
    lone: list = [[] for _ in range(total)]  # then one getter per cell
    chained: list[list[tuple]] = [[] for _ in range(total)]
    heads: list[list[slice]] = [[] for _ in range(0 if exact else total)]
    for dr, dc in zip(*_directions(fit, fit)):
        j = dr * side + dc
        if not exact:  # the confirm path's placed cells of each backward ray
            count = [1] * total  # cells on the backward ray ending at each cell
            for cell in range(dr * side, total):
                if 0 <= cell % side - dc < side:
                    n = count[cell] = count[cell - j] + 1
                    heads[cell].append(slice(cell - (n - 1) * j, cell, j))
        # span >= p, so the rectangle is empty from p = side on; with r0 = 0 no
        # period needs an agreement, and no chain has a table
        for p in range(min_period, side if r0 else 0):
            r = _min_run(p, t_num, t_den, strict)
            span = p + r - 1
            left, right = max(0, span * dc), side + min(0, span * dc)  # the columns
            if span * dr >= side or left >= right:
                break  # and so for every later period
            back = -p * j  # counted back from the new cell, so one chain serves the rectangle
            chain = back if r == 1 else (itemgetter(*range(back - (r - 1) * j, back, j)),
                                         itemgetter(*range(-(r - 1) * j, 0, j)), back)
            tables = lone if r == 1 else chained
            for first in range(span * dr * side + left, total, side):
                for cell in range(first, first + right - left):
                    tables[cell].append(chain)
    # itemgetter of one offset returns its value, not a tuple, so a slice reads
    # one or none; b + 1 is 0 for the cell just before, and slice(-1, 0) is empty
    for cell, b in enumerate(lone):
        lone[cell] = itemgetter(*b) if len(b) > 1 else itemgetter(
            slice(b[0], b[0] + 1 or None) if b else slice(0))

    def forbidden(values: bytearray, limit: int) -> set[int]:
        cell = len(values)
        ban = set(lone[cell](values)) if r0 else set(range(limit))
        for same, again, back in chained[cell]:
            if same(values) == again(values):
                ban.add(values[back])
        if exact or not ban:
            return ban
        return _closing_symbols(ban, [values[h] for h in heads[cell]], t_num, t_den, strict,
                                min_period)

    return forbidden


def grid_search(
    alphabet_size: int,
    threshold,
    side: int,
    *,
    strict: bool = False,
    min_period: int = 1,
    max_direction: int | None = None,
    node_budget: int = 10**8,
) -> GridSearchOutcome:
    """Backtracking hunt for a side x side grid with every line clean.

    Cells are assigned in row-major order by the word searches' engine,
    ``search._backtrack``: symbols ascending, each symbol tried one node,
    with ``_grid_rule`` giving the symbols each cell forbids.
    The default direction cap side-1 covers every segment that fits, so an
    infeasible verdict rules the region out entirely.

    The node count is the plain walk's, over every symbol at every cell,
    but the walk visits only grids whose symbols first appear in increasing
    order. Renaming symbols keeps every line clean, so the subtrees under a
    partial grid's unused symbols are renamed copies; the first one is
    walked and the rest, the siblings that follow it in plain order, are
    counted. The first full grid in plain order is canonical, since renaming
    a grid canonically never makes it lexicographically larger, so the
    witness and its count are the plain walk's too. A budget that runs out
    inside the counted copies is reported as run out at the budget.
    """
    _check_alphabet_size(alphabet_size)
    _check_integer(side, "region side", 1)
    t = _checked_threshold(threshold, min_period, strict)
    if max_direction is None:
        max_direction = max(1, side - 1)
    rule = _grid_rule(t, side, strict, min_period, max_direction)
    total = side * side
    # a full assignment ends the walk; None is the engine's stop
    nodes, budget_hit, full = _backtrack(
        alphabet_size, rule, lambda values: len(values) < total or None, node_budget,
        count_plain=True)
    if full is not None:
        return GridSearchOutcome("satisfiable", side, nodes, Grid(side, side, full, alphabet_size))
    return GridSearchOutcome("budget_exhausted" if budget_hit else "infeasible", side, nodes)


# One readily distinguishable color per symbol, fixed so exported images
# are byte-identical everywhere.
DEFAULT_PALETTE: tuple[tuple[int, int, int], ...] = (
    (0, 0, 0), (230, 25, 75), (60, 180, 75), (255, 225, 25),
    (0, 130, 200), (245, 130, 48), (145, 30, 180), (70, 240, 240),
    (240, 50, 230), (210, 245, 60), (250, 190, 212), (0, 128, 128),
    (220, 190, 255), (170, 110, 40), (255, 250, 200), (128, 0, 0),
)


def export_ppm(g: Grid, path) -> None:
    """Plain PPM (P3), one pixel per cell, rows top to bottom, in
    ``DEFAULT_PALETTE``, which has a color for each of the 16 symbols a grid
    may use.

    Written in binary mode so the bytes do not depend on platform newline
    handling.
    """
    chunks = [f"P3\n{g.cols} {g.rows}\n255\n"]
    for s in g.cells:
        r, gg, b = DEFAULT_PALETTE[s]
        chunks.append(f"{r} {gg} {b}\n")
    data = "".join(chunks).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(data)
