"""Two-dimensional words: products of one-dimensional ones, line extraction
and verification over finite regions, small-alphabet feasibility search,
and image export.

Directions are primitive vectors counted once per undirected line: (0,1)
plus every (dr, dc) with dr >= 1, |dc| <= the direction cap and
gcd(dr, |dc|) = 1. Every such vector has an odd component, which is what
lets product grids inherit cleanness from odd-difference progressions of
their factors.

The lines of one direction are progressions of one step in the row-major
cells, so ``verify_grid`` screens a direction on their bit planes, as
``find_repetition`` screens a difference, and
``grid_search`` runs the word searches' engine on a rule read from per-cell
witness chains, whose backward rays are progressions of the same strides.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from fractions import Fraction
from functools import partial
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
            if len(factors) != 2:
                raise ValueError(f"factors must be a pair of sizes, not {factors!r}")
            if factors[0] * factors[1] != alphabet_size:
                raise ValueError("factors do not multiply to the alphabet size")
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "cells", cells)
        _set(self, "alphabet_size", alphabet_size)
        _set(self, "factors", factors)

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
    out = [(0, 1)]
    for dr in range(1, max_direction + 1):
        for dc in range(-max_direction, max_direction + 1):
            if math.gcd(dr, abs(dc)) == 1:
                out.append((dr, dc))
    return out


def _cells_ahead(rows: int, cols: int, r: int, c: int, dr: int, dc: int) -> int:
    """Cells from (r, c) on, stepping (dr, dc) with dr >= 0, that stay inside."""
    steps = [(rows - 1 - r) // dr] if dr else []
    if dc:
        steps.append((cols - 1 - c) // dc if dc > 0 else c // -dc)
    return 1 + min(steps)


def _direction_lines(rows: int, cols: int, dr: int, dc: int) -> Iterator[LineSpec]:
    """The maximal lines of 2+ cells along one direction, heads row-major.

    Heads are cells whose predecessor along the direction falls outside the
    region.
    """
    for r in range(rows):
        for c in range(cols):
            if 0 <= r - dr < rows and 0 <= c - dc < cols:
                continue  # not a head
            count = _cells_ahead(rows, cols, r, c, dr, dc)
            if count >= 2:
                yield LineSpec(r, c, dr, dc, count)


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


def _edge_cut(cols: int, repunit: int, dc: int, p: int) -> int:
    """Bit r*cols + c, as in ``repetition``'s planes, for each cell (r, c) whose
    column c + p*dc is off the grid: one row's bits times a repunit of rows."""
    k = min(cols, p * abs(dc))
    row = (1 << k) - 1
    return (row << (cols - k) if dc > 0 else row) * repunit


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

    The lines of direction (dr, dc) are progressions of step j = dr*cols + dc
    in the row-major cells, so each direction is searched as a whole by
    ``repetition._earliest_run`` on the cells' bit planes, built once, and
    bounded by its longest line. A pair (i, i + p*j) whose column c + p*dc is
    off the grid wraps onto another line; those columns, marked on every
    row, are cut from the search. A chain of pairs one stride apart stays on
    one line too: where the cell j before an uncut pair wraps to another
    row, its own column c' has c' + p*dc off the grid, so its pair is cut. A
    direction where no repetition can start (-1) is clean. A flagged one has
    its lines scanned in that order at difference 1, so the first report is
    the one a line-by-line scan gives.
    """
    t = _checked_threshold(threshold, min_period, strict)
    rows, cols = g.rows, g.cols
    diff1 = Differences.exactly(1)
    planes = _planes(g.cells)
    repunit = ((1 << rows * cols) - 1) // ((1 << cols) - 1)
    for dr, dc in directions(max_direction):
        longest = _cells_ahead(rows, cols, 0, 0 if dc >= 0 else cols - 1, dr, dc)
        if longest < 2:
            continue
        j = dr * cols + dc
        cut = partial(_edge_cut, cols, repunit, dc) if dc else None
        if _earliest_run(planes, rows * cols, j, longest, t.numerator, t.denominator,
                         strict, min_period, cut) < 0:
            continue
        for spec in _direction_lines(rows, cols, dr, dc):
            rep = find_repetition(extract_line(g, spec), t, strict=strict,
                                  min_period=min_period, differences=diff1)
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
    ``verify_grid``, a line of direction (dr, dc) is a progression of stride
    j = dr*side + dc through the row-major cells. A cell whose predecessor
    (row - dr, col - dc) is on the grid has a backward ray of n cells, the
    predecessor's ray plus itself; then dr >= 1 with |dc| < side, or the
    direction is (0, 1), so j >= 1 and the ray's other cells cell - (n-1)*j,
    ..., cell - j all precede it. Each cell has witness chains, built once:
    one per backward ray and period p, with r = _min_run(p). A repetition
    of period p ending at the cell has r agreements p steps apart along the
    ray; the last pairs the cell with the cell p steps back, cell - p*j, and
    the r - 1 before it lie among cells already placed. So the rule is the
    set of symbols p steps back on the chains whose r - 1 agreements hold:
    exactly those that close a repetition, with min_period 1. With
    min_period > 1 they are only candidates, as is every symbol below limit
    with r = 0 (threshold 1, not strict), kept by ``search._closing_symbols``
    if ``_backend.clean_after_append`` rejects one of the cell's rays.
    """
    total = side * side
    t_num, t_den = t.numerator, t.denominator
    r0 = _min_run(min_period, t_num, t_den, strict)
    exact = min_period == 1 and r0 > 0
    # per cell: cells p back on chains with r = 1, chains with r >= 2 as
    # (getter, getter, cell p back), and for the confirm path alone the
    # placed cells of each backward ray as a slice; one pass per direction.
    # A chain with r = 0 needs no table
    lone: list[list[int]] = [[] for _ in range(total)]
    chained: list[list[tuple]] = [[] for _ in range(total)]
    heads: list[list[slice]] = [[] for _ in range(0 if exact else total)]
    for dr, dc in directions(max_direction):
        j = dr * side + dc
        count = [1] * total  # cells on the backward ray ending at each cell
        for cell in range(total):
            if cell < dr * side or not 0 <= cell % side - dc < side:
                continue  # no predecessor: a ray of one cell
            n = count[cell] = count[cell - j] + 1
            if not exact:  # only the confirm path reads the rays
                heads[cell].append(slice(cell - (n - 1) * j, cell, j))
            for p in range(min_period, _top_period(n, t_num, t_den, strict) + 1):
                r = _min_run(p, t_num, t_den, strict)
                back = cell - p * j
                if r == 1:
                    lone[cell].append(back)
                elif r:  # the r - 1 cells before back agree with the r - 1 before cell
                    chained[cell].append((itemgetter(*range(back - (r - 1) * j, back, j)),
                                          itemgetter(*range(cell - (r - 1) * j, cell, j)), back))

    def forbidden(values: bytearray, limit: int) -> set[int]:
        cell = len(values)
        ban = {values[b] for b in lone[cell]} if r0 else set(range(limit))
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
