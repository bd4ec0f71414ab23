"""Two-dimensional words: products of one-dimensional ones, line extraction
and verification over finite regions, small-alphabet feasibility search,
and image export.

Directions are primitive vectors counted once per undirected line: (0,1)
plus every (dr, dc) with dr >= 1, |dc| <= the direction cap and
gcd(dr, |dc|) = 1. Every such vector has an odd component, which is what
lets product grids inherit cleanness from odd-difference progressions of
their factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import _backend
from .repetition import Differences, RepetitionReport, find_repetition
from .words import MAX_ALPHABET, Word, _CHARS


@dataclass(frozen=True)
class Grid:
    """Row-major rectangle of symbols; factors records a product alphabet."""

    rows: int
    cols: int
    cells: bytes
    alphabet_size: int
    factors: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", bytes(self.cells))
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid must have at least one row and one column")
        if len(self.cells) != self.rows * self.cols:
            raise ValueError("cell count does not match the declared shape")
        if not 1 <= self.alphabet_size <= MAX_ALPHABET:
            raise ValueError(f"alphabet size must be in 1..{MAX_ALPHABET}")
        if self.cells and max(self.cells) >= self.alphabet_size:
            raise ValueError("cell symbol out of range for alphabet")
        if self.factors is not None and self.factors[0] * self.factors[1] != self.alphabet_size:
            raise ValueError("factors do not multiply to the alphabet size")

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
            for col, c in enumerate(ln):
                sym = _CHARS.find(c)
                if sym < 0:
                    raise ValueError(f"bad cell character {c!r} in row {row}, column {col}; "
                                     f"cells are digits from {_CHARS!r}")
                cells.append(sym)
        return cls(rows, cols, bytes(cells), alphabet)


@dataclass(frozen=True)
class LineSpec:
    """A maximal straight run of cells: start, primitive step, cell count."""

    row: int
    col: int
    drow: int
    dcol: int
    count: int

    def __post_init__(self) -> None:
        if self.row < 0 or self.col < 0:
            raise ValueError("line start must be inside the grid")
        if self.drow == 0 and self.dcol == 0:
            raise ValueError("line direction cannot be zero")
        if math.gcd(abs(self.drow), abs(self.dcol)) != 1:
            raise ValueError("line direction must be primitive")
        if self.count < 1:
            raise ValueError("line must visit at least one cell")


def product_grid(u: Word, v: Word) -> Grid:
    """Pair word: cell (r, c) holds (u[r], v[c]) flattened as u[r]*k + v[c]."""
    if len(u) == 0 or len(v) == 0:
        raise ValueError("both component words must be nonempty")
    if u.alphabet_size != v.alphabet_size:
        raise ValueError("component words must share one alphabet")
    k = u.alphabet_size
    if k * k > MAX_ALPHABET:
        raise ValueError(f"flattened alphabet {k}x{k} exceeds {MAX_ALPHABET}")
    us, vs = u.symbols, v.symbols
    cells = bytearray(len(us) * len(vs))
    pos = 0
    for a in us:
        base = a * k
        for b in vs:
            cells[pos] = base + b
            pos += 1
    return Grid(len(us), len(vs), bytes(cells), k * k, factors=(k, k))


def directions(max_direction: int) -> list[tuple[int, int]]:
    """Primitive directions up to reversal, components bounded in magnitude."""
    if max_direction < 1:
        raise ValueError("direction cap must be at least 1")
    out = [(0, 1)]
    for dr in range(1, max_direction + 1):
        for dc in range(-max_direction, max_direction + 1):
            if math.gcd(dr, abs(dc)) == 1:
                out.append((dr, dc))
    return out


def enumerate_maximal_lines(rows: int, cols: int, max_direction: int) -> list[LineSpec]:
    """Every inextensible in-bounds segment of 2+ cells, one per undirected line.

    Heads are cells whose predecessor along the direction falls outside the
    region. Order: direction-major, then row-major among heads; this order
    is part of the verification contract.
    """
    specs: list[LineSpec] = []
    for dr, dc in directions(max_direction):
        for r in range(rows):
            for c in range(cols):
                pr, pc = r - dr, c - dc
                if 0 <= pr < rows and 0 <= pc < cols:
                    continue  # not a head
                count = 0
                rr, cc = r, c
                while 0 <= rr < rows and 0 <= cc < cols:
                    count += 1
                    rr += dr
                    cc += dc
                if count >= 2:
                    specs.append(LineSpec(r, c, dr, dc, count))
    return specs


def extract_line(g: Grid, spec: LineSpec) -> Word:
    out = bytearray(spec.count)
    r, c = spec.row, spec.col
    for t in range(spec.count):
        if not (0 <= r < g.rows and 0 <= c < g.cols):
            raise ValueError(f"line leaves the grid at step {t}: ({r}, {c})")
        out[t] = g.cells[r * g.cols + c]
        r += spec.drow
        c += spec.dcol
    return Word(bytes(out), g.alphabet_size)


def verify_grid(
    g: Grid,
    threshold,
    *,
    strict: bool = False,
    min_period: int = 1,
    max_direction: int = 8,
) -> tuple[LineSpec, RepetitionReport] | None:
    """First repetition on any maximal line, in enumeration order, or None.

    Lines are plain words here, so the scan runs at difference 1.
    """
    diff1 = Differences.exactly(1)
    for spec in enumerate_maximal_lines(g.rows, g.cols, max_direction):
        rep = find_repetition(extract_line(g, spec), threshold, strict=strict,
                              min_period=min_period, differences=diff1)
        if rep is not None:
            return spec, rep
    return None


@dataclass(frozen=True)
class GridSearchOutcome:
    status: str  # "satisfiable", "infeasible", or "budget_exhausted"
    side: int
    nodes: int
    witness: Grid | None = None


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

    Cells are assigned in row-major order, symbols ascending; after each
    assignment only line suffixes ending at that cell are rechecked. The
    default direction cap side-1 covers every segment that fits, so an
    infeasible verdict rules the region out entirely.
    """
    if alphabet_size < 1 or alphabet_size > MAX_ALPHABET:
        raise ValueError(f"alphabet size must be in 1..{MAX_ALPHABET}")
    if side < 1:
        raise ValueError("region side must be at least 1")
    t = threshold if isinstance(threshold, Fraction) else Fraction(threshold)
    if t < 1:
        raise ValueError("threshold must be at least 1")
    if max_direction is None:
        max_direction = max(1, side - 1)

    total = side * side
    # backward rays: for each cell, the in-bounds run ending there per
    # direction, in line order; all ray cells precede it row-major
    rays_at: list[list[tuple[int, ...]]] = [[] for _ in range(total)]
    for dr, dc in directions(max_direction):
        for r in range(side):
            for c in range(side):
                ray = []
                rr, cc = r, c
                while 0 <= rr < side and 0 <= cc < side:
                    ray.append(rr * side + cc)
                    rr -= dr
                    cc -= dc
                if len(ray) >= 2:
                    ray.reverse()
                    rays_at[r * side + c].append(tuple(ray))

    values = bytearray(total)
    next_sym = [0] * total
    t_num, t_den = t.numerator, t.denominator
    nodes = 0
    depth = 0
    while True:
        if depth == total:
            return GridSearchOutcome("satisfiable", side, nodes,
                                     Grid(side, side, bytes(values), alphabet_size))
        sym = next_sym[depth]
        if sym >= alphabet_size:
            next_sym[depth] = 0
            depth -= 1
            if depth < 0:
                return GridSearchOutcome("infeasible", side, nodes)
            next_sym[depth] += 1
            continue
        if nodes >= node_budget:
            return GridSearchOutcome("budget_exhausted", side, nodes)
        nodes += 1
        values[depth] = sym
        ok = True
        for ray in rays_at[depth]:
            if not _backend.clean_after_append(bytes(map(values.__getitem__, ray)),
                                               t_num, t_den, strict, min_period):
                ok = False
                break
        if ok:
            depth += 1
        else:
            next_sym[depth] += 1


# One readily distinguishable color per symbol, fixed so exported images
# are byte-identical everywhere.
DEFAULT_PALETTE: tuple[tuple[int, int, int], ...] = (
    (0, 0, 0), (230, 25, 75), (60, 180, 75), (255, 225, 25),
    (0, 130, 200), (245, 130, 48), (145, 30, 180), (70, 240, 240),
    (240, 50, 230), (210, 245, 60), (250, 190, 212), (0, 128, 128),
    (220, 190, 255), (170, 110, 40), (255, 250, 200), (128, 0, 0),
)


def export_ppm(g: Grid, path, palette=None) -> None:
    """Plain PPM (P3), one pixel per cell, rows top to bottom.

    Written in binary mode so the bytes do not depend on platform newline
    handling.
    """
    if palette is None:
        palette = DEFAULT_PALETTE
    if len(palette) < g.alphabet_size:
        raise ValueError(f"palette has {len(palette)} colors, need {g.alphabet_size}")
    chunks = [f"P3\n{g.cols} {g.rows}\n255\n"]
    for s in g.cells:
        r, gg, b = palette[s]
        chunks.append(f"{r} {gg} {b}\n")
    data = "".join(chunks).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(data)
