"""Finite words over small alphabets and the paperfolding constructions.

Symbols are stored 0-based as bytes no matter how a word is customarily
spelled; :func:`present` renders the usual spellings (the four-letter
squarefree word over 1234, the Carpi word over odd digits). Every
construction takes its folding instructions explicitly, so the ordinary
paperfolding word and any perturbed variant share one code path.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from operator import attrgetter

MAX_ALPHABET = 16
_CHARS = "0123456789abcdef"
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


def _check_integer(value: int, what: str, least: int | None = None,
                   most: int | None = None) -> None:
    """Refuse, naming it, a value that is not an integer, is a bool, is below
    least, or is above most; a bound left as None is not checked."""
    if not isinstance(value, int) or isinstance(value, bool):  # True would pass as 1
        raise ValueError(f"{what} must be an integer, not {value!r}")
    if most is not None and not least <= value <= most:
        raise ValueError(f"{what} must be in {least}..{most}, not {value}")
    if least is not None and value < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise ValueError(f"{what} must be {bound}, not {value}")


def _check_alphabet_size(k: int) -> None:
    _check_integer(k, "alphabet size", 1, MAX_ALPHABET)


def _symbol_bytes(value, what: str, alphabet_size: int) -> bytes:
    """bytes(value), refusing by value text, a bare integer (which bytes()
    reads as a count) and any symbol at or above alphabet_size; a sequence
    is read once, so that a symbol bytes() refuses without naming, one that
    is no integer or is outside 0..255, can be named."""
    if isinstance(value, str):
        raise ValueError(f"{what}s must be bytes or integers, not the text {value!r}")
    if isinstance(value, int):
        raise ValueError(f"{what}s must be bytes or a sequence of integers, "
                         f"not the integer {value!r}")
    if not isinstance(value, (bytes, bytearray, memoryview)):
        value = tuple(value)
        for i, x in enumerate(value):
            if not isinstance(x, int):
                raise ValueError(f"{what} {x!r} at index {i} must be an integer")
            if not 0 <= x < 256:
                raise ValueError(f"{what} {x} out of range for alphabet size {alphabet_size}")
    s = bytes(value)
    if s and max(s) >= alphabet_size:
        raise ValueError(f"{what} {max(s)} out of range for alphabet size {alphabet_size}")
    return s


class InsufficientFoldingBits(ValueError):
    """Raised when a construction needs more folding instructions than given."""


_set = object.__setattr__  # the one way to fill a field of a _Value


class _Value:
    """Base of the package's value types: fields are the class's ``__slots__``,
    filled by its ``__init__`` through ``_set`` and fixed from then on.

    Equality, hash, repr, ``__match_args__`` and pickling read the fields in
    slot order, as a frozen dataclass's would. Pickling and copying go
    through ``__reduce__``, so a copy is built by ``__init__`` and checked
    again.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls.__slots__
        cls._fields = attrgetter(*cls.__slots__)  # a tuple, given two or more fields

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._fields(self)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Word(_Value):
    """An immutable word; symbols are ints in ``range(alphabet_size)``."""

    __slots__ = ("symbols", "alphabet_size")

    def __init__(self, symbols: bytes, alphabet_size: int) -> None:
        _check_alphabet_size(alphabet_size)
        _set(self, "symbols", _symbol_bytes(symbols, "symbol", alphabet_size))
        _set(self, "alphabet_size", alphabet_size)

    @classmethod
    def from_text(cls, text: str, alphabet_size: int | None = None) -> "Word":
        """Parse one digit per symbol, 0-9 then a-f for alphabets past ten."""
        try:
            symbols = bytes(_CHARS.index(c) for c in text)
        except ValueError:
            i = next(i for i, c in enumerate(text) if c not in _CHARS)
            raise ValueError(f"bad character {text[i]!r} at index {i}; "
                             f"word text may only contain {_CHARS!r}") from None
        if alphabet_size is None:
            alphabet_size = max(symbols) + 1 if symbols else 1
        return cls(symbols, alphabet_size)

    def to_text(self) -> str:
        return "".join(_CHARS[s] for s in self.symbols)

    def prefix(self, n: int) -> "Word":
        _check_integer(n, "prefix length", 0, len(self.symbols))
        return Word(self.symbols[:n], self.alphabet_size)

    def __len__(self) -> int:
        return len(self.symbols)

    def __getitem__(self, i: int) -> int:
        return self.symbols[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __add__(self, other: "Word") -> "Word":
        return Word(self.symbols + other.symbols, max(self.alphabet_size, other.alphabet_size))

    def __str__(self) -> str:
        return self.to_text()


def complement(w: Word) -> Word:
    """Swap 0 and 1. Defined for binary words only."""
    if w.alphabet_size != 2:
        raise ValueError("complement is only defined over a binary alphabet")
    return Word(bytes(1 - s for s in w.symbols), 2)


def reverse_word(w: Word) -> Word:
    return Word(w.symbols[::-1], w.alphabet_size)


class FoldingSequence(_Value):
    """A stream of folding instructions, one bit per fold.

    ``ordinary()`` is the all-zero stream of unbounded length. A parsed
    finite stream knows exactly how many instructions it holds and refuses
    constructions that would read past the end.
    """

    __slots__ = ("bits", "infinite_zeros")

    def __init__(self, bits: tuple[int, ...] = (), infinite_zeros: bool = False) -> None:
        try:
            bits = tuple(bits)
        except TypeError:
            raise ValueError(f"folding instructions must be a sequence of 0s and 1s, "
                             f"not {bits!r}") from None
        for b in bits:
            # 1.0 == 1, but a float instruction cannot be a byte of the word
            if not isinstance(b, int) or b not in (0, 1):
                raise ValueError(f"folding instructions must be 0 or 1, not {b!r}")
        if not isinstance(infinite_zeros, bool):  # any other value would be read for its truthiness
            raise ValueError(f"infinite_zeros must be True or False, not {infinite_zeros!r}")
        _set(self, "bits", bits)
        _set(self, "infinite_zeros", infinite_zeros)

    @classmethod
    def ordinary(cls) -> "FoldingSequence":
        return cls((), True)

    @classmethod
    def parse(cls, text: str) -> "FoldingSequence":
        if text == "ordinary":
            return cls.ordinary()
        if not text or set(text) - {"0", "1"}:
            raise ValueError(f"folding instructions must be 'ordinary' or a 0/1 string, "
                             f"not {text!r}")
        return cls(tuple(int(c) for c in text))

    def require(self, count: int) -> None:
        if not self.infinite_zeros and len(self.bits) < count:
            raise InsufficientFoldingBits(
                f"need {count} folding instructions, have {len(self.bits)}"
            )


def folding_bits_needed(n: int) -> int:
    """Instructions consumed by a length-``n`` paperfolding prefix."""
    return n.bit_length()


def paperfolding_prefix(folds: FoldingSequence, n: int) -> Word:
    """First ``n`` letters of the paperfolding word with the given instructions.

    Built by unfolding: F(0) is the first instruction g_0 and
    F(i+1) = F(i), g_(i+1), F(i) reversed and complemented, so F(i) has
    2**(i+1) - 1 letters and ``folding_bits_needed(n)`` unfoldings cover
    ``n``. Letter by letter, writing p + 1 = 2**e * (2q + 1), position p
    reads g_e XOR (q mod 2). The tests hold this builder to both forms.
    With all-zero instructions it starts 0010011000110110.
    """
    _check_integer(n, "length", 0)
    k = folding_bits_needed(n)
    folds.require(k)
    s = b""
    for bit in (folds.bits + (0,) * k)[:k]:  # only an ordinary stream can run out here
        s = s + bytes((bit,)) + s[::-1].translate(_FLIP)
    return Word(s[:n], 2)


class Morphism(_Value):
    """A substitution sending each symbol to a fixed image word.

    ``alphabet_size`` bounds the output symbols; the domain is just the
    key set, so codings between different alphabets are morphisms too.
    Unlike the other value types its fields can be reassigned, so it has
    no hash.
    """

    __slots__ = ("images", "alphabet_size")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, images: Mapping[int, tuple[int, ...]], alphabet_size: int) -> None:
        self.images = images = {s: tuple(img) for s, img in images.items()}
        self.alphabet_size = alphabet_size
        if not images:
            raise ValueError("a morphism needs at least one image")
        _check_alphabet_size(alphabet_size)
        for s, img in images.items():
            if not img:
                raise ValueError(f"empty image for symbol {s}")
            for v in img:
                if not isinstance(v, int):
                    raise ValueError(f"the image of {s} holds {v!r}, not an integer symbol")
                if not 0 <= v < alphabet_size:
                    raise ValueError(f"alphabet size {alphabet_size} has no symbol {v}, "
                                     f"so the image of {s} leaves the alphabet")


def apply_morphism(m: Morphism, w: Word) -> Word:
    try:
        out = b"".join(bytes(m.images[s]) for s in w.symbols)
    except KeyError as exc:
        raise ValueError(f"no image for symbol {exc.args[0]}") from None
    return Word(out, m.alphabet_size)


def iterate_morphism(m: Morphism, seed: Word, min_len: int) -> Word:
    """Fixed-point prefix: apply ``m`` to ``seed`` until length ``min_len``.

    Requires the image of the seed's first symbol to start with that symbol
    (otherwise the iterates do not extend each other). Each iterate must
    extend the previous one and strictly grow whenever more length is needed.
    """
    _check_integer(min_len, "length", 0)
    if len(seed) == 0:
        raise ValueError("seed must be nonempty")
    first = seed.symbols[0]
    if first not in m.images:
        raise ValueError(f"no image for symbol {first}")
    if m.images[first][0] != first:
        raise ValueError("seed must begin its own image")
    cur = seed
    while len(cur) < min_len:
        nxt = apply_morphism(m, cur)
        if len(nxt) == len(cur):
            raise ValueError("morphism does not grow from this seed")
        if nxt.symbols[: len(cur)] != cur.symbols:
            raise ValueError("iterates do not extend each other")
        cur = nxt
    return cur.prefix(min_len)


def relabel(w: Word, mapping: Mapping[int, int]) -> Word:
    if not mapping:
        raise ValueError("relabeling {} maps no symbol")
    for s, t in mapping.items():
        if not isinstance(t, int):
            raise ValueError(f"relabeling sends {s} to {t!r}, not an integer symbol")
        if not 0 <= t < MAX_ALPHABET:
            raise ValueError(f"relabeling sends {s} to {t}, outside 0..{MAX_ALPHABET - 1}")
    try:
        symbols = bytes(mapping[s] for s in w.symbols)
    except KeyError as exc:
        raise ValueError(f"no relabeling for symbol {exc.args[0]}") from None
    return Word(symbols, max(mapping.values()) + 1)


# The Carpi substitution in its customary odd-digit spelling. Iterated from
# seed 5 it opens 51535173; renaming 5,1,3,7 to 1,2,3,4 turns the tail after
# the first letter into the four-letter squarefree word below.
CARPI_MORPHISM = Morphism({1: (5, 3), 3: (7, 3), 5: (5, 1), 7: (7, 1)}, 8)
_CARPI_TO_INTERNAL = {5: 0, 1: 1, 3: 2, 7: 3}

# Letterwise codings, both over 0-based symbols.
TERNARY_CODING = Morphism({0: (0, 0), 1: (1, 1), 2: (1, 2), 3: (0, 2)}, 3)
BLOCK_CODING = Morphism({0: (0, 1, 1, 0), 1: (0, 1, 0, 1), 2: (0, 0, 0, 1), 3: (0, 1, 1, 1)}, 2)


def carpi_word(n: int) -> Word:
    """Length-``n`` prefix of the Carpi fixed point, 0-based symbols."""
    _check_integer(n, "length", 0)
    seed = Word(bytes([5]), CARPI_MORPHISM.alphabet_size)
    return relabel(iterate_morphism(CARPI_MORPHISM, seed, n), _CARPI_TO_INTERNAL)


def four_letter_squarefree(folds: FoldingSequence, n: int) -> Word:
    """The four-letter companion of the paperfolding word, 0-based.

    Odd positions copy the paperfolding prefix f, spelled 0 and 3; even
    positions are stamped with the alternating pattern 1, 2 (4n gets 1,
    4n+2 gets 2). With ordinary instructions the first sixteen letters
    spell 2131243121342431 in 1234 notation.
    """
    v = bytearray(paperfolding_prefix(folds, n).symbols.replace(b"\1", b"\3"))
    v[::2] = (b"\1\2" * n)[: (n + 1) // 2]
    return Word(bytes(v), 4)


def ternary_overlapfree(folds: FoldingSequence, n: int) -> Word:
    """Letterwise coding of the four-letter word into three symbols."""
    _check_integer(n, "length", 0)
    v = four_letter_squarefree(folds, (n + 1) // 2)
    return apply_morphism(TERNARY_CODING, v).prefix(n)


def binary_large_squarefree(folds: FoldingSequence, n: int) -> Word:
    """Block coding of the four-letter word into four-bit chunks."""
    _check_integer(n, "length", 0)
    v = four_letter_squarefree(folds, (n + 3) // 4)
    return apply_morphism(BLOCK_CODING, v).prefix(n)


# Customary spellings for the constructions above, keyed by CLI name.
PRESENTATIONS = {
    "paperfolding": "01",
    "v": "1234",
    "carpi": "5137",
    "overlap3": "012",
    "bigsq2": "01",
}


def present(w: Word, name: str) -> str:
    """Render ``w`` in the customary spelling registered under ``name``."""
    if name not in PRESENTATIONS:
        raise ValueError(f"no spelling named {name!r}")
    table = PRESENTATIONS[name]
    if w.symbols and max(w.symbols) >= len(table):
        raise ValueError(f"word does not fit the {name} alphabet")
    return "".join(table[s] for s in w.symbols)
