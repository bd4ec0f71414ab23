import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apavoid.cli import parse_diffs
from apavoid.lattice import Grid, GridSearchOutcome, LineSpec, grid_search, verify_grid
from apavoid.lemmas import (check_parity_separation, find_spaced_repeat, has_power_of_period,
                            lex_least_check, subword_set)
from apavoid.repetition import (Differences, Progression, RepetitionReport, find_repetition,
                                max_exponent)
from apavoid.search import (AvoidanceProblem, SearchResult, UnavoidabilityVerdict,
                            backtrack_longest, confirm_unavoidable)
from apavoid.words import (
    CARPI_MORPHISM,
    FoldingSequence,
    InsufficientFoldingBits,
    Morphism,
    Word,
    apply_morphism,
    binary_large_squarefree,
    carpi_word,
    complement,
    folding_bits_needed,
    four_letter_squarefree,
    iterate_morphism,
    paperfolding_prefix,
    present,
    relabel,
    reverse_word,
    ternary_overlapfree,
)
from oracles import pf_positional, pf_recursive

ORDINARY = FoldingSequence.ordinary()


# ---------------------------------------------------------------- golden values

def test_ordinary_prefix_16():
    assert present(paperfolding_prefix(ORDINARY, 16), "paperfolding") == "0010011000110110"


def test_perturbed_f2():
    assert paperfolding_prefix(ORDINARY, 7).to_text() == "0010011"
    assert paperfolding_prefix(FoldingSequence.parse("111"), 7).to_text() == "1101100"


def test_v_prefix_16():
    assert present(four_letter_squarefree(ORDINARY, 16), "v") == "2131243121342431"


def test_carpi_prefix_8():
    assert present(carpi_word(8), "carpi") == "51535173"


def test_coded_prefixes():
    assert ternary_overlapfree(ORDINARY, 12).to_text() == "110012001102"
    assert binary_large_squarefree(ORDINARY, 16).to_text() == "0101011000010110"


# ---------------------------------------------------------------- paperfolding

def test_prefix_matches_recursive_construction():
    rng = random.Random(414243)
    for _ in range(50):
        n = rng.randrange(0, 600)
        bits = tuple(rng.randrange(2) for _ in range(folding_bits_needed(n)))
        got = paperfolding_prefix(FoldingSequence(bits), n)
        assert list(got.symbols) == pf_recursive(list(bits), n)


def test_prefix_agrees_with_perturbed():
    rng = random.Random(99)
    lengths = random.Random(98)
    for k in range(0, 9):
        n = 2 ** (k + 1) - 1
        bits = tuple(rng.randrange(2) for _ in range(k + 1))
        folds = FoldingSequence(bits)
        expected = pf_positional(list(bits), n)
        assert list(paperfolding_prefix(folds, n).symbols) == expected
        m = lengths.randrange(0, n)
        assert list(paperfolding_prefix(folds, m).symbols) == expected[:m]
    ordinary = pf_positional([0] * 13, 4096)
    for n in range(4097):
        assert paperfolding_prefix(ORDINARY, n).symbols == bytes(ordinary[:n])


def test_prefix_consistency_across_lengths():
    w = paperfolding_prefix(ORDINARY, 2048)
    for n in (0, 1, 13, 512, 2047):
        assert paperfolding_prefix(ORDINARY, n) == w.prefix(n)


def test_bits_needed():
    assert [folding_bits_needed(n) for n in (0, 1, 2, 3, 4, 7, 8, 2047, 2048)] == \
        [0, 1, 2, 2, 3, 3, 4, 11, 12]


def test_insufficient_bits_raise():
    folds = FoldingSequence((0, 1))
    with pytest.raises(InsufficientFoldingBits):
        paperfolding_prefix(folds, 4)
    assert len(paperfolding_prefix(folds, 3)) == 3
    for n in (1, 2, 3, 4, 7, 8, 2047, 2048):
        k = folding_bits_needed(n)
        bits = [(i + 1) % 2 for i in range(k)]
        got = paperfolding_prefix(FoldingSequence(bits), n)
        assert list(got.symbols) == pf_positional(bits, n)
        with pytest.raises(InsufficientFoldingBits,
                           match=rf"^need {k} folding instructions, have {k - 1}$"):
            paperfolding_prefix(FoldingSequence(bits[:-1]), n)


def test_parse_forms():
    assert FoldingSequence.parse("ordinary").infinite_zeros
    assert FoldingSequence.parse("0110").bits == (0, 1, 1, 0)
    with pytest.raises(ValueError):
        FoldingSequence.parse("012")


def test_folding_bits_from_a_list_are_a_tuple():
    folds = FoldingSequence([0, 1])
    assert folds.bits == (0, 1)
    assert folds == FoldingSequence((0, 1)) and hash(folds) == hash(FoldingSequence((0, 1)))


def test_ordinary_supplies_any_length():
    assert len(paperfolding_prefix(ORDINARY, 5000)) == 5000


# ---------------------------------------------------------------- Word basics

def test_word_roundtrip_and_validation():
    w = Word.from_text("0123456789abcdef")
    assert w.alphabet_size == 16 and w.to_text() == "0123456789abcdef"
    with pytest.raises(ValueError):
        Word(b"\x03", 3)
    with pytest.raises(ValueError):
        Word(b"", 17)


def test_word_concat_prefix_index():
    u = Word.from_text("01")
    v = Word(b"\x00\x02", 3)
    w = u + v
    assert w.alphabet_size == 3 and list(w) == [0, 1, 0, 2]
    assert w.prefix(3).symbols == b"\x00\x01\x00"
    assert w[-1] == 2


def test_negative_lengths_are_refused_by_name():
    seed = Word(b"\x05", CARPI_MORPHISM.alphabet_size)
    calls = (
        (-1, lambda: Word.from_text("0120").prefix(-1)),
        (-1, lambda: paperfolding_prefix(ORDINARY, -1)),
        (-1, lambda: carpi_word(-1)),
        (-1, lambda: ternary_overlapfree(ORDINARY, -1)),
        (-3, lambda: binary_large_squarefree(ORDINARY, -3)),
        (-2, lambda: iterate_morphism(CARPI_MORPHISM, seed, -2)),
    )
    for n, call in calls:
        with pytest.raises(ValueError, match=rf" {n}\b"):
            call()


@pytest.mark.parametrize("call, match", [
    (lambda: Word(b"", 17), r"alphabet size must be in 1\.\.16, not 17$"),
    (lambda: Word(b"\0\3", 3), r"symbol 3 out of range for alphabet size 3$"),
    (lambda: Word.from_text("01x2"), r"bad character 'x' at index 2;"),
    (lambda: Grid(0, 2, b"", 2), r"at least one row and one column, not 0x2$"),
    (lambda: Grid(2, 2, b"\0\0\0", 2), r"3 cells do not fill the declared 2x2 shape$"),
    (lambda: Grid(1, 1, b"\0", 17), r"alphabet size must be in 1\.\.16, not 17$"),
    (lambda: Grid(1, 2, b"\0\5", 4), r"cell symbol 5 out of range for alphabet size 4$"),
    (lambda: Differences.exactly(0), r"difference of at least 1, not 0$"),
    (lambda: Differences.odd(-2), r"difference cap must be at least 1, not -2$"),
    (lambda: Progression(-1, 1, 1), r"start must be nonnegative, not -1$"),
    (lambda: Progression(0, 0, 1), r"difference must be at least 1, not 0$"),
    (lambda: Progression(0, 1, -2), r"count must be nonnegative, not -2$"),
    (lambda: FoldingSequence((0, 2)), r"must be 0 or 1, not 2$"),
    (lambda: FoldingSequence.parse("012"), r"0/1 string, not '012'$"),
    (lambda: Morphism({}, 2), r"a morphism needs at least one image$"),
    (lambda: Morphism({0: ()}, 2), r"empty image for symbol 0$"),
    (lambda: Morphism({0: (0, 2)}, 2), r"image of 0 leaves the alphabet$"),
    (lambda: Morphism({0: (0, 2)}, 2),
     r"^alphabet size 2 has no symbol 2, so the image of 0 leaves the alphabet$"),
    (lambda: Morphism({1: (-1,)}, 4), r"size 4 has no symbol -1, so the image of 1 leaves"),
    (lambda: Morphism({0: (0, 1.5)}, 2), r"^the image of 0 holds 1\.5, not an integer symbol$"),
    (lambda: Morphism({1: ("1",)}, 2), r"^the image of 1 holds '1', not an integer symbol$"),
    (lambda: Morphism({0: (0, 20)}, 21), r"alphabet size must be in 1\.\.16, not 21$"),
    (lambda: Morphism({0: (0,)}, 0), r"alphabet size must be in 1\.\.16, not 0$"),
    (lambda: iterate_morphism(Morphism({0: (0, 1)}, 2), Word(b"\1", 2), 4),
     r"no image for symbol 1$"),
    (lambda: iterate_morphism(Morphism({0: (0, 0), 1: (0,)}, 2), Word(b"\0\1", 2), 5),
     r"iterates do not extend each other$"),
    (lambda: present(Word(b"\3", 4), "paperfolding"), r"fit the paperfolding alphabet$"),
    (lambda: present(Word(b"", 2), "zzz"), r"no spelling named 'zzz'$"),
    (lambda: relabel(Word(b"", 2), {}), r"relabeling \{\} maps no symbol$"),
    (lambda: relabel(Word(b"\0\1", 2), {0: -1, 1: 0}), r"sends 0 to -1, outside 0\.\.15$"),
    (lambda: relabel(Word(b"\0\1", 2), {0: 300, 1: 0}), r"sends 0 to 300, outside 0\.\.15$"),
    (lambda: relabel(Word(b"\0\1", 2), {0: 20, 1: 0}), r"sends 0 to 20, outside 0\.\.15$"),
    (lambda: relabel(Word(b"\0", 2), {0: 1.5}), r"sends 0 to 1\.5, not an integer symbol$"),
    (lambda: relabel(Word(b"\0", 2), {0: "1"}), r"sends 0 to '1', not an integer symbol$"),
    (lambda: find_spaced_repeat(Word(b"\0", 2), 0), r"block length must be at least 1, not 0$"),
    (lambda: has_power_of_period(Word(b"\0", 2), 0, 2), r"period must be at least 1, not 0$"),
    (lambda: has_power_of_period(Word(b"\0", 2), 1, 1), r"power must be at least 2, not 1$"),
    (lambda: check_parity_separation(Word(b"\0", 2), 3), r"block length at least 7, not 3$"),
    (lambda: lex_least_check(ORDINARY, 3, 0), r"need at least one shift, not 0$"),
    (lambda: lex_least_check(ORDINARY, 0, 3), r"factor length must be at least 1, not 0$"),
    (lambda: carpi_word(-1), r"length must be nonnegative, not -1$"),
    (lambda: ternary_overlapfree(ORDINARY, -5), r"length must be nonnegative, not -5$"),
    (lambda: binary_large_squarefree(ORDINARY, -7), r"length must be nonnegative, not -7$"),
    (lambda: max_exponent(Word(b"", 2)), r"the empty word has no exponent$"),
    (lambda: parse_diffs("0"), r"--diffs difference must be at least 1, not 0$"),
    # counts and sizes are integers; a float would run a wrong or endless walk
    (lambda: Word(b"\0", 1.5), r"alphabet size must be an integer, not 1\.5$"),
    (lambda: Grid(1, 1, b"\0", 1.5), r"^alphabet size must be an integer, not 1\.5$"),
    (lambda: Morphism({0: (0,)}, 1.5), r"size must be an integer, not 1\.5$"),
    (lambda: grid_search(2.5, 2, 2), r"alphabet size must be an integer, not 2\.5$"),
    (lambda: confirm_unavoidable(2.5, 3, Differences.odd()),
     r"^alphabet size must be an integer, not 2\.5$"),
    (lambda: AvoidanceProblem(4, 2, Differences.odd(), length_cap=12.5),
     r"length cap must be an integer, not 12\.5$"),
    (lambda: backtrack_longest(AvoidanceProblem(4, 2, Differences.odd()), node_budget=100.5),
     r"node budget must be an integer, not 100\.5$"),
    (lambda: grid_search(2, 2, 2, node_budget=1e3),
     r"node budget must be an integer, not 1000\.0$"),
    (lambda: Differences.exactly(2.5), r"the exact selector needs an integer, not 2\.5$"),
    (lambda: Differences.odd(2.5), r"the odd selector needs an integer, not 2\.5$"),
    (lambda: find_repetition(Word(b"\0", 2), 2, min_period=1.5),
     r"min_period must be an integer, not 1\.5$"),
    (lambda: verify_grid(Grid(1, 1, b"\0", 2), 2, max_direction=2.5),
     r"direction cap must be an integer, not 2\.5$"),
    (lambda: grid_search(2, 2, 2.5), r"region side must be an integer, not 2\.5$"),
    (lambda: carpi_word(2.5), r"^length must be an integer, not 2\.5$"),
    (lambda: Progression(0, 1.5, 2), r"^difference must be an integer, not 1\.5$"),
    (lambda: has_power_of_period(Word(b"\0", 2), 1.5, 2), r"^period must be an integer, not 1\.5$"),
    (lambda: Grid(1.0, 1, b"\0", 2), r"^row count must be an integer, not 1\.0$"),
    (lambda: Grid(1, 1.0, b"\0", 2), r"^column count must be an integer, not 1\.0$"),
    (lambda: LineSpec(0, 0, 1, 0, 1.5), r"^line cell count must be an integer, not 1\.5$"),
    (lambda: LineSpec(0, 0, 1.0, 0, 2), r"^line drow must be an integer, not 1\.0$"),
    (lambda: Word(b"\0\1", 2).prefix(1.5), r"^prefix length must be an integer, not 1\.5$"),
    (lambda: subword_set(Word(b"\0\1\0", 2), 2.5),
     r"^block length must be an integer, not 2\.5$"),
    (lambda: check_parity_separation(Word(b"\0" * 9, 2), 7.5),
     r"^block length must be an integer, not 7\.5$"),
    (lambda: iterate_morphism(CARPI_MORPHISM, Word(b"\5", 8), 10.5),
     r"^length must be an integer, not 10\.5$"),
    (lambda: lex_least_check(ORDINARY, 8, 2.5), r"^shift count must be an integer, not 2\.5$"),
    # a differences selector given by its CLI spelling, and a threshold that is no number
    (lambda: find_repetition(Word(b"\0\0", 2), 2, differences="odd"),
     r"^differences must be a Differences, such as Differences\.odd\(\), not 'odd'$"),
    (lambda: AvoidanceProblem(2, 3, "odd"), r"^differences must be a Differences, .* not 'odd'$"),
    (lambda: confirm_unavoidable(2, 3, "odd"), r"^differences must be a Differences, .* not 'odd'$"),
    (lambda: find_repetition(Word(b"\0\0", 2), None),
     r"^threshold must be a rational number, not None$"),
    (lambda: find_repetition(Word(b"\0\0", 2), "1/0"),
     r"^threshold must be a rational number, not '1/0'$"),
    (lambda: verify_grid(Grid(1, 1, b"\0", 2), None),
     r"^threshold must be a rational number, not None$"),
    (lambda: grid_search(2, None, 2), r"^threshold must be a rational number, not None$"),
    # symbols given as text or outside a byte, and factors that are no pair
    (lambda: Word("0101", 2), r"^symbols must be bytes or integers, not the text '0101'$"),
    (lambda: Grid(1, 2, "01", 2),
     r"^cell symbols must be bytes or integers, not the text '01'$"),
    (lambda: Word([0, 1, 300], 2), r"^symbol 300 out of range for alphabet size 2$"),
    (lambda: Word([0, -1], 2), r"^symbol -1 out of range for alphabet size 2$"),
    # a bare integer, which bytes() would read as a count, and a symbol that is no integer
    (lambda: Word(5, 2), r"^symbols must be bytes or a sequence of integers, not the integer 5$"),
    (lambda: Grid(1, 3, 3, 2),
     r"^cell symbols must be bytes or a sequence of integers, not the integer 3$"),
    (lambda: Word([0, 1.5], 2), r"^symbol 1\.5 at index 1 must be an integer$"),
    (lambda: Grid(1, 2, [0, 1.5], 2), r"^cell symbol 1\.5 at index 1 must be an integer$"),
    (lambda: Grid(2, 2, bytes(4), 4, factors=(2,)),
     r"^factors must be a pair of sizes, not \(2,\)$"),
    # folding instructions that equal 0 or 1 without being integers, and no sequence at all
    (lambda: FoldingSequence((0, 1.0)), r"^folding instructions must be 0 or 1, not 1\.0$"),
    (lambda: FoldingSequence((True, 0.0)), r"^folding instructions must be 0 or 1, not 0\.0$"),
    (lambda: FoldingSequence(5), r"^folding instructions must be a sequence of 0s and 1s, not 5$"),
    # a strict flag that is no bool, which would be read for its truthiness
    (lambda: grid_search(3, 2, 2, strict="no"), r"^strict must be True or False, not 'no'$"),
    (lambda: find_repetition(Word(b"\0\0", 2), 2, strict=[0]),
     r"^strict must be True or False, not \[0\]$"),
    (lambda: verify_grid(Grid(1, 1, b"\0", 2), 2, strict=1),
     r"^strict must be True or False, not 1$"),
    (lambda: AvoidanceProblem(2, 3, Differences.odd(), strict=None),
     r"^strict must be True or False, not None$"),
    (lambda: confirm_unavoidable(2, 3, Differences.odd(), strict="yes"),
     r"^strict must be True or False, not 'yes'$"),
])
def test_errors_name_the_bad_value(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_complement_and_reverse():
    w = Word.from_text("0010")
    assert complement(w).to_text() == "1101"
    assert reverse_word(w).to_text() == "0100"
    with pytest.raises(ValueError):
        complement(Word.from_text("012"))


@given(st.lists(st.integers(0, 1), max_size=64))
def test_complement_involution(sym):
    w = Word(bytes(sym), 2)
    assert complement(complement(w)) == w
    assert reverse_word(reverse_word(w)) == w


# ---------------------------------------------------------------- morphisms

def test_apply_morphism_golden():
    m = CARPI_MORPHISM
    assert apply_morphism(m, Word(bytes([5]), 8)).symbols == bytes([5, 1])
    with pytest.raises(ValueError):
        apply_morphism(m, Word(bytes([2]), 8))


def test_iterate_morphism_identity_seed():
    ident = Morphism({5: (5,)}, 8)
    seed = Word(bytes([5]), 8)
    assert iterate_morphism(ident, seed, 1) == seed
    with pytest.raises(ValueError):
        iterate_morphism(ident, seed, 2)  # never grows


def test_iterate_morphism_requires_prolongable_seed():
    m = Morphism({0: (1, 0), 1: (0,)}, 2)
    with pytest.raises(ValueError):
        iterate_morphism(m, Word(b"\x00", 2), 4)
    with pytest.raises(ValueError):
        iterate_morphism(m, Word(b"", 2), 1)


def test_carpi_morphism_growth():
    w = carpi_word(100)
    assert len(w) == 100
    assert carpi_word(33).symbols == w.symbols[:33]


def test_carpi_is_one_v():
    v = four_letter_squarefree(ORDINARY, 2047)
    assert carpi_word(2048).symbols == b"\x00" + v.symbols


def test_relabel():
    w = Word.from_text("0010")
    assert relabel(w, {0: 1, 1: 4}).to_text() == "1141"
    assert relabel(Word(b"", 2), {0: 5}).symbols == b""
    with pytest.raises(ValueError):
        relabel(w, {0: 7})


# ---------------------------------------------------------------- derived words

def test_v_word_residue_pattern():
    # the ordinary word, then perturbed folds: the paper's uncountable family
    rng = random.Random(511)
    cases = [(ORDINARY, 4096)] + [
        (FoldingSequence(tuple(rng.randrange(2) for _ in range(9))), 511) for _ in range(10)]
    odd = Differences.odd()
    for folds, n in cases:
        v = four_letter_squarefree(folds, n)
        f = paperfolding_prefix(folds, n)
        for i in range(0, n, 4):
            assert v[i] == 1  # printed symbol 2
        for i in range(2, n, 4):
            assert v[i] == 2  # printed symbol 3
        for i in range(1, n, 2):
            assert v[i] == (0 if f[i] == 0 else 3)  # printed 1/4 copies f
        if n == 511:
            assert find_repetition(v, 2, differences=odd) is None, folds
            t = ternary_overlapfree(folds, n)
            assert find_repetition(t, 2, strict=True, differences=odd) is None, folds


def test_v_odd_positions_see_disjoint_alphabets():
    v = four_letter_squarefree(ORDINARY, 1024)
    evens = {v[i] for i in range(0, 1024, 2)}
    odds = {v[i] for i in range(1, 1024, 2)}
    assert evens == {1, 2} and odds == {0, 3}


def test_ternary_coding_tracks_v():
    v = four_letter_squarefree(ORDINARY, 64)
    t = ternary_overlapfree(ORDINARY, 128)
    pairs = {0: (0, 0), 1: (1, 1), 2: (1, 2), 3: (0, 2)}
    for i in range(64):
        assert (t[2 * i], t[2 * i + 1]) == pairs[v[i]]


def test_block_coding_tracks_v():
    v = four_letter_squarefree(ORDINARY, 32)
    b = binary_large_squarefree(ORDINARY, 128)
    blocks = {0: (0, 1, 1, 0), 1: (0, 1, 0, 1), 2: (0, 0, 0, 1), 3: (0, 1, 1, 1)}
    for i in range(32):
        assert tuple(b[4 * i + t] for t in range(4)) == blocks[v[i]]


def test_odd_length_codings():
    assert len(ternary_overlapfree(ORDINARY, 33)) == 33
    assert len(binary_large_squarefree(ORDINARY, 35)) == 35


@settings(max_examples=40)
@given(st.integers(0, 2000))
def test_present_roundtrip(n):
    w = four_letter_squarefree(ORDINARY, n)
    text = present(w, "v")
    assert len(text) == n and set(text) <= set("1234")


def _value_types():
    """One value of each public value type, built afresh on each call, with
    its field names in order."""
    return (
        (Word(b"\0\1", 2), ("symbols", "alphabet_size")),
        (FoldingSequence.ordinary(), ("bits", "infinite_zeros")),
        (Differences.odd(), ("kind", "value")),
        (Progression(1, 3, 4), ("start", "difference", "count")),
        (RepetitionReport(Progression(0, 1, 2), 0, 1, Fraction(2)),
         ("progression", "offset", "period", "exponent")),
        (AvoidanceProblem(2, 2, Differences.odd()),
         ("alphabet_size", "threshold", "differences", "strict", "min_period", "length_cap")),
        (SearchResult(2, (Word(b"\0\1", 2),), 6, False),
         ("max_length", "maximal_words", "nodes_visited", "canonicalized", "capped",
          "budget_exhausted")),
        (UnavoidabilityVerdict("finite", 2, 10), ("status", "max_length", "nodes")),
        (Grid(1, 2, b"\0\1", 4, factors=(2, 2)),
         ("rows", "cols", "cells", "alphabet_size", "factors")),
        (LineSpec(0, 0, 0, 1, 2), ("row", "col", "drow", "dcol", "count")),
        (GridSearchOutcome("satisfiable", 1, 1, Grid(1, 1, b"\0", 1)),
         ("status", "side", "nodes", "witness")),
        (Morphism({0: (0, 1), 1: (1,)}, 2), ("images", "alphabet_size")),
    )


def test_value_types_keep_no_instance_dict():
    # searches hold many of these; with slots a Word object takes 48 bytes, not 89.
    # The types are plain classes on one slotted base, so this also pins what
    # frozen dataclasses gave them, field by field in order
    for (value, fields), (same, _) in zip(_value_types(), _value_types()):
        cls = type(value)
        name = cls.__name__
        assert not hasattr(value, "__dict__"), name
        assert value is not same and value == same and not value != same, name
        assert cls.__match_args__ == fields, name
        match value:
            case cls(first, second):
                assert (first, second) == (getattr(value, fields[0]), getattr(value, fields[1]))
            case _:
                pytest.fail(f"{name} matches no positional pattern")
        for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert type(copied) is cls and copied == value, name
        if cls is Morphism:  # mutable, as a plain dataclass was, so unhashable
            assert cls.__hash__ is None
            same.alphabet_size = 3
            assert value != same
            continue
        assert hash(value) == hash(same), name
        for field in fields:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
                setattr(value, field, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
                delattr(value, field)
        assert value == same, name
    # equal fields in two types are still two values
    assert Progression(1, 3, 4) != UnavoidabilityVerdict(1, 3, 4)
    values = [value for value, _ in _value_types()]
    assert all((a == b) == (i == j) for i, a in enumerate(values) for j, b in enumerate(values))
    assert repr(Progression(start=1, difference=3, count=4)) == \
        "Progression(start=1, difference=3, count=4)"
    assert repr(Differences(kind="odd", value=None)) == "Differences(kind='odd', value=None)"
    assert repr(Word(symbols=b"\0\1", alphabet_size=2)) == \
        "Word(symbols=b'\\x00\\x01', alphabet_size=2)"
