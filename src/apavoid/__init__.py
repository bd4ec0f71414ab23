"""Avoiding repetitions in arithmetic progressions.

Words built from paperfolding sequences, exact repetition checkers for
subsequences along arithmetic progressions, exhaustive backtracking
searches for extremal words, and two-dimensional lattice labelings whose
lines inherit the avoidance properties.
"""

from ._backend import BACKEND
from .lattice import (
    Grid,
    GridSearchOutcome,
    LineSpec,
    directions,
    enumerate_maximal_lines,
    export_ppm,
    extract_line,
    grid_search,
    product_grid,
    verify_grid,
)
from .repetition import (
    Differences,
    Progression,
    RepetitionReport,
    check_parity_separation,
    find_repetition,
    find_spaced_repeat,
    has_power_of_period,
    lex_least_check,
    max_exponent,
    paperfolding_subwords,
    saturated_paperfolding_subwords,
    smallest_period,
    square_periods,
    subword_set,
)
from .search import (
    AvoidanceProblem,
    SearchResult,
    UnavoidabilityVerdict,
    backtrack_longest,
    confirm_unavoidable,
)
from .words import (
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
    perturbed_prefix,
    relabel,
    reverse_word,
    ternary_overlapfree,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "__version__",
    # words
    "Word", "FoldingSequence", "InsufficientFoldingBits", "Morphism",
    "CARPI_MORPHISM", "apply_morphism", "iterate_morphism", "relabel",
    "complement", "reverse_word", "folding_bits_needed",
    "paperfolding_prefix", "perturbed_prefix", "carpi_word",
    "four_letter_squarefree", "ternary_overlapfree",
    "binary_large_squarefree", "present",
    # repetition
    "Progression", "Differences", "RepetitionReport", "smallest_period",
    "max_exponent", "find_repetition", "find_spaced_repeat",
    "has_power_of_period", "square_periods", "subword_set",
    "paperfolding_subwords",
    "saturated_paperfolding_subwords", "check_parity_separation",
    "lex_least_check",
    # search
    "AvoidanceProblem", "SearchResult", "UnavoidabilityVerdict",
    "backtrack_longest", "confirm_unavoidable",
    # lattice
    "Grid", "LineSpec", "GridSearchOutcome", "directions",
    "enumerate_maximal_lines", "extract_line", "product_grid",
    "verify_grid", "grid_search", "export_ppm",
]
