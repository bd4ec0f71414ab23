"""Avoiding repetitions in arithmetic progressions.

Words built from paperfolding sequences, exact repetition checkers for
subsequences along arithmetic progressions, exhaustive backtracking
searches for extremal words, and two-dimensional lattice labelings whose
lines inherit the avoidance properties.

Each submodule is imported the first time one of its names is read from the
package, so ``import apavoid`` itself loads none of them. A name is looked up
in its submodule on every read and never stored here, so a rebinding in the
submodule shows through the package at once.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "_backend": ("BACKEND",),
    "words": (
        "Word", "FoldingSequence", "InsufficientFoldingBits", "Morphism",
        "CARPI_MORPHISM", "apply_morphism", "iterate_morphism", "relabel",
        "complement", "reverse_word", "folding_bits_needed",
        "paperfolding_prefix", "carpi_word",
        "four_letter_squarefree", "ternary_overlapfree",
        "binary_large_squarefree", "present",
    ),
    "repetition": (
        "Progression", "Differences", "RepetitionReport", "smallest_period",
        "max_exponent", "find_repetition",
    ),
    "lemmas": (
        "find_spaced_repeat", "has_power_of_period", "square_periods",
        "subword_set", "paperfolding_subwords", "check_parity_separation",
        "lex_least_check",
    ),
    "search": (
        "AvoidanceProblem", "SearchResult", "UnavoidabilityVerdict",
        "backtrack_longest", "confirm_unavoidable",
    ),
    "lattice": (
        "Grid", "LineSpec", "GridSearchOutcome", "directions",
        "extract_line", "product_grid",
        "verify_grid", "grid_search", "export_ppm",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli"}

__all__ = ["__version__", *_HOME]


def _load(module: str):
    full = f"{__name__}.{module}"
    return sys.modules.get(full) or import_module(full)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is not None:
        return getattr(_load(module), name)
    if name in _SUBMODULES:
        return _load(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
