"""Deterministic course difficulty estimation from outcome rubrics and grade history.

Each public name resolves on first access (PEP 562): ``import course_difficulty``
loads none of the submodules, and ``course_difficulty.compare``, say, imports
``validation`` the first time it is read. README, "Start-up", gives why.
"""

import importlib

# each public name -> the submodule that defines it
_HOMES = {
    name: module
    for module, names in {
        "engine": ("BloomDifficulty", "CombinePolicy", "Course", "GenerationRecord", "GradeHistory", "GradeKind",
                   "bloom_difficulty", "class_average_to_di", "course_raw_total", "final_difficulty",
                   "grade_difficulty"),
        "errors": ("CourseDifficultyError", "DataFormatError", "InsufficientDataError", "InvalidCriterionError",
                   "InvalidGradeError", "NoActionWordsError", "UnresolvedCriterionError", "ValidationError"),
        "mapper": ("MappingResult", "OutcomeStatement", "map_outcome", "suggest_criterion", "tokenize"),
        "taxonomy": ("AbetCriterion", "BloomLevel", "BloomLexicon", "CriterionCatalog", "canonical_catalog",
                     "catalog_total", "criterion_rubric"),
        "validation": ("CourseComparison", "ValidationReport", "compare", "summarize"),
    }.items()
    for name in names
}


def __getattr__(name: str) -> object:
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})


__version__ = "0.1.0"

__all__ = sorted(_HOMES)
