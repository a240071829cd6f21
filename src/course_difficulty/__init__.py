"""Deterministic course difficulty estimation from outcome rubrics and grade history."""

from .engine import (
    BloomDifficulty,
    CombinePolicy,
    Course,
    GenerationRecord,
    GradeHistory,
    GradeKind,
    bloom_difficulty,
    class_average_to_di,
    course_raw_total,
    final_difficulty,
    grade_difficulty,
)
from .errors import (
    CourseDifficultyError,
    DataFormatError,
    InsufficientDataError,
    InvalidCriterionError,
    InvalidGradeError,
    NoActionWordsError,
    UnresolvedCriterionError,
    ValidationError,
)
from .mapper import MappingResult, OutcomeStatement, map_outcome, suggest_criterion, tokenize
from .taxonomy import (
    AbetCriterion,
    BloomLevel,
    BloomLexicon,
    CriterionCatalog,
    canonical_catalog,
    catalog_total,
    criterion_rubric,
)
from .validation import CourseComparison, ValidationReport, compare, summarize

__version__ = "0.1.0"

__all__ = [
    "AbetCriterion",
    "BloomDifficulty",
    "BloomLevel",
    "BloomLexicon",
    "CombinePolicy",
    "Course",
    "CourseComparison",
    "CourseDifficultyError",
    "CriterionCatalog",
    "DataFormatError",
    "GenerationRecord",
    "GradeHistory",
    "GradeKind",
    "InsufficientDataError",
    "InvalidCriterionError",
    "InvalidGradeError",
    "MappingResult",
    "NoActionWordsError",
    "OutcomeStatement",
    "UnresolvedCriterionError",
    "ValidationError",
    "ValidationReport",
    "bloom_difficulty",
    "canonical_catalog",
    "catalog_total",
    "class_average_to_di",
    "compare",
    "course_raw_total",
    "criterion_rubric",
    "final_difficulty",
    "grade_difficulty",
    "map_outcome",
    "suggest_criterion",
    "summarize",
    "tokenize",
]
