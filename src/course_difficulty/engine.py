"""Difficulty computation: rubric-sum path, grade-history path, and combination.

The rubric path sums each mapped criterion's complexity rubric and
normalizes onto the 0-5 index scale: ``di = 5 * raw_total / (21 * count)``.
The grade path converts class performance to the same scale
(``di = 5 - average/100 * 5`` for percent records) and averages one value
per student generation. ``final_difficulty`` combines the two. Results are
exact ``Fraction``s, rounded by callers at reporting time.

README.md, "Library use", gives the records' rules: checked constructors,
frozen slotted fields, read-only mappings, pickling, and the number arguments
accepted; "Validation" gives how each grade record stores its di pair.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field, fields
from enum import Enum
from fractions import Fraction
from operator import attrgetter
from types import MappingProxyType
from typing import TYPE_CHECKING

from .errors import (
    DataFormatError,
    InsufficientDataError,
    InvalidGradeError,
    UnresolvedCriterionError,
    ValidationError,
)
from .rounding import to_fraction

if TYPE_CHECKING:  # annotations only: a command loads taxonomy where it reads a catalog (README, "Start-up")
    from .taxonomy import CriterionCatalog

DI_SCALE = 5
MAX_RUBRIC = 21  # a criterion's most points: the six level weights 1+2+3+4+5+6, re-exported by taxonomy
NO_OVERRIDES: Mapping[str, int] = MappingProxyType({})  # shared by every course without overrides


def _slot_setters(cls: type) -> tuple:
    """Each field's slot ``__set__``, in field order: the slots exist only once ``@dataclass(slots=True)``
    has rebuilt the class, so a record's ``__init__`` reads them from a tuple bound after its class."""
    return tuple(cls.__dict__[f.name].__set__ for f in fields(cls))


@dataclass(frozen=True, slots=True, init=False)
class Course:
    """A course code plus the criterion ids it maps to.

    ``cell_overrides`` pins individual criterion rubrics to given point
    values; the reference curriculum uses it to reproduce source data whose
    printed cells deviate from the canonical catalog. The course keeps a
    read-only copy of the mapping it is given.
    """

    code: str
    criteria: tuple[str, ...]
    title: str | None = None
    cell_overrides: Mapping[str, int] = field(default_factory=dict)

    def __init__(self, code: str, criteria: Iterable[str], title: str | None = None,
                 cell_overrides: Mapping[str, int] = NO_OVERRIDES) -> None:
        """Check the rules of a course: a code, distinct criteria, and overrides
        of listed criteria by ``int`` points within 1..MAX_RUBRIC."""
        set_code, set_criteria, set_title, set_overrides = _COURSE_SLOTS
        # the shared empty mapping needs no copy, and ``dict()`` of a read-only mapping iterates its keys
        criteria, overrides = tuple(criteria), {} if cell_overrides is NO_OVERRIDES else dict(cell_overrides)
        if not code:
            raise ValidationError("course code must be non-empty")
        if not criteria:
            raise ValidationError(f"course {code!r} maps to no criteria")
        if len(set(criteria)) != len(criteria):
            raise ValidationError(f"course {code!r} lists a criterion more than once")
        for cid, points in overrides.items():
            if cid not in criteria:
                raise ValidationError(f"course {code!r} overrides {cid!r} which is not among its criteria")
            if not isinstance(points, int) or isinstance(points, bool):
                raise DataFormatError(f"course {code!r} override {cid!r} must be an int, got {points!r}")
            if not 1 <= points <= MAX_RUBRIC:
                raise ValidationError(f"course {code!r} override {cid!r}={points} outside 1..{MAX_RUBRIC}")
        set_code(self, code)
        set_criteria(self, criteria)
        set_title(self, title)
        set_overrides(self, MappingProxyType(overrides) if overrides else NO_OVERRIDES)

    def __reduce__(self):
        return Course, (self.code, self.criteria, self.title, dict(self.cell_overrides))

    def without_overrides(self) -> "Course":
        if not self.cell_overrides:
            return self
        return Course(self.code, self.criteria, self.title)


_COURSE_SLOTS = _slot_setters(Course)


@dataclass(frozen=True, slots=True, init=False)
class BloomDifficulty:
    """Rubric-path result for one course, in integers; ``di`` is computed when read."""

    course_code: str
    raw_total: int
    criteria_count: int
    max_total: int

    def __init__(self, course_code: str, raw_total: int, criteria_count: int, max_total: int) -> None:
        set_code, set_raw_total, set_criteria_count, set_max_total = _BLOOM_SLOTS
        set_code(self, course_code)
        set_raw_total(self, raw_total)
        set_criteria_count(self, criteria_count)
        set_max_total(self, max_total)

    @property
    def di(self) -> Fraction:
        """The difficulty index ``DI_SCALE * raw_total / max_total``, exactly."""
        return Fraction(DI_SCALE * self.raw_total, self.max_total)


_BLOOM_SLOTS = _slot_setters(BloomDifficulty)


class GradeKind(Enum):
    PERCENT = "percent"
    DI = "di"


@dataclass(frozen=True, slots=True, init=False)
class GenerationRecord:
    """Class performance of one student generation, tagged with its scale.

    The record keeps its value on the 0-5 difficulty scale as the unreduced
    integer pair ``di_pair()`` returns, computed once by the constructor.
    """

    label: str
    kind: GradeKind
    value: Fraction
    _pair: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __init__(self, label: str, kind: GradeKind, value: Fraction | int | str) -> None:
        """Check the rules of a record: its value as ``rounding.to_fraction`` reads it,
        a label, and a value within its kind's range; then store the value's di pair."""
        set_label, set_kind, set_value, set_pair = _RECORD_SLOTS
        value = to_fraction(value, "grade value")
        if not label:
            raise ValidationError("generation label must be non-empty")
        num, den = value.numerator, value.denominator
        if kind is GradeKind.PERCENT:
            name, top, pair = "percent", 100, _percent_pair(value)
        else:
            name, top, pair = "difficulty", DI_SCALE, (num, den)
        if not 0 <= num <= top * den:
            raise InvalidGradeError(f"generation {label!r}: {name} value {value} outside [0, {top}]")
        set_label(self, label)
        set_kind(self, kind)
        set_value(self, value)
        set_pair(self, pair)

    def __reduce__(self):
        return GenerationRecord, (self.label, self.kind, self.value)  # the pair is computed again, and checked

    def di(self) -> Fraction:
        """The record on the 0-5 difficulty scale (percent records convert)."""
        return Fraction(*self._pair)

    def di_pair(self) -> tuple[int, int]:
        """``di()`` as an unreduced (numerator, denominator) pair, for integer sums and rendering."""
        return self._pair


_RECORD_SLOTS = _slot_setters(GenerationRecord)
_DI_PAIR = attrgetter("_pair")  # a record's ``di_pair()``, read without a Python call


@dataclass(frozen=True, slots=True, init=False)
class GradeHistory:
    """One course's grade records, one per student generation, in file order."""

    course_code: str
    generations: tuple[GenerationRecord, ...]

    def __init__(self, course_code: str, generations: Iterable[GenerationRecord]) -> None:
        """Check the rules of a history: a code, and at least one record, with distinct labels."""
        set_code, set_generations = _HISTORY_SLOTS
        if not course_code:
            raise ValidationError("course code must be non-empty")
        generations = tuple(generations)
        if not generations:
            raise InsufficientDataError(f"course {course_code!r} has no generation records")
        if len({g.label for g in generations}) != len(generations):
            raise ValidationError(f"course {course_code!r} repeats a generation label")
        set_code(self, course_code)
        set_generations(self, generations)


_HISTORY_SLOTS = _slot_setters(GradeHistory)


class CombinePolicy(Enum):
    BLOOM_PRIMARY = "bloom_primary"
    MEAN_OF_BOTH = "mean_of_both"


def course_raw_total(course: Course, catalog: CriterionCatalog) -> int:
    """Sum of rubric points over the course's criteria (overrides win per cell)."""
    # subscripts and ``in``: on a read-only mapping they reach the dict's own slots, where ``.get`` is a method call
    rubrics, overrides = catalog.rubrics, course.cell_overrides
    total = 0
    for cid in course.criteria:
        try:  # checked before the override, which may name an id the catalog lacks
            points = rubrics[cid]
        except KeyError:
            raise UnresolvedCriterionError(cid, course.code) from None
        total += overrides[cid] if cid in overrides else points
    return total


def bloom_difficulty(course: Course, catalog: CriterionCatalog) -> BloomDifficulty:
    """Normalize the raw rubric total onto the 0-5 difficulty index scale."""
    count = len(course.criteria)
    return BloomDifficulty(course.code, course_raw_total(course, catalog), count, count * MAX_RUBRIC)


def _percent_pair(average: Fraction) -> tuple[int, int]:
    """A 0-100 average on the inverted 0-5 scale, as an unreduced (numerator, denominator) pair."""
    num, den = average.numerator, average.denominator
    return DI_SCALE * (100 * den - num), 100 * den  # 5 - num/den/100*5


def class_average_to_di(average: Fraction | int | str) -> Fraction:
    """Map a 0-100 class average onto the inverted 0-5 difficulty scale."""
    value = to_fraction(average, "class average")
    if not 0 <= value.numerator <= 100 * value.denominator:
        raise InvalidGradeError(f"class average {value} outside [0, 100]")
    return Fraction(*_percent_pair(value))


def grade_difficulty(history: GradeHistory) -> Fraction:
    """Arithmetic mean of the per-generation difficulty values."""
    generations = history.generations
    num, den = 0, 1  # the running sum num/den, reduced once at the end
    for n, d in map(_DI_PAIR, generations):
        num = num * d + n * den
        den *= d
    return Fraction(num, den * len(generations))


def check_difficulty(name: str, value: Fraction) -> None:
    """Raise ``ValidationError`` naming ``name`` unless ``value`` lies on the 0-5 index scale."""
    if not 0 <= value.numerator <= DI_SCALE * value.denominator:
        raise ValidationError(f"{name} {value} outside [0, {DI_SCALE}]")


def final_difficulty(
    bloom_di: Fraction | int | str,
    grade_di: Fraction | int | str,
    policy: CombinePolicy = CombinePolicy.BLOOM_PRIMARY,
) -> Fraction:
    """Combine the two estimates under the chosen policy into the course's difficulty index.

    The default keeps the rubric-based value as the course's difficulty and
    treats grades purely as validation data; ``MEAN_OF_BOTH`` averages them.
    """
    bloom = to_fraction(bloom_di, "bloom_di")
    grade = to_fraction(grade_di, "grade_di")
    check_difficulty("bloom_di", bloom)
    check_difficulty("grade_di", grade)
    if policy is CombinePolicy.MEAN_OF_BOTH:
        b_den, g_den = bloom.denominator, grade.denominator
        return Fraction(bloom.numerator * g_den + grade.numerator * b_den, 2 * b_den * g_den)
    return bloom
