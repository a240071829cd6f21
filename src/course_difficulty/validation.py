"""Comparison of grade-derived (actual) and rubric-derived (estimated) difficulty.

By default the comparison runs on values rounded to one decimal, matching how
the reference tables were produced; callers wanting sensitivity analysis can
pass unrounded values. Accuracy counts a course as correctly estimated when
its absolute error does not exceed the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .engine import DI_SCALE
from .errors import InsufficientDataError, ValidationError
from .rounding import to_fraction


@dataclass(frozen=True)
class CourseComparison:
    course_code: str
    actual_di: Fraction
    estimated_di: Fraction
    abs_error: Fraction
    squared_error: Fraction


@dataclass(frozen=True)
class ValidationReport:
    comparisons: tuple[CourseComparison, ...]
    mean_actual: Fraction
    mean_estimated: Fraction
    mean_abs_error: Fraction
    mean_squared_error: Fraction
    accuracy: Fraction
    tolerance: Fraction
    within_tolerance: int


def compare(actual: Fraction | int | str, estimated: Fraction | int | str, course_code: str = "") -> CourseComparison:
    """Build one course comparison; abs_error is symmetric in its arguments."""
    actual_f = to_fraction(actual, "actual difficulty")
    estimated_f = to_fraction(estimated, "estimated difficulty")
    for name, value in (("actual", actual_f), ("estimated", estimated_f)):
        if not 0 <= value <= DI_SCALE:
            raise ValidationError(f"{name} difficulty {value} outside [0, {DI_SCALE}]")
    error = abs(actual_f - estimated_f)
    return CourseComparison(
        course_code=course_code,
        actual_di=actual_f,
        estimated_di=estimated_f,
        abs_error=error,
        squared_error=error * error,
    )


def summarize(comparisons: list[CourseComparison], tolerance: Fraction | int | str = Fraction(1, 2)) -> ValidationReport:
    """Aggregate comparisons into means plus an accuracy ratio at the tolerance."""
    if not comparisons:
        raise InsufficientDataError("cannot summarize an empty comparison list")
    tol = to_fraction(tolerance, "tolerance")
    if tol <= 0:
        raise ValidationError(f"tolerance must be positive, got {tol}")
    n = len(comparisons)
    within = sum(1 for c in comparisons if c.abs_error <= tol)
    return ValidationReport(
        comparisons=tuple(comparisons),
        mean_actual=sum((c.actual_di for c in comparisons), Fraction(0)) / n,
        mean_estimated=sum((c.estimated_di for c in comparisons), Fraction(0)) / n,
        mean_abs_error=sum((c.abs_error for c in comparisons), Fraction(0)) / n,
        mean_squared_error=sum((c.squared_error for c in comparisons), Fraction(0)) / n,
        accuracy=Fraction(within, n),
        tolerance=tol,
        within_tolerance=within,
    )
