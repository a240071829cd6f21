"""Comparison of grade-derived (actual) and rubric-derived (estimated) difficulty.

By default the comparison runs on values rounded to one decimal, matching how
the reference tables were produced; callers wanting sensitivity analysis can
pass unrounded values. Accuracy counts a course as correctly estimated when
its absolute error does not exceed the tolerance.

A ``CourseComparison`` holds integers: the actual and estimated numerators
over one shared denominator, the least common denominator of the two values
(a divisor of 10 on the 1-decimal grid). Its ``actual_di``, ``estimated_di``,
``abs_error`` and ``squared_error`` are exact ``Fraction``s computed from
them. Two comparisons that ``compare`` built are equal when their codes and
both values are equal, and the repr shows the integers. ``summarize`` sums
numerators in integers per distinct denominator; each mean and the mean
squared error is the ``Fraction`` sum of those few per-denominator sums,
divided by the course count, and the accuracy is one ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .engine import _slot_setters, check_difficulty
from .errors import InsufficientDataError, ValidationError
from .rounding import to_fraction


@dataclass(frozen=True, slots=True, init=False)
class CourseComparison:
    """One course's actual and estimated difficulty, ``actual_num / den`` and ``estimated_num / den``.

    ``compare`` builds it: it range-checks both values with
    ``engine.check_difficulty`` and picks their least common denominator.
    The constructor itself checks nothing.
    """

    course_code: str
    actual_num: int
    estimated_num: int
    den: int  # shared by both numerators, > 0

    def __init__(self, course_code: str, actual_num: int, estimated_num: int, den: int) -> None:
        set_code, set_actual_num, set_estimated_num, set_den = _COMPARISON_SLOTS
        set_code(self, course_code)
        set_actual_num(self, actual_num)
        set_estimated_num(self, estimated_num)
        set_den(self, den)

    @property
    def actual_di(self) -> Fraction:
        return Fraction(self.actual_num, self.den)

    @property
    def estimated_di(self) -> Fraction:
        return Fraction(self.estimated_num, self.den)

    @property
    def abs_error(self) -> Fraction:
        return Fraction(abs(self.actual_num - self.estimated_num), self.den)

    @property
    def squared_error(self) -> Fraction:
        diff = self.actual_num - self.estimated_num
        return Fraction(diff * diff, self.den * self.den)


_COMPARISON_SLOTS = _slot_setters(CourseComparison)


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
    check_difficulty("actual difficulty", actual_f)
    check_difficulty("estimated difficulty", estimated_f)
    a_den, e_den = actual_f.denominator, estimated_f.denominator
    den = lcm(a_den, e_den)  # the least common denominator, so equal values give equal comparisons
    a, e = actual_f.numerator * (den // a_den), estimated_f.numerator * (den // e_den)
    return CourseComparison(course_code, a, e, den)


def summarize(comparisons: list[CourseComparison], tolerance: Fraction | int | str = Fraction(1, 2)) -> ValidationReport:
    """Aggregate comparisons into means plus an accuracy ratio at the tolerance."""
    if not comparisons:
        raise InsufficientDataError("cannot summarize an empty comparison list")
    tol = to_fraction(tolerance, "tolerance")
    tol_num, tol_den = tol.numerator, tol.denominator
    if tol_num <= 0:
        raise ValidationError(f"tolerance must be positive, got {tol}")
    sums: dict[int, list[int]] = {}  # den -> [actual, estimated, abs error, squared error numerators]
    within = 0
    for c in comparisons:
        den = c.den
        diff = abs(c.actual_num - c.estimated_num)
        if diff * tol_den <= tol_num * den:
            within += 1
        group = sums.setdefault(den, [0, 0, 0, 0])
        group[0] += c.actual_num
        group[1] += c.estimated_num
        group[2] += diff
        group[3] += diff * diff
    n = len(comparisons)
    mean_actual, mean_estimated, mean_abs_error = (
        sum(Fraction(group[i], den) for den, group in sums.items()) / n for i in range(3)
    )
    return ValidationReport(
        comparisons=tuple(comparisons),
        mean_actual=mean_actual,
        mean_estimated=mean_estimated,
        mean_abs_error=mean_abs_error,
        mean_squared_error=sum(Fraction(group[3], den * den) for den, group in sums.items()) / n,
        accuracy=Fraction(within, n),
        tolerance=tol,
        within_tolerance=within,
    )
