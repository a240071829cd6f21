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
numerators per distinct denominator and builds each mean, the mean squared
error and the accuracy as one ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .engine import DI_SCALE
from .errors import InsufficientDataError, ValidationError
from .rounding import to_fraction


@dataclass(frozen=True, slots=True)
class CourseComparison:
    """One course's actual and estimated difficulty, ``actual_num / den`` and ``estimated_num / den``.

    ``compare`` builds it: it range-checks both values and picks their least
    common denominator. The constructor itself checks nothing.
    """

    course_code: str
    actual_num: int
    estimated_num: int
    den: int  # shared by both numerators, > 0

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
        if not 0 <= value.numerator <= DI_SCALE * value.denominator:
            raise ValidationError(f"{name} difficulty {value} outside [0, {DI_SCALE}]")
    a_den, e_den = actual_f.denominator, estimated_f.denominator
    den = lcm(a_den, e_den)  # the least common denominator, so equal values give equal comparisons
    a, e = actual_f.numerator * (den // a_den), estimated_f.numerator * (den // e_den)
    return CourseComparison(course_code, a, e, den)


def _mean(sums: list[tuple[int, int]], n: int) -> Fraction:
    """``sum(num/den for num, den in sums) / n`` as one ``Fraction``, summed over the running lcm."""
    total, lcd = 0, 1
    for num, den in sums:
        g = gcd(lcd, den)
        total = total * (den // g) + num * (lcd // g)
        lcd = lcd // g * den
    return Fraction(total, lcd * n)


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
    groups = sums.items()
    return ValidationReport(
        comparisons=tuple(comparisons),
        mean_actual=_mean([(group[0], den) for den, group in groups], n),
        mean_estimated=_mean([(group[1], den) for den, group in groups], n),
        mean_abs_error=_mean([(group[2], den) for den, group in groups], n),
        mean_squared_error=_mean([(group[3], den * den) for den, group in groups], n),
        accuracy=Fraction(within, n),
        tolerance=tol,
        within_tolerance=within,
    )
