from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from course_difficulty.engine import CombinePolicy, final_difficulty
from course_difficulty.errors import InsufficientDataError, ValidationError
from course_difficulty.rounding import format_fixed
from course_difficulty.validation import CourseComparison, compare, summarize
from strategies import DIFFICULTIES

# Frozen reference rows: (course, actual, estimated).
REFERENCE_ROWS = [
    ("C1", "4.0", "3.8"),
    ("C2", "4.0", "3.8"),
    ("C3", "4.1", "4.4"),
    ("C4", "4.2", "4.4"),
    ("C5", "4.0", "3.8"),
    ("C6", "4.1", "3.8"),
    ("C7", "3.6", "3.8"),
    ("C8", "3.6", "3.6"),
    ("C9", "2.4", "2.3"),
    ("C10", "4.1", "3.8"),
    ("C11", "1.4", "1.1"),
]

DI_VALUES = st.fractions(min_value=0, max_value=5, max_denominator=100)


def _reference_comparisons():
    return [compare(actual, estimated, code) for code, actual, estimated in REFERENCE_ROWS]


class TestCompare:
    def test_errors_populated(self):
        result = compare("4.0", "3.8", "C1")
        assert result.abs_error == Fraction("0.2")
        assert result.squared_error == Fraction("0.04")

    def test_exact_agreement(self):
        result = compare("3.6", "3.6", "C8")
        assert result.abs_error == 0
        assert result.squared_error == 0

    @given(DI_VALUES)
    def test_identity_case(self, value):
        assert compare(value, value).abs_error == 0

    @given(DI_VALUES, DI_VALUES)
    def test_abs_error_symmetric(self, a, b):
        assert compare(a, b).abs_error == compare(b, a).abs_error

    def test_rejects_out_of_scale(self):
        with pytest.raises(ValidationError):
            compare("5.5", "1.0")


class TestSummarize:
    def test_reference_rows_reproduce_average_row(self):
        report = summarize(_reference_comparisons())
        assert format_fixed(report.mean_actual) == "3.6"
        assert format_fixed(report.mean_estimated) == "3.5"
        assert format_fixed(report.mean_abs_error) == "0.2"

    def test_accuracy_at_tolerance_0_3_is_total(self):
        # every reference error is <= 0.3, including the three exactly at 0.3
        report = summarize(_reference_comparisons(), Fraction(3, 10))
        assert report.accuracy == 1

    def test_boundary_error_counts_as_correct(self):
        report = summarize([compare("4.1", "4.4")], Fraction(3, 10))
        assert report.accuracy == 1

    def test_single_agreeing_comparison(self):
        report = summarize([compare("2.0", "2.0")], Fraction(1, 100))
        assert report.accuracy == 1

    def test_empty_list_rejected(self):
        with pytest.raises(InsufficientDataError):
            summarize([])

    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(ValidationError):
            summarize([compare("1.0", "1.0")], 0)

    def test_mean_abs_error_zero_iff_all_agree(self):
        agreeing = summarize([compare("1.0", "1.0"), compare("2.0", "2.0")])
        assert agreeing.mean_abs_error == 0
        diverging = summarize([compare("1.0", "1.0"), compare("2.0", "2.1")])
        assert diverging.mean_abs_error > 0

    @given(st.lists(st.tuples(DI_VALUES, DI_VALUES), min_size=1, max_size=10))
    def test_error_means_bounded_by_max_error(self, pairs):
        comparisons = [compare(a, b) for a, b in pairs]
        report = summarize(comparisons)
        worst = max(c.abs_error for c in comparisons)
        assert report.mean_abs_error <= worst
        assert report.mean_squared_error <= worst * worst

    @given(
        st.lists(st.tuples(DI_VALUES, DI_VALUES), min_size=1, max_size=10),
        st.fractions(min_value=Fraction(1, 100), max_value=5, max_denominator=100),
        st.fractions(min_value=0, max_value=5, max_denominator=100),
    )
    def test_accuracy_monotone_in_tolerance(self, pairs, tolerance, bump):
        comparisons = [compare(a, b) for a, b in pairs]
        looser = summarize(comparisons, tolerance + bump)
        tighter = summarize(comparisons, tolerance)
        assert looser.accuracy >= tighter.accuracy


# The Fraction formulas that compare, summarize and final_difficulty used before
# they moved to integer numerators; the integer path must give the same values.
def _reference_compare(actual, estimated):
    error = abs(actual - estimated)
    return actual, estimated, error, error * error


def _reference_summarize(pairs, tolerance):
    rows = [_reference_compare(a, e) for a, e in pairs]
    n = len(rows)
    within = sum(1 for row in rows if row[2] <= tolerance)
    means = [sum((row[i] for row in rows), Fraction(0)) / n for i in range(4)]
    return (*means, Fraction(within, n), within)


def _reference_final(bloom, grade, policy):
    return (bloom + grade) / 2 if policy is CombinePolicy.MEAN_OF_BOTH else bloom


def _summary(report):
    return (
        report.mean_actual, report.mean_estimated, report.mean_abs_error, report.mean_squared_error,
        report.accuracy, report.within_tolerance,
    )


TOLERANCES = st.fractions(min_value=Fraction(1, 1000), max_value=5, max_denominator=1000)
INTEGER_PATH = settings(max_examples=100, deadline=None)


def _primes(count):
    primes, candidate = [], 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


class TestIntegerReportPath:
    @INTEGER_PATH
    @given(DIFFICULTIES, DIFFICULTIES, st.text(max_size=5))
    @example(Fraction(1, 3), Fraction(1, 7), "C1")
    @example(Fraction(7, 2), Fraction(4), "")
    def test_compare_matches_fraction_formulas(self, actual, estimated, code):
        c = compare(actual, estimated, code)
        fields = (c.actual_di, c.estimated_di, c.abs_error, c.squared_error)
        assert fields == _reference_compare(actual, estimated)
        assert all(type(value) is Fraction for value in fields)
        assert c.course_code == code
        # one shared denominator: the least common one, so equal values give equal comparisons
        assert c.den == lcm(actual.denominator, estimated.denominator)
        assert (c.actual_num, c.estimated_num) == (actual * c.den, estimated * c.den)
        assert c == CourseComparison(code, c.actual_num, c.estimated_num, c.den)

    @INTEGER_PATH
    @given(DIFFICULTIES, DIFFICULTIES, st.sampled_from(list(CombinePolicy)))
    def test_final_difficulty_matches_fraction_formula(self, bloom, grade, policy):
        result = final_difficulty(bloom, grade, policy)
        assert type(result) is Fraction
        assert result == _reference_final(bloom, grade, policy)

    @INTEGER_PATH
    @given(st.lists(st.tuples(DIFFICULTIES, DIFFICULTIES), min_size=1, max_size=8), TOLERANCES)
    def test_summarize_matches_fraction_formulas(self, pairs, tolerance):
        report = summarize([compare(a, e) for a, e in pairs], tolerance)
        assert _summary(report) == _reference_summarize(pairs, tolerance)
        assert all(type(value) is Fraction for value in _summary(report)[:5])
        assert report.tolerance == tolerance

    @INTEGER_PATH
    @given(DIFFICULTIES, TOLERANCES, st.booleans())
    def test_error_equal_to_tolerance_is_within(self, actual, tolerance, downwards):
        estimated = actual - tolerance if downwards else actual + tolerance
        if not 0 <= estimated <= 5:
            estimated = actual + tolerance if downwards else actual - tolerance
        if not 0 <= estimated <= 5:
            return
        c = compare(actual, estimated)
        assert c.abs_error == tolerance
        assert summarize([c], tolerance).within_tolerance == 1
        # a tolerance just below the error leaves the course out
        assert summarize([c], tolerance - Fraction(1, 10**9)).within_tolerance == 0

    @pytest.mark.parametrize("tolerance", [Fraction(1, 2), Fraction(1, 3), Fraction(3, 10)])
    def test_summarize_over_hundreds_of_prime_denominators(self, tolerance):
        primes = _primes(300)
        pairs = [(Fraction(5 * p * i // 301, p), Fraction(i % 6)) for i, p in enumerate(primes)]
        pairs += [(Fraction(1, 3), Fraction(1, 3) + tolerance), (Fraction(2), Fraction(2) - tolerance)]
        report = summarize([compare(a, e) for a, e in pairs], tolerance)
        assert _summary(report) == _reference_summarize(pairs, tolerance)
