import dataclasses
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from course_difficulty.engine import (
    NO_OVERRIDES,
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
from course_difficulty.errors import (
    DataFormatError,
    InsufficientDataError,
    InvalidGradeError,
    UnresolvedCriterionError,
    ValidationError,
)
from course_difficulty.rounding import (
    decimal_text,
    format_fixed,
    format_ratio,
    parse_decimal,
    parse_int,
    round_half_away,
)
from course_difficulty.taxonomy import criterion_rubric
from course_difficulty.validation import compare, summarize
from strategies import curricula, grade_histories as histories, repeating_histories

# the caps keep tier-1 wall time close to flat; composite strategies draw a whole curriculum per example
KERNEL = settings(max_examples=100, deadline=None)
COMPOSITE = settings(max_examples=30, deadline=None)


def _reference_round(value):
    """Half-away rounding to one decimal through Fraction arithmetic, the former implementation."""
    sign = -1 if value < 0 else 1
    scaled = abs(value) * 10
    q, r = divmod(scaled.numerator, scaled.denominator)
    if 2 * r >= scaled.denominator:
        q += 1
    return Fraction(sign * q, 10)


def _reference_format(value):
    units = int(_reference_round(value) * 10)
    sign = "-" if units < 0 else ""
    units = abs(units)
    return f"{sign}{units // 10}.{units % 10}"


def _di_history(code, *values):
    return GradeHistory(
        course_code=code,
        generations=tuple(
            GenerationRecord(label=f"gen{i}", kind=GradeKind.DI, value=Fraction(str(v)))
            for i, v in enumerate(values)
        ),
    )


class TestCourse:
    def test_rejects_empty_criteria(self):
        with pytest.raises(ValidationError):
            Course(code="C1", criteria=())

    def test_rejects_duplicate_criteria(self):
        with pytest.raises(ValidationError, match="more than once"):
            Course(code="C1", criteria=("a", "a"))

    def test_rejects_override_for_unlisted_criterion(self):
        with pytest.raises(ValidationError, match="not among"):
            Course(code="C1", criteria=("a",), cell_overrides={"b": 5})

    @pytest.mark.parametrize("points", [0, 22, -1])
    def test_rejects_override_points_out_of_range(self, points):
        with pytest.raises(ValidationError):
            Course(code="C1", criteria=("a",), cell_overrides={"a": points})

    @pytest.mark.parametrize("points", [True, False, 2.5, 5.0, "5", None, Fraction(5)])
    def test_rejects_override_points_of_another_type(self, points):
        # the number rule of to_fraction: a wrong type is a format error, not a bare TypeError
        with pytest.raises(DataFormatError, match=r"course 'X' override 'a' must be an int"):
            Course("X", ("a", "h"), cell_overrides={"a": points})

    @pytest.mark.parametrize("points", [1, 21])
    def test_accepts_override_points_at_the_bounds(self, points):
        assert Course("X", ("a", "h"), cell_overrides={"a": points}).cell_overrides == {"a": points}

    def test_without_overrides_strips_them(self):
        course = Course(code="C1", criteria=("a", "h"), cell_overrides={"h": 5})
        stripped = course.without_overrides()
        assert stripped.cell_overrides == {}
        assert stripped.criteria == course.criteria

    def test_replace_goes_through_the_constructor(self):
        """``dataclasses.replace``, which README offers in place of assignment, checks and copies as ``Course`` does."""
        course = Course(code="X", criteria=("a", "h"), title="T", cell_overrides={"h": 5})
        replaced = dataclasses.replace(course, criteria=["a", "h", "k"], cell_overrides={"k": 7})
        assert replaced == Course("X", ("a", "h", "k"), "T", {"k": 7})
        assert type(replaced.criteria) is tuple
        with pytest.raises(TypeError):
            replaced.cell_overrides["k"] = 9
        assert dataclasses.replace(course, title="U") == Course(code="X", criteria=("a", "h"), title="U",
                                                                cell_overrides={"h": 5})
        assert dataclasses.replace(course, cell_overrides={}).cell_overrides is NO_OVERRIDES
        with pytest.raises(ValidationError, match=r"^course 'X' override 'a'=99 outside 1\.\.21$"):
            dataclasses.replace(course, cell_overrides={"a": 99})


class TestCourseRawTotal:
    def test_worked_example_four_criteria(self, catalog):
        course = Course(code="EX1", criteria=("a", "h", "k", "l"))
        assert course_raw_total(course, catalog) == 39  # 6 + 6 + 6 + 21

    def test_six_criteria_course(self, catalog):
        course = Course(code="C1", criteria=("a", "b", "e", "i", "k", "l"))
        assert course_raw_total(course, catalog) == 96

    def test_single_criterion(self, catalog):
        assert course_raw_total(Course(code="X", criteria=("j",)), catalog) == 1

    def test_unknown_criterion_names_id_and_course(self, catalog):
        with pytest.raises(UnresolvedCriterionError) as exc:
            course_raw_total(Course(code="C9", criteria=("a", "z")), catalog)
        assert "'z'" in str(exc.value)
        assert "C9" in str(exc.value)

    def test_override_replaces_catalog_rubric(self, catalog):
        course = Course(code="C9", criteria=("a", "h", "k", "l"), cell_overrides={"h": 5})
        assert course_raw_total(course, catalog) == 38

    @pytest.mark.parametrize("criteria", [("a", "zz"), ("zz",)])
    def test_overridden_unknown_criterion_is_unresolved(self, catalog, criteria):
        # the catalog lookup comes before the override lookup, so the override cannot hide the id
        course = Course(code="C9", criteria=criteria, cell_overrides={"zz": 5})
        with pytest.raises(UnresolvedCriterionError, match="'zz'"):
            course_raw_total(course, catalog)

    @COMPOSITE
    @given(curricula())
    def test_equals_plain_sum_of_criterion_rubrics(self, data):
        catalog, courses = data
        for course in courses:
            expected = sum(
                course.cell_overrides.get(cid, criterion_rubric(catalog[cid])) for cid in course.criteria
            )
            assert course_raw_total(course, catalog) == expected
            assert bloom_difficulty(course, catalog).di == Fraction(5 * expected, 21 * len(course.criteria))


class TestBloomDifficulty:
    def test_six_criteria_course_rounds_to_3_8(self, catalog):
        result = bloom_difficulty(Course(code="C1", criteria=("a", "b", "e", "i", "k", "l")), catalog)
        assert result.raw_total == 96
        assert result.criteria_count == 6
        assert result.max_total == 126
        assert result.di == Fraction(96 * 5, 126)
        assert format_fixed(result.di) == "3.8"

    def test_overridden_course_rounds_to_2_3(self, catalog):
        course = Course(code="C9", criteria=("a", "h", "k", "l"), cell_overrides={"h": 5})
        result = bloom_difficulty(course, catalog)
        assert (result.raw_total, result.max_total) == (38, 84)
        assert format_fixed(result.di) == "2.3"

    def test_fully_mapped_course_hits_exactly_5(self, catalog):
        course = Course(code="TOP", criteria=("b", "c", "e", "i", "l", "m"))
        assert bloom_difficulty(course, catalog).di == 5

    def test_keywords_and_replace_go_through_the_constructor(self, catalog):
        result = bloom_difficulty(Course("X", ("a", "h")), catalog)
        assert result == BloomDifficulty(course_code="X", raw_total=result.raw_total, criteria_count=2, max_total=42)
        assert dataclasses.replace(result, raw_total=42) == BloomDifficulty("X", 42, 2, 42)
        assert dataclasses.replace(result, raw_total=42).di == 5

    def test_propagates_unresolved_criterion(self, catalog):
        with pytest.raises(UnresolvedCriterionError):
            bloom_difficulty(Course(code="X", criteria=("nope",)), catalog)


class TestClassAverageToDi:
    def test_worked_average_35(self):
        assert class_average_to_di(35) == Fraction(13, 4)  # 5 - 1.75

    def test_perfect_average_means_zero_difficulty(self):
        assert class_average_to_di(100) == 0

    def test_zero_average_means_maximum_difficulty(self):
        assert class_average_to_di(0) == 5

    @pytest.mark.parametrize("bad", [-1, 101, 135, "135.5"])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(InvalidGradeError):
            class_average_to_di(bad)

    @given(
        st.decimals(min_value=0, max_value=100, places=3, allow_nan=False),
        st.decimals(min_value=0, max_value=100, places=3, allow_nan=False),
    )
    def test_linear_identity_and_decreasing(self, first, second):
        low, high = sorted((Fraction(str(first)), Fraction(str(second))))
        assert class_average_to_di(low) + (low / 100) * 5 == 5
        if low < high:
            assert class_average_to_di(high) < class_average_to_di(low)

    @KERNEL
    @given(st.decimals(min_value=0, max_value=100, allow_nan=False, allow_infinity=False))
    def test_matches_fraction_formula_on_decimals(self, average):
        value = Fraction(average)
        assert class_average_to_di(value) == 5 - value / 100 * 5
        assert class_average_to_di(format(average, "f")) == 5 - value / 100 * 5  # str() may give an exponent

    @KERNEL
    @given(st.fractions(min_value=-1, max_value=101, max_denominator=1000))
    @example(Fraction(1001, 10))
    @example(Fraction(-1, 1000))
    def test_range_checked_exactly(self, value):
        if 0 <= value <= 100:
            assert class_average_to_di(value) == 5 - value / 100 * 5
        else:
            with pytest.raises(InvalidGradeError):
                class_average_to_di(value)


class TestGradeDifficulty:
    def test_three_generation_mean(self):
        assert format_fixed(grade_difficulty(_di_history("C1", "4.2", "3.4", "4.4"))) == "4.0"

    def test_mean_rounds_half_away(self):
        history = _di_history("C9", "2.4", "2.6", "2.1")
        assert grade_difficulty(history) == Fraction(71, 30)
        assert format_fixed(grade_difficulty(history)) == "2.4"

    def test_single_generation_is_identity(self):
        assert grade_difficulty(_di_history("X", "3.7")) == Fraction("3.7")

    @COMPOSITE
    @given(histories())
    def test_is_the_fraction_mean(self, history):
        values = [record.di() for record in history.generations]
        assert grade_difficulty(history) == sum(values, Fraction(0)) / len(values)

    def test_percent_records_convert_before_averaging(self):
        history = GradeHistory(
            course_code="X",
            generations=(GenerationRecord(label="g1", kind=GradeKind.PERCENT, value=Fraction(35)),),
        )
        assert grade_difficulty(history) == Fraction(13, 4)

    def test_empty_history_rejected(self):
        with pytest.raises(InsufficientDataError):
            GradeHistory(course_code="X", generations=())
        with pytest.raises(InsufficientDataError):  # dataclasses.replace goes through the constructor
            dataclasses.replace(_di_history("X", "3.7"), generations=())

    def test_empty_course_code_rejected(self):
        record = GenerationRecord(label="g", kind=GradeKind.DI, value=Fraction(1))
        with pytest.raises(ValidationError, match="course code"):
            GradeHistory(course_code="", generations=(record,))

    def test_duplicate_generation_labels_rejected(self):
        records = (
            GenerationRecord(label="g", kind=GradeKind.DI, value=Fraction(1)),
            GenerationRecord(label="g", kind=GradeKind.DI, value=Fraction(2)),
        )
        with pytest.raises(ValidationError, match="repeats"):
            GradeHistory(course_code="X", generations=records)

    @KERNEL
    @given(st.sampled_from(list(GradeKind)), st.integers(0, 6), st.data())
    def test_integer_pair_is_di(self, kind, places, data):
        top = 100 if kind is GradeKind.PERCENT else 5
        value = Fraction(str(data.draw(st.decimals(min_value=0, max_value=top, places=places))))
        record = GenerationRecord(label="g", kind=kind, value=value)
        num, den = record.di_pair()
        assert den > 0
        assert Fraction(num, den) == record.di() == (5 - value / 100 * 5 if top == 100 else value)

    @COMPOSITE
    @given(repeating_histories())
    def test_is_the_fraction_mean_on_repeating_histories(self, history):
        values = [record.di() for record in history.generations]
        assert grade_difficulty(history) == sum(values, Fraction(0)) / len(values)

    @pytest.mark.parametrize("kind,value", [
        (GradeKind.PERCENT, "135"),
        (GradeKind.PERCENT, "-2"),
        (GradeKind.DI, "5.1"),
        (GradeKind.DI, "-0.1"),
        (GradeKind.PERCENT, "101"),
    ])
    def test_values_validated_per_kind(self, kind, value):
        with pytest.raises(InvalidGradeError):
            GenerationRecord(label="g", kind=kind, value=Fraction(value))
        with pytest.raises(InvalidGradeError):  # dataclasses.replace goes through the constructor
            dataclasses.replace(GenerationRecord("g", kind, Fraction(1)), value=Fraction(value))

    @KERNEL
    @given(st.sampled_from(list(GradeKind)), st.fractions(min_value=-1, max_value=101, max_denominator=1000))
    def test_range_check_is_exact(self, kind, value):
        top = 100 if kind is GradeKind.PERCENT else 5
        if 0 <= value <= top:
            assert GenerationRecord(label="g", kind=kind, value=value).value == value
        else:
            with pytest.raises(InvalidGradeError, match=f"outside \\[0, {top}\\]"):
                GenerationRecord(label="g", kind=kind, value=value)


@pytest.mark.parametrize("record", [
    Course("X", ("a", "h"), "T", {"h": 5}),
    BloomDifficulty("X", 38, 4, 84),
    GenerationRecord("g", GradeKind.PERCENT, Fraction(35)),
    _di_history("X", "4.2", "3.4"),
    compare("3.1", "2.9", "X"),
], ids=lambda record: type(record).__name__)
def test_replace_with_no_change_builds_an_equal_new_record(record):
    """``dataclasses.replace``, which README offers in place of assignment, builds every record
    with a constructor in its class anew, through that constructor."""
    copied = dataclasses.replace(record)
    assert copied == record and copied is not record


class TestFinalDifficulty:
    def test_default_policy_keeps_rubric_estimate(self):
        result = final_difficulty("3.8", "4.0")
        assert type(result) is Fraction
        assert result == Fraction("3.8")

    def test_mean_of_both(self):
        result = final_difficulty("3.8", "4.0", CombinePolicy.MEAN_OF_BOTH)
        assert type(result) is Fraction
        assert result == Fraction("3.9")

    @pytest.mark.parametrize("policy", list(CombinePolicy))
    def test_agreement_is_a_fixed_point(self, policy):
        assert final_difficulty("2.5", "2.5", policy) == Fraction("2.5")

    def test_out_of_scale_inputs_rejected(self):
        with pytest.raises(ValidationError):
            final_difficulty("5.1", "4.0")


# Each library entry point that takes a number, reading ``v`` in one argument
# and giving back the Fraction it read there.
NUMBER_ARGUMENTS = {
    "compare.actual": lambda v: compare(v, "4").actual_di,
    "compare.estimated": lambda v: compare("4", v).estimated_di,
    "summarize.tolerance": lambda v: summarize([compare("4", "4")], v).tolerance,
    "final_difficulty.bloom_di": lambda v: final_difficulty(v, "4"),
    "final_difficulty.grade_di": lambda v: 2 * final_difficulty("0", v, CombinePolicy.MEAN_OF_BOTH),
    "class_average_to_di": lambda v: (5 - class_average_to_di(v)) * 20,
    "GenerationRecord.value": lambda v: GenerationRecord("g", GradeKind.DI, v).value,
}


class TestNumberRule:
    """Library arguments follow the file rule: a Fraction, an int or an ASCII decimal string."""

    @pytest.mark.parametrize("entry", NUMBER_ARGUMENTS)
    @pytest.mark.parametrize("value", ["1/3", "1e0", "\u0663.\u0665", "nan", 0.3, True, None])
    def test_rejected(self, entry, value):
        with pytest.raises(DataFormatError):
            NUMBER_ARGUMENTS[entry](value)

    @pytest.mark.parametrize("entry", NUMBER_ARGUMENTS)
    @pytest.mark.parametrize("value", ["4.0", " 4 ", 4, Fraction(4)])
    def test_accepted(self, entry, value):
        result = NUMBER_ARGUMENTS[entry](value)
        assert type(result) is Fraction
        assert result == 4

    def test_fraction_is_kept_as_is(self):
        value = Fraction(7, 2)
        assert GenerationRecord("g", GradeKind.DI, value).value is value
        assert final_difficulty(value, "4") is value


class TestRounding:
    @pytest.mark.parametrize("value,expected", [
        (Fraction(96 * 5, 126), "3.8"),
        (Fraction(75 * 5, 105), "3.6"),
        (Fraction(13, 4), "3.3"),       # 3.25: tie goes away from zero
        (Fraction(5), "5.0"),
        (Fraction(0), "0.0"),
        (Fraction(1, 4), "0.3"),
        (Fraction(-1, 20), "-0.1"),
        (Fraction(65, 28), "2.3"),
        (Fraction(-1, 30), "0.0"),      # rounds to zero: no sign
        (Fraction(-1, 4), "-0.3"),
    ])
    def test_format_fixed(self, value, expected):
        assert format_fixed(value) == expected

    def test_round_half_away_is_exact(self):
        assert round_half_away(Fraction(25, 100)) == Fraction(3, 10)
        assert round_half_away(Fraction(-25, 100)) == Fraction(-3, 10)

    @settings(max_examples=200, deadline=None)
    @given(st.fractions(max_denominator=10**6))
    @example(Fraction(1, 4))
    @example(Fraction(-1, 20))
    @example(Fraction(65, 28))
    @example(Fraction(65, 280))     # 0.232
    @example(Fraction(-1, 40))      # -0.025 rounds to zero
    @example(Fraction(1, 20))       # 0.05, a tie
    @example(Fraction(-1, 30))
    def test_kernel_matches_fraction_reference(self, value):
        rounded = round_half_away(value)
        assert rounded == _reference_round(value)
        assert type(rounded) is Fraction
        assert format_fixed(value) == _reference_format(value)
        # the tie rule itself: the distance to the result is at most half a step, and a tie moves away from zero
        step = Fraction(1, 10)
        assert abs(rounded - value) <= step / 2
        if abs(rounded - value) == step / 2:
            assert abs(rounded) > abs(value)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-10**6, 10**6), st.integers(1, 10**6), st.integers(1, 50))
    @example(1, 4, 5)       # 0.25, unreduced: a tie goes away from zero
    @example(-5, 100, 1)    # -0.05
    @example(-1, 30, 1)     # rounds to zero: no sign
    @example(1, 20, 3)      # 0.05, unreduced
    def test_format_ratio_is_format_fixed(self, num, den, factor):
        assert format_ratio(num * factor, den * factor) == format_fixed(Fraction(num, den))

    @pytest.mark.parametrize("text,expected", [
        ("4.2", Fraction(21, 5)),
        (" -.5 ", Fraction(-1, 2)),
        ("+5.", Fraction(5)),
        ("33.333333333333333333", Fraction(33333333333333333333, 10**18)),
    ])
    def test_parse_decimal_is_exact(self, text, expected):
        assert parse_decimal(text, "value") == expected

    @pytest.mark.parametrize("text", ["", ".", "-", "1e2", "100/3", "1_0", "nan", "inf", "\u0667", "0x1", "1.2.3"])
    def test_parse_decimal_accepts_ascii_literals_only(self, text):
        with pytest.raises(DataFormatError, match="cannot parse value"):
            parse_decimal(text, "value")

    @pytest.mark.parametrize("text", ["1.0", "1_0", "\u0667", "\u00b2", "", "+"])
    def test_parse_int_accepts_ascii_digits_only(self, text):
        with pytest.raises(DataFormatError, match="cannot parse points"):
            parse_int(text, "points")
        assert parse_int(" -7 ", "points") == -7

    def test_decimal_text_is_exact_or_refuses(self):
        for text in ("33.333333333333333333", "-0.05", "7"):
            assert decimal_text(parse_decimal(text, "value")) == text
        with pytest.raises(ValueError, match="no finite decimal"):
            decimal_text(Fraction(1, 3))

    @given(n=st.integers(-10**40, 10**40), twos=st.integers(0, 80), fives=st.integers(0, 80))
    @example(n=0, twos=3, fives=0)
    @example(n=-7, twos=0, fives=0)
    @example(n=3 * 10**30, twos=30, fives=30)
    def test_decimal_text_is_the_canonical_inverse_of_parse_decimal(self, n, twos, fives):
        value = Fraction(n, 2**twos * 5**fives)
        text = decimal_text(value)
        assert parse_decimal(text, "value") == value
        whole, point, decimals = text.removeprefix("-").partition(".")
        assert whole.isdigit() and (whole == "0" or not whole.startswith("0"))  # no leading zeros
        assert not point or (decimals.isdigit() and not decimals.endswith("0"))  # no trailing 0 or "."
        assert text != "-0"

    @given(
        n=st.integers(-10**40, 10**40), twos=st.integers(0, 80), fives=st.integers(0, 80),
        other=st.sampled_from([3, 7, 9, 11, 21, 9_999_991, 3**40]),
    )
    def test_decimal_text_refuses_any_other_prime_factor(self, n, twos, fives, other):
        value = Fraction(n * other + 1, 2**twos * 5**fives * other)  # the numerator shares no factor with other
        with pytest.raises(ValueError) as exc:
            decimal_text(value)
        assert str(exc.value) == f"{value} has no finite decimal expansion"
