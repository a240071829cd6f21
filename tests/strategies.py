"""Shared hypothesis strategies for catalogs, curricula, and grade files."""

from fractions import Fraction

from hypothesis import strategies as st

from course_difficulty.engine import Course, GenerationRecord, GradeHistory, GradeKind
from course_difficulty.taxonomy import AbetCriterion, BloomLevel, CriterionCatalog

IDS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=6)
TEXTS = st.text(alphabet=st.characters(blacklist_categories=("Cs", "Cc")), max_size=30)
LEVEL_SETS = st.frozensets(st.sampled_from(list(BloomLevel)), min_size=1)


@st.composite
def catalogs(draw):
    ids = draw(st.lists(IDS, min_size=1, max_size=8, unique=True))
    return CriterionCatalog.from_criteria(
        [
            AbetCriterion(id=cid, levels=draw(LEVEL_SETS), description=draw(TEXTS))
            for cid in ids
        ],
        provenance="generated",
    )


@st.composite
def curricula(draw):
    """A catalog plus coherent courses over it (some with cell overrides)."""
    catalog = draw(catalogs())
    ids = list(catalog.criteria)
    courses = []
    for i in range(draw(st.integers(min_value=1, max_value=5))):
        chosen = draw(
            st.lists(st.sampled_from(ids), min_size=1, max_size=len(ids), unique=True)
        )
        overrides = {
            cid: draw(st.integers(min_value=1, max_value=21))
            for cid in chosen
            if draw(st.booleans())
        }
        courses.append(
            Course(
                code=f"K{i}",
                criteria=tuple(chosen),
                title=draw(st.one_of(st.none(), TEXTS.filter(str.strip))),
                cell_overrides=overrides,
            )
        )
    return catalog, courses


@st.composite
def repeating_curricula(draw):
    """Courses over the canonical catalog whose ``(raw_total, criteria_count)`` pairs both repeat and vary.

    Each course takes its criteria, in any order, from a small pool of sets,
    and some cells are overridden to a few point values, so several courses
    share a pair in each mode while others differ.
    """
    pool = draw(st.lists(st.lists(st.sampled_from("abcdefghijklm"), min_size=1, max_size=6, unique=True),
                         min_size=1, max_size=4))
    courses = []
    for i in range(draw(st.integers(min_value=1, max_value=20))):
        criteria = tuple(draw(st.permutations(draw(st.sampled_from(pool)))))
        overrides = {cid: draw(st.sampled_from([1, 6, 21])) for cid in criteria if draw(st.integers(0, 3)) == 0}
        courses.append(Course(code=f"K{i}", criteria=criteria, cell_overrides=overrides))
    return courses


@st.composite
def grade_histories(draw, code="X"):
    labels = draw(st.lists(IDS, min_size=1, max_size=5, unique=True))
    records = []
    for label in labels:
        kind = draw(st.sampled_from(list(GradeKind)))
        top = 100 if kind is GradeKind.PERCENT else 5
        value = draw(st.decimals(min_value=0, max_value=top, places=2, allow_nan=False))
        records.append(GenerationRecord(label=label, kind=kind, value=Fraction(str(value))))
    return GradeHistory(course_code=code, generations=tuple(records))


@st.composite
def grade_maps(draw):
    codes = draw(st.lists(IDS, min_size=1, max_size=4, unique=True))
    return {code: draw(grade_histories(code=code)) for code in codes}


@st.composite
def repeating_histories(draw, code="X", pool=None):
    """1-12 mixed-kind records whose values come from a small pool of 3-decimal literals, so they repeat."""
    if pool is None:
        pool = draw(st.lists(st.decimals(min_value=0, max_value=5, places=3), min_size=1, max_size=4))
    scales = {GradeKind.DI: 1, GradeKind.PERCENT: draw(st.sampled_from([1, 10, 20]))}  # percents up to 100
    records = []
    for i in range(draw(st.integers(min_value=1, max_value=12))):
        kind = draw(st.sampled_from(list(GradeKind)))
        value = Fraction(str(draw(st.sampled_from(pool)))) * scales[kind]
        records.append(GenerationRecord(label=f"g{i}", kind=kind, value=value))
    return GradeHistory(course_code=code, generations=tuple(records))


@st.composite
def repeating_grade_maps(draw):
    """Several courses whose records share one small pool of values."""
    pool = draw(st.lists(st.decimals(min_value=0, max_value=5, places=3), min_size=1, max_size=4))
    codes = draw(st.lists(IDS, min_size=1, max_size=4, unique=True))
    return {code: draw(repeating_histories(code=code, pool=pool)) for code in codes}


# difficulty values in [0, 5]: any denominator (1/3, 1/7, ...), small ones, and the 1-decimal grid
DIFFICULTIES = st.one_of(
    st.fractions(min_value=0, max_value=5),
    st.fractions(min_value=0, max_value=5, max_denominator=30),
    st.integers(min_value=0, max_value=50).map(lambda tenths: Fraction(tenths, 10)),
)
