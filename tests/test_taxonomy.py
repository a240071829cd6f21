import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from course_difficulty import data_io, engine
from course_difficulty.errors import InvalidCriterionError, ValidationError
from course_difficulty.mapper import _SUFFIX_CANDIDATES, tokenize
from course_difficulty.taxonomy import (
    MAX_RUBRIC,
    AbetCriterion,
    BloomLevel,
    BloomLexicon,
    CriterionCatalog,
    catalog_total,
    criterion_rubric,
)
from strategies import catalogs

# Per-criterion rubric of the canonical catalog, keyed by outcome letter.
CANONICAL_RUBRICS = {
    "a": 6, "b": 21, "c": 21, "d": 6, "e": 21, "f": 3, "g": 3,
    "h": 6, "i": 21, "j": 1, "k": 6, "l": 21, "m": 21,
}

LEVEL_SETS = st.frozensets(st.sampled_from(list(BloomLevel)), min_size=1)


def _criterion(levels, cid="x"):
    return AbetCriterion(id=cid, levels=frozenset(BloomLevel(v) for v in levels))


class TestBloomLevel:
    def test_weights_are_a_bijection_onto_1_to_6(self):
        assert sorted(level.weight for level in BloomLevel) == [1, 2, 3, 4, 5, 6]
        assert BloomLevel.REMEMBER.weight == 1
        assert BloomLevel.UNDERSTAND.weight == 2
        assert BloomLevel.APPLY.weight == 3
        assert BloomLevel.ANALYZE.weight == 4
        assert BloomLevel.EVALUATE.weight == 5
        assert BloomLevel.CREATE.weight == 6

    def test_ordering_by_weight_matches_hierarchy(self):
        ordered = sorted(BloomLevel, key=lambda lvl: lvl.weight)
        assert [lvl.label for lvl in ordered] == [
            "Remember", "Understand", "Apply", "Analyze", "Evaluate", "Create",
        ]

    @pytest.mark.parametrize("token,expected", [
        (3, BloomLevel.APPLY),
        ("6", BloomLevel.CREATE),
        ("Remember", BloomLevel.REMEMBER),
        ("evaluate", BloomLevel.EVALUATE),
    ])
    def test_from_token(self, token, expected):
        assert BloomLevel.from_token(token) is expected

    @pytest.mark.parametrize("token", [0, 7, "9", "unknown"])
    def test_from_token_rejects_bad_values(self, token):
        with pytest.raises(ValidationError):
            BloomLevel.from_token(token)

    @pytest.mark.parametrize("token", ["x7", "\u00b2", "1_0", "", True, 3.0, None])
    def test_from_token_rejects_malformed_tokens(self, token):
        with pytest.raises(ValueError, match="cannot parse"):
            BloomLevel.from_token(token)


class TestCriterionRubric:
    def test_full_level_set_gives_21(self):
        assert criterion_rubric(_criterion((1, 2, 3, 4, 5, 6), "b")) == 21

    def test_single_lowest_level_gives_1(self):
        assert criterion_rubric(_criterion((1,), "j")) == 1

    def test_two_lowest_levels_give_3(self):
        assert criterion_rubric(_criterion((1, 2), "f")) == 3

    def test_empty_level_set_is_rejected(self):
        with pytest.raises(InvalidCriterionError):
            AbetCriterion(id="x", levels=frozenset())

    @given(LEVEL_SETS, LEVEL_SETS)
    def test_monotone_under_level_set_inclusion(self, smaller, larger):
        merged = smaller | larger
        assert criterion_rubric(AbetCriterion(id="x", levels=smaller)) <= \
            criterion_rubric(AbetCriterion(id="y", levels=merged))

    @given(LEVEL_SETS)
    def test_bounds(self, levels):
        assert 1 <= criterion_rubric(AbetCriterion(id="x", levels=levels)) <= 21


class TestMaxRubric:
    def test_is_21(self):
        assert MAX_RUBRIC == 21

    def test_equals_sum_of_all_weights(self):
        assert MAX_RUBRIC == sum(range(1, 7))

    def test_equals_rubric_of_fully_mapped_criterion(self):
        assert MAX_RUBRIC == criterion_rubric(_criterion(range(1, 7)))

    def test_is_engines_one_value_the_sum_of_the_level_weights(self):
        """``engine`` defines it, so that scoring loads no catalog class, and this module re-exports it."""
        assert MAX_RUBRIC is engine.MAX_RUBRIC
        assert engine.MAX_RUBRIC == sum(level.weight for level in BloomLevel)


class TestRubricTable:
    def test_canonical_table_is_the_reference_column(self, catalog):
        assert catalog.rubrics == CANONICAL_RUBRICS

    @settings(max_examples=50, deadline=None)
    @given(catalogs())
    def test_table_holds_each_criterion_rubric(self, catalog):
        assert catalog.rubrics == {cid: criterion_rubric(c) for cid, c in catalog.criteria.items()}
        assert catalog_total(catalog) == sum(criterion_rubric(c) for c in catalog.criteria.values())

    def test_table_is_not_part_of_equality(self, catalog):
        again = CriterionCatalog(criteria=catalog.criteria, provenance=catalog.provenance)
        assert again == catalog
        assert "rubrics" not in repr(again)


class TestCanonicalCatalog:
    def test_every_rubric_matches_the_reference_column(self, catalog):
        assert len(catalog) == 13
        for cid, expected in CANONICAL_RUBRICS.items():
            assert criterion_rubric(catalog[cid]) == expected, cid

    def test_total_is_157(self, catalog):
        assert catalog_total(catalog) == 157

    def test_single_criterion_catalog(self, catalog):
        only_j = CriterionCatalog.from_criteria([catalog["j"]])
        assert catalog_total(only_j) == 1

    def test_three_criterion_catalog_hand_sum(self, catalog):
        # hand sum of the a, h, k rows: 6 + 6 + 6
        subset = CriterionCatalog.from_criteria([catalog[c] for c in "ahk"])
        assert catalog_total(subset) == 18

    def test_membership_is_by_criterion_id(self, catalog):
        """``in`` reads the id table; without ``__contains__`` it would fall back to ``__getitem__(0)``."""
        assert "a" in catalog and "m" in catalog
        assert "n" not in catalog and 0 not in catalog

    def test_duplicate_ids_rejected(self, catalog):
        with pytest.raises(ValidationError, match="duplicate"):
            CriterionCatalog.from_criteria([catalog["a"], catalog["a"]])

    def test_key_must_be_its_criterion_id(self, catalog):
        with pytest.raises(ValidationError) as exc:
            CriterionCatalog(criteria={"a": catalog["a"], "b": catalog["c"]})
        assert str(exc.value) == "catalog key 'b' does not match criterion id 'c'"

    def test_determinism(self, catalog):
        from course_difficulty.taxonomy import canonical_catalog

        again = canonical_catalog()
        assert again.criteria == catalog.criteria
        assert catalog_total(again) == catalog_total(catalog)


class TestCriterionIds:
    def test_ids_beyond_m_accepted_as_single_tokens(self):
        crit = AbetCriterion(id="so14", levels=frozenset({BloomLevel.APPLY}))
        assert criterion_rubric(crit) == 3

    @pytest.mark.parametrize("bad", ["", "a b", "a|b", "a:b", "a,b"])
    def test_non_token_ids_rejected(self, bad):
        with pytest.raises(ValidationError):
            AbetCriterion(id=bad, levels=frozenset({BloomLevel.APPLY}))


class TestBloomLexicon:
    def test_verbs_are_normalized_lowercase_and_stripped(self):
        lex = BloomLexicon(entries={
            lvl: frozenset({f" Verb{lvl.weight} "}) for lvl in BloomLevel
        })
        assert lex.levels_for("verb3") == frozenset({BloomLevel.APPLY})

    def test_every_level_needs_a_verb(self):
        entries = {lvl: frozenset({"x"}) for lvl in BloomLevel}
        entries[BloomLevel.CREATE] = frozenset()
        with pytest.raises(ValidationError, match="no verbs"):
            BloomLexicon(entries=entries)

    def test_verb_may_appear_at_several_levels(self):
        entries = {lvl: frozenset({f"v{lvl.weight}"}) for lvl in BloomLevel}
        entries[BloomLevel.UNDERSTAND] |= {"compare"}
        entries[BloomLevel.ANALYZE] |= {"compare"}
        lex = BloomLexicon(entries=entries)
        assert lex.levels_for("compare") == frozenset({BloomLevel.UNDERSTAND, BloomLevel.ANALYZE})
        assert len(lex.levels_for("compare")) > 1
        assert len(lex.levels_for("v1")) == 1


def _scanned(lexicon, token):
    """``levels_for`` as a scan of every level's verb set, the lookup the compiled table replaces."""
    token = token.strip().lower()
    return frozenset(level for level, verbs in lexicon.entries.items() if token in verbs)


VERB_TEXTS = st.text(alphabet="abAB -", min_size=1, max_size=4)


@st.composite
def lexicons(draw):
    """Lexicons over a few letters, so verbs overlap across levels and differ only by case or spaces."""
    return BloomLexicon({level: draw(st.frozensets(VERB_TEXTS.filter(str.strip), min_size=1, max_size=4))
                         for level in BloomLevel})


class TestVerbIndex:
    """``levels_by_verb`` gives each verb the levels a scan of ``entries`` finds."""

    def test_shipped_verbs_and_suffix_candidates(self, fixture_dir):
        lexicon = data_io.default_lexicon()
        tokens = {verb for verbs in lexicon.entries.values() for verb in verbs}
        statements = data_io.load_statements(fixture_dir / "outcome_statements.csv")
        for token in [t for s in statements for t in tokenize(s.text)]:
            tokens.add(token)
            tokens.update(token[: -len(suffix)] + tail for suffix, tail in _SUFFIX_CANDIDATES
                          if token.endswith(suffix) and len(token) > len(suffix) + 1)
        for token in sorted(tokens):
            for spelling in (token, token.upper(), f" {token.capitalize()}\t"):
                assert lexicon.levels_for(spelling) == _scanned(lexicon, spelling), spelling
        assert set(lexicon.levels_by_verb) == {verb for verbs in lexicon.entries.values() for verb in verbs}

    @given(lexicons(), st.lists(VERB_TEXTS, max_size=6))
    def test_drawn_tokens_on_drawn_lexicons(self, lexicon, tokens):
        verbs = {verb for level_verbs in lexicon.entries.values() for verb in level_verbs}
        for token in [*tokens, *verbs, ""]:
            assert lexicon.levels_for(token) == _scanned(lexicon, token), token
        assert set(lexicon.levels_by_verb) == verbs
        assert lexicon.levels_for("c") == frozenset()
