import pytest
from hypothesis import given
from hypothesis import strategies as st

from course_difficulty.errors import NoActionWordsError, ValidationError
from course_difficulty.mapper import OutcomeStatement, map_outcome, suggest_criterion, tokenize
from course_difficulty.taxonomy import BloomLevel, BloomLexicon, criterion_rubric

# Level sets each shipped-catalog statement maps to under the default
# lexicon, derived by hand from the verb list (weights shown).
EXPECTED_STATEMENT_LEVELS = {
    "a": {3},
    "b": {2, 3, 4, 6},
    "c": {6},
    "d": set(),
    "e": {1, 3, 6},
    "f": set(),
    "g": set(),
    "h": {2},
    "i": set(),
    "j": set(),
    "k": {3},
    "l": {3, 6},
    "m": {3, 6},
}


def _small_lexicon(**extra):
    entries = {
        BloomLevel.REMEMBER: {"list"},
        BloomLevel.UNDERSTAND: {"explain"},
        BloomLevel.APPLY: {"apply", "use"},
        BloomLevel.ANALYZE: {"analyze"},
        BloomLevel.EVALUATE: {"judge"},
        BloomLevel.CREATE: {"design"},
    }
    for name, verbs in extra.items():
        entries[BloomLevel[name.upper()]] = entries[BloomLevel[name.upper()]] | verbs
    return BloomLexicon(entries={k: frozenset(v) for k, v in entries.items()})


class TestTokenize:
    def test_simple_statement(self):
        assert tokenize("Design and conduct experiments") == ["design", "and", "conduct", "experiments"]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_punctuation_is_a_boundary(self):
        assert tokenize("analyze/interpret data") == ["analyze", "interpret", "data"]

    def test_digits_are_boundaries_too(self):
        assert tokenize("plan 3 experiments") == ["plan", "experiments"]


@pytest.mark.parametrize("text", ["", "  ", "\t\n"], ids=["empty", "spaces", "tab-newline"])
def test_statement_with_blank_text_is_refused(text):
    with pytest.raises(ValidationError) as exc:
        OutcomeStatement(criterion_id="a", text=text)
    assert str(exc.value) == "statement 'a' has empty text"


class TestMapOutcome:
    def test_single_verb_statement(self):
        statement = OutcomeStatement(criterion_id="a", text="apply knowledge of mathematics")
        result = map_outcome(statement, _small_lexicon())
        assert result.levels == frozenset({BloomLevel.APPLY})
        assert result.matched == (("apply", BloomLevel.APPLY),)
        assert result.unmatched_tokens_count == 3

    def test_no_matches_is_not_an_error(self):
        statement = OutcomeStatement(criterion_id="x", text="broad education on teams")
        result = map_outcome(statement, _small_lexicon())
        assert result.levels == frozenset()
        assert result.matched == ()
        assert result.unmatched_tokens_count == 4

    def test_duplicate_verbs_collapse(self):
        once = map_outcome(OutcomeStatement(criterion_id="x", text="design things"), _small_lexicon())
        twice = map_outcome(
            OutcomeStatement(criterion_id="x", text="design and design things"), _small_lexicon()
        )
        assert once.levels == twice.levels
        assert once.matched == twice.matched

    def test_ambiguous_verb_contributes_all_its_levels(self):
        lexicon = _small_lexicon(understand={"compare"}, analyze={"compare"})
        result = map_outcome(OutcomeStatement(criterion_id="x", text="compare results"), lexicon)
        assert result.levels == frozenset({BloomLevel.UNDERSTAND, BloomLevel.ANALYZE})
        assert result.ambiguous_verbs == ("compare",)

    def test_case_insensitive(self):
        lexicon = _small_lexicon()
        lower = map_outcome(OutcomeStatement(criterion_id="x", text="apply and design"), lexicon)
        upper = map_outcome(OutcomeStatement(criterion_id="x", text="APPLY AND DESIGN"), lexicon)
        assert lower == upper

    def test_suffix_rule_off_by_default(self):
        statement = OutcomeStatement(criterion_id="x", text="designing experiments")
        assert map_outcome(statement, _small_lexicon()).levels == frozenset()

    def test_suffix_rule_matches_gerund_and_plural_forms(self):
        lexicon = _small_lexicon()
        gerund = map_outcome(
            OutcomeStatement(criterion_id="x", text="designing experiments"), lexicon, suffix_rule=True
        )
        assert gerund.levels == frozenset({BloomLevel.CREATE})
        assert gerund.matched == (("designing", BloomLevel.CREATE),)
        plural = map_outcome(
            OutcomeStatement(criterion_id="x", text="the student applies rules"), lexicon, suffix_rule=True
        )
        assert plural.levels == frozenset({BloomLevel.APPLY})

    def test_soundness_matched_verbs_occur_in_text(self, default_lexicon):
        statement = OutcomeStatement(criterion_id="b", text="Design and conduct experiments; analyze data")
        result = map_outcome(statement, default_lexicon)
        tokens = set(tokenize(statement.text))
        assert all(verb in tokens for verb, _ in result.matched)
        assert result.levels == frozenset(level for _, level in result.matched)

    @given(st.text(alphabet="abcdefghij ,.", max_size=60))
    def test_deterministic(self, text):
        if not text.strip():
            return
        lexicon = _small_lexicon()
        statement = OutcomeStatement(criterion_id="x", text=text)
        assert map_outcome(statement, lexicon) == map_outcome(statement, lexicon)

    @given(st.sets(st.sampled_from(["alpha", "beta", "gamma", "delta"])))
    def test_adding_verbs_never_removes_levels(self, extra_verbs):
        base = _small_lexicon()
        grown = _small_lexicon(evaluate=extra_verbs)
        statement = OutcomeStatement(criterion_id="x", text="alpha beta apply gamma judge")
        before = map_outcome(statement, base)
        after = map_outcome(statement, grown)
        assert before.levels <= after.levels


class TestShippedLexiconGolden:
    def test_all_thirteen_statements(self, catalog, default_lexicon):
        for cid, expected in EXPECTED_STATEMENT_LEVELS.items():
            statement = OutcomeStatement(criterion_id=cid, text=catalog[cid].description)
            result = map_outcome(statement, default_lexicon)
            assert {lvl.weight for lvl in result.levels} == expected, cid

    def test_verb_matching_does_not_explain_the_catalog(self, catalog, default_lexicon):
        # several statements carry no lexicon verb at all; the catalog, not
        # this helper, stays the source of truth for level mappings
        unmatched = [
            cid for cid, expected in EXPECTED_STATEMENT_LEVELS.items() if not expected
        ]
        assert unmatched == ["d", "f", "g", "i", "j"]


class TestSuggestCriterion:
    def test_draft_rubric_from_three_levels(self):
        lexicon = _small_lexicon()
        statement = OutcomeStatement(criterion_id="new1", text="list explain apply")
        draft = suggest_criterion(statement, lexicon)
        assert criterion_rubric(draft) == 6  # 1 + 2 + 3
        assert draft.id == "new1"
        assert draft.description == statement.text

    def test_draft_rubric_full_set(self):
        lexicon = _small_lexicon()
        statement = OutcomeStatement(criterion_id="new2", text="list explain apply analyze judge design")
        assert criterion_rubric(suggest_criterion(statement, lexicon)) == 21

    def test_empty_mapping_is_an_error(self):
        statement = OutcomeStatement(criterion_id="new3", text="nothing matches here")
        with pytest.raises(NoActionWordsError):
            suggest_criterion(statement, _small_lexicon())
