"""Tag outcome statements with complexity levels by matching action verbs.

Matching is exact-token against the lexicon (auditability beats cleverness
here); an optional suffix rule extends it to plural/gerund forms. Verbs
listed at several levels contribute all of them and are flagged so a human
can resolve the ambiguity. This module suggests catalog entries, it never
writes them: zero matches means the text needs manual classification.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass

from .errors import NoActionWordsError, ValidationError
from .taxonomy import AbetCriterion, BloomLevel, BloomLexicon

_WORD = re.compile(r"[a-z]+")

# Tried in order against the lexicon when the literal token misses:
# plural/third-person endings first, then gerund endings (with and without
# a restored trailing 'e').
_SUFFIX_CANDIDATES = (
    ("ies", "y"),
    ("es", ""),
    ("s", ""),
    ("ing", ""),
    ("ing", "e"),
)


@dataclass(frozen=True)
class OutcomeStatement:
    criterion_id: str
    text: str

    def __post_init__(self):
        if not self.text.strip():
            raise ValidationError(f"statement {self.criterion_id!r} has empty text")


@dataclass(frozen=True)
class MappingResult:
    criterion_id: str
    matched: tuple[tuple[str, BloomLevel], ...]
    levels: frozenset[BloomLevel]
    unmatched_tokens_count: int
    ambiguous_verbs: tuple[str, ...]


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens split on non-alphabetic boundaries, in order."""
    return _WORD.findall(text.lower())


def _resolve(token: str, verbs: Mapping[str, frozenset[BloomLevel]], suffix_rule: bool) -> frozenset[BloomLevel] | None:
    """A token's levels in a lexicon's ``levels_by_verb``, or None; ``tokenize`` gives
    tokens as the table spells its verbs, so each is read as it is."""
    levels = verbs.get(token)
    if levels or not suffix_rule:
        return levels
    for suffix, tail in _SUFFIX_CANDIDATES:
        if token.endswith(suffix) and len(token) > len(suffix) + 1:
            levels = verbs.get(token[: -len(suffix)] + tail)
            if levels:
                return levels
    return None


def map_outcome(
    statement: OutcomeStatement,
    lexicon: BloomLexicon,
    suffix_rule: bool = False,
) -> MappingResult:
    """Match the statement's tokens against the lexicon.

    Zero matches is a valid result (empty level set), not an error. Matched
    pairs record the token as it occurred in the text, in first-occurrence
    order; duplicate occurrences collapse to one entry per (token, level).
    """
    matched: dict[tuple[str, BloomLevel], None] = {}
    ambiguous: dict[str, None] = {}
    unmatched = 0
    verbs = lexicon.levels_by_verb
    for token in tokenize(statement.text):
        levels = _resolve(token, verbs, suffix_rule)
        if not levels:
            unmatched += 1
            continue
        if len(levels) > 1:
            ambiguous.setdefault(token)
        for level in sorted(levels, key=BloomLevel.weight.fget):
            matched.setdefault((token, level))
    return MappingResult(
        criterion_id=statement.criterion_id,
        matched=tuple(matched),
        levels=frozenset(level for _, level in matched),
        unmatched_tokens_count=unmatched,
        ambiguous_verbs=tuple(ambiguous),
    )


def suggest_criterion(
    statement: OutcomeStatement,
    lexicon: BloomLexicon,
    suffix_rule: bool = False,
) -> AbetCriterion:
    """Draft a catalog entry from the mapped levels, for human review."""
    result = map_outcome(statement, lexicon, suffix_rule=suffix_rule)
    if not result.levels:
        raise NoActionWordsError(
            f"statement {statement.criterion_id!r} matched no action words; classify it manually"
        )
    return AbetCriterion(
        id=statement.criterion_id,
        levels=result.levels,
        description=statement.text,
    )
