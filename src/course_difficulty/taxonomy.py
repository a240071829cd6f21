"""Cognitive complexity levels, the action-verb lexicon, and the criterion catalog.

The six cognitive levels carry integer complexity weights 1-6. A criterion
maps an outcome letter to a subset of those levels; its rubric is the sum of
the mapped weights (1..21). The shipped canonical catalog assigns the
thirteen standard outcome letters (a-m) their level sets; custom catalogs may
add further outcomes under any single-token id.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from enum import Enum

from .errors import DataFormatError, InvalidCriterionError, ValidationError
from .rounding import parse_int


class BloomLevel(Enum):
    """One cognitive category; the enum value is its complexity weight."""

    REMEMBER = 1
    UNDERSTAND = 2
    APPLY = 3
    ANALYZE = 4
    EVALUATE = 5
    CREATE = 6

    @property
    def weight(self) -> int:
        return self.value

    @property
    def label(self) -> str:
        return self.name.capitalize()

    @classmethod
    def from_token(cls, token: str | int) -> "BloomLevel":
        """Parse a level from an integer 1-6 or a canonical level name.

        A token of neither shape (ASCII digits with an optional sign, or
        letters) raises ``DataFormatError``, a ``ValueError``; a number out
        of range or an unknown name raises ``ValidationError``.
        """
        if isinstance(token, str) and token.strip().isalpha():
            try:
                return cls[token.strip().upper()]
            except KeyError:
                raise ValidationError(f"unknown complexity level {token!r}") from None
        if isinstance(token, str):
            value = parse_int(token, "complexity level")
        elif isinstance(token, int) and not isinstance(token, bool):
            value = token
        else:
            raise DataFormatError(f"cannot parse complexity level {token!r}")
        try:
            return cls(value)
        except ValueError:
            raise ValidationError(f"complexity level out of range 1-6: {value}") from None


MAX_RUBRIC = sum(level.weight for level in BloomLevel)  # 1+2+3+4+5+6 = 21


def _valid_id(criterion_id: str) -> bool:
    # single token: the CSV formats use '|' and ':' as separators
    if not criterion_id:
        return False
    return not any(ch.isspace() or ch in "|:," for ch in criterion_id)


@dataclass(frozen=True)
class AbetCriterion:
    """One lettered outcome with its mapped set of complexity levels."""

    id: str
    levels: frozenset[BloomLevel]
    description: str = ""

    def __post_init__(self):
        if not _valid_id(self.id):
            raise ValidationError(f"criterion id must be a single token, got {self.id!r}")
        if not self.levels:
            raise InvalidCriterionError(f"criterion {self.id!r} maps to no complexity levels")
        object.__setattr__(self, "levels", frozenset(self.levels))


def criterion_rubric(criterion: AbetCriterion) -> int:
    """Sum of the complexity weights mapped to the criterion (1..21)."""
    return sum(level.weight for level in criterion.levels)


@dataclass(frozen=True)
class CriterionCatalog:
    """Immutable id -> criterion map with a provenance label.

    ``rubrics`` is the catalog compiled once into an id -> rubric points
    table, so the rubric path sums plain integers.
    """

    criteria: Mapping[str, AbetCriterion]
    provenance: str = ""
    rubrics: Mapping[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "criteria", dict(self.criteria))
        for key, criterion in self.criteria.items():
            if key != criterion.id:
                raise ValidationError(f"catalog key {key!r} does not match criterion id {criterion.id!r}")
        object.__setattr__(self, "rubrics", {key: criterion_rubric(c) for key, c in self.criteria.items()})

    def __contains__(self, criterion_id: str) -> bool:
        return criterion_id in self.criteria

    def __getitem__(self, criterion_id: str) -> AbetCriterion:
        return self.criteria[criterion_id]

    def __len__(self) -> int:
        return len(self.criteria)

    @classmethod
    def from_criteria(cls, criteria: Iterable[AbetCriterion], provenance: str = "") -> "CriterionCatalog":
        mapping: dict[str, AbetCriterion] = {}
        for criterion in criteria:
            if criterion.id in mapping:
                raise ValidationError(f"duplicate criterion id {criterion.id!r}")
            mapping[criterion.id] = criterion
        return cls(criteria=mapping, provenance=provenance)


def catalog_total(catalog: CriterionCatalog) -> int:
    """Sum of criterion rubrics over the whole catalog (157 for the canonical one)."""
    return sum(catalog.rubrics.values())


@dataclass(frozen=True)
class BloomLexicon:
    """Action verbs by level. A verb may appear under several levels;
    published verb lists genuinely overlap, and lookups surface that
    ambiguity rather than tie-breaking it."""

    entries: Mapping[BloomLevel, frozenset[str]]

    def __post_init__(self):
        normalized: dict[BloomLevel, frozenset[str]] = {}
        for level in BloomLevel:
            verbs = self.entries.get(level, frozenset())
            cleaned = frozenset(v.strip().lower() for v in verbs if v.strip())
            if not cleaned:
                raise ValidationError(f"lexicon has no verbs for level {level.label}")
            normalized[level] = cleaned
        object.__setattr__(self, "entries", normalized)

    def levels_for(self, verb: str) -> frozenset[BloomLevel]:
        token = verb.strip().lower()
        return frozenset(level for level, verbs in self.entries.items() if token in verbs)


# Canonical catalog: outcome letter -> (mapped complexity levels, statement).
_CANONICAL_ROWS: tuple[tuple[str, tuple[int, ...], str], ...] = (
    ("a", (1, 2, 3),
     "an ability to apply knowledge of mathematics, science, and engineering"),
    ("b", (1, 2, 3, 4, 5, 6),
     "an ability to design and conduct experiments, as well as to analyze and interpret data"),
    ("c", (1, 2, 3, 4, 5, 6),
     "an ability to design a system, component, or process to meet desired needs within "
     "realistic constraints such as economic, environmental, social, political, ethical, "
     "health and safety, manufacturability, and sustainability"),
    ("d", (1, 2, 3),
     "an ability to function on multidisciplinary teams"),
    ("e", (1, 2, 3, 4, 5, 6),
     "an ability to identify, formulate, and solve engineering problems"),
    ("f", (1, 2),
     "an understanding of professional and ethical responsibility"),
    ("g", (1, 2),
     "an ability to communicate effectively"),
    ("h", (1, 2, 3),
     "the broad education necessary to understand the impact of engineering solutions in "
     "a global, economic, environmental, and societal context"),
    ("i", (1, 2, 3, 4, 5, 6),
     "a recognition of the need for, and an ability to engage in life-long learning"),
    ("j", (1,),
     "a knowledge of contemporary issues"),
    ("k", (1, 2, 3),
     "an ability to use the techniques, skills, and modern engineering tools necessary "
     "for engineering practice"),
    ("l", (1, 2, 3, 4, 5, 6),
     "an ability to apply mathematical foundations, algorithmic principles and computer "
     "science theory in modeling and design of computer-based systems (CBC)"),
    ("m", (1, 2, 3, 4, 5, 6),
     "an ability to apply design and development principles in the construction of "
     "software systems (CS)"),
)

CANONICAL_PROVENANCE = "table1-canonical"


def canonical_catalog() -> CriterionCatalog:
    """The shipped thirteen-criterion catalog (rubric total 157)."""
    return CriterionCatalog.from_criteria(
        (
            AbetCriterion(
                id=cid,
                levels=frozenset(BloomLevel(v) for v in values),
                description=description,
            )
            for cid, values, description in _CANONICAL_ROWS
        ),
        provenance=CANONICAL_PROVENANCE,
    )
