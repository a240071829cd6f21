"""Cognitive complexity levels, the action-verb lexicon, and the criterion catalog.

The six cognitive levels carry integer complexity weights 1-6. A criterion
maps an outcome letter to a subset of those levels; its rubric is the sum of
the mapped weights (1..21). The canonical catalog, the paper's Table 1, is
the shipped fixture ``table1.json``: it assigns the thirteen standard outcome
letters (a-m) their level sets. Custom catalogs may add further outcomes under
any single-token id.

Catalogs and lexicons are frozen, with read-only mappings, and each is
compiled once by its constructor: a catalog into its ``rubrics`` table, a
lexicon into its ``levels_by_verb`` table. README, "Library use", gives the
sharing, pickling and copying rules.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from types import MappingProxyType

from .engine import MAX_RUBRIC  # re-exported: engine owns it, so that scoring loads no catalog class
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

    # read through C, as Enum's own hash and ``value`` run Python code: a member is
    # a singleton compared by identity, and its weight is its value
    __hash__ = object.__hash__
    weight = property(attrgetter("_value_"))

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


_LEVEL_TOKENS = {str(level.weight): level for level in BloomLevel}  # the canonical spellings "1"-"6"


def _levels(cell: str, owner: str, name: str) -> frozenset[BloomLevel]:
    """The levels cell of the ``owner`` record ``name``, its levels joined by '|': a cell of canonical
    digits is read by table, any other token by token through ``BloomLevel.from_token``."""
    tokens = cell.split("|")
    try:
        levels = [_LEVEL_TOKENS[t] for t in tokens]
    except KeyError:
        levels = [BloomLevel.from_token(t) for t in tokens if t.strip()]  # out-of-range -> ValidationError
    found = frozenset(levels)
    if len(found) != len(levels):
        repeated = next(level for i, level in enumerate(levels) if level in levels[:i])
        raise ValidationError(f"{owner} {name!r} lists level {repeated.weight} more than once")
    return found


def _valid_id(criterion_id: str) -> bool:
    # single token: the CSV formats use '|' and ':' as separators
    return bool(criterion_id) and not any(ch.isspace() or ch in "|:," for ch in criterion_id)


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
    table, so the rubric path sums plain integers. Both mappings are
    read-only, so the table cannot go stale.
    """

    criteria: Mapping[str, AbetCriterion]
    provenance: str = ""
    rubrics: Mapping[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        criteria = dict(self.criteria)
        for key, criterion in criteria.items():
            if key != criterion.id:
                raise ValidationError(f"catalog key {key!r} does not match criterion id {criterion.id!r}")
        object.__setattr__(self, "criteria", MappingProxyType(criteria))
        object.__setattr__(self, "rubrics", MappingProxyType({key: criterion_rubric(c) for key, c in criteria.items()}))

    def __reduce__(self):
        return CriterionCatalog, (dict(self.criteria), self.provenance)

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


_NO_LEVELS: frozenset[BloomLevel] = frozenset()


@dataclass(frozen=True)
class BloomLexicon:
    """Action verbs by level. A verb may appear under several levels;
    published verb lists genuinely overlap, and lookups surface that
    ambiguity rather than tie-breaking it.

    ``levels_by_verb`` is the lexicon compiled once into a verb -> levels
    table, the inverse of ``entries``, so a lookup is one dict read.
    """

    entries: Mapping[BloomLevel, frozenset[str]]
    levels_by_verb: Mapping[str, frozenset[BloomLevel]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        normalized: dict[BloomLevel, frozenset[str]] = {}
        by_verb: dict[str, list[BloomLevel]] = {}
        for level in BloomLevel:
            verbs = self.entries.get(level, frozenset())
            cleaned = frozenset(v.strip().lower() for v in verbs if v.strip())
            if not cleaned:
                raise ValidationError(f"lexicon has no verbs for level {level.label}")
            normalized[level] = cleaned
            for verb in cleaned:
                by_verb.setdefault(verb, []).append(level)
        object.__setattr__(self, "entries", MappingProxyType(normalized))
        object.__setattr__(self, "levels_by_verb", MappingProxyType({v: frozenset(ls) for v, ls in by_verb.items()}))

    def __reduce__(self):
        return BloomLexicon, (dict(self.entries),)

    def levels_for(self, verb: str) -> frozenset[BloomLevel]:
        return self.levels_by_verb.get(verb.strip().lower(), _NO_LEVELS)


@functools.cache
def canonical_catalog() -> CriterionCatalog:
    """The shipped thirteen-criterion catalog (rubric total 157), the fixture
    ``table1.json``, loaded once per process and shared: it is read-only."""
    from . import data_io  # deferred: data_io imports this module

    return data_io.load_catalog(data_io.fixture_path("table1.json"))
