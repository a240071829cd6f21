"""Exception taxonomy shared across the package.

Two families matter for the CLI exit-code contract: structural problems
reading a file (``DataFormatError``, exit code 2) and domain rule
violations in otherwise well-formed data (``ValidationError`` and its
subclasses, exit code 1).
"""

from __future__ import annotations


class CourseDifficultyError(Exception):
    """Base class for all errors raised by this package.

    ``path`` and ``line`` name the failing input once an error is located;
    ``line`` is a CSV line number or a JSON entry path such as
    ``courses[3].generations[1]``.
    """

    exit_code = 1
    path: str | None = None
    line: int | str | None = None

    def locate(self, path: str, line: int | str | None = None) -> "CourseDifficultyError":
        """Prefix the message with ``path:line:`` unless the error already names its input."""
        if self.path is None:
            self.path, self.line = path, line
            prefix = f"{path}: " if line is None else f"{path}:{line}: "
            self.args = (prefix + str(self),)
        return self


class DataFormatError(CourseDifficultyError, ValueError):
    """A file is missing, unreadable, or structurally malformed, or a value is malformed."""

    exit_code = 2


class ValidationError(CourseDifficultyError):
    """Well-formed data that violates a domain rule (exit code 1)."""


class InvalidCriterionError(ValidationError):
    """A criterion has no mapped complexity levels (malformed catalog data)."""


class UnresolvedCriterionError(ValidationError):
    """A course references a criterion id missing from the active catalog."""

    def __init__(self, criterion_id: str, course_code: str | None = None):
        self.criterion_id = criterion_id
        self.course_code = course_code
        where = f" (course {course_code})" if course_code else ""
        super().__init__(f"unknown criterion id {criterion_id!r}{where}")


class InvalidGradeError(ValidationError):
    """A grade value lies outside the range allowed by its kind."""


class InsufficientDataError(ValidationError):
    """An aggregation was asked to run over an empty collection."""


class NoActionWordsError(ValidationError):
    """An outcome statement matched no lexicon verbs; manual review needed."""
