"""Exception types shared across the package."""

from __future__ import annotations

from dataclasses import dataclass


class AuditError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(AuditError):
    """A configuration value is missing, malformed, or inconsistent."""


def _check_keys(doc, allowed: tuple[str, ...], where: str, required: tuple[str, ...] = ()) -> None:
    """ConfigError unless ``doc`` is a JSON object with keys among ``allowed``
    and every key in ``required``; unknown keys of named entries name them."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object, got {doc!r}")
    unknown = [k for k in doc if k not in allowed]
    if unknown:
        named = f" {doc.get('name', '?')!r}" if "name" in allowed else ""
        raise ConfigError(f"unknown key(s) in {where}{named}: {', '.join(sorted(unknown))}")
    missing = [k for k in required if k not in doc]
    if missing:
        raise ConfigError(f"{where} needs {missing[0]!r}")


def _convert(kind, value, key: str):
    """``int(value)`` or ``float(value)`` of a number, an int or a float but
    not a bool or a string; for ``int`` only an integral one, so 1e3 gives
    1000 and 2.7 is refused.  A ConfigError naming ``key`` otherwise."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if kind is float or isinstance(value, int) or value.is_integer():
                return kind(value)
        except OverflowError:
            pass
    raise ConfigError(f"{key} must be {'an integer' if kind is int else 'a number'}, got {value!r}")


def _typed(value, kind, key: str):
    """``value`` when it is a ``kind`` (str, list or dict); a ConfigError
    naming ``key`` otherwise."""
    if not isinstance(value, kind):
        what = {str: "a string", list: "a list", dict: "a JSON object"}[kind]
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    return value


def _names(value, key: str) -> tuple[str, ...]:
    """A JSON list of strings as a tuple; ConfigError otherwise."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"{key} must be a list of names, got {value!r}")
    return tuple(value)


class SchemaError(AuditError):
    """A cohort schema is self-contradictory or does not match the data header."""


@dataclass(frozen=True)
class RowIssue:
    """One problem found while reading a cohort file.

    ``line`` is the 1-based physical line in the source on which the
    record starts (the header is line 1); ``None`` when the issue is not tied
    to a single line.
    """

    line: int | None
    column: str | None
    message: str

    def to_dict(self) -> dict:
        return {"line": self.line, "column": self.column, "message": self.message}


class CohortValidationError(AuditError):
    """Raised when cohort rows are malformed beyond repair.

    Carries every issue found, not just the first, so a caller can emit a
    complete validation report in one pass.
    """

    def __init__(self, issues: list[RowIssue]):
        self.issues = list(issues)
        head = "; ".join(i.message for i in self.issues[:3])
        more = f" (+{len(self.issues) - 3} more)" if len(self.issues) > 3 else ""
        super().__init__(f"cohort validation failed: {head}{more}")


class UndefinedMetricError(AuditError):
    """A metric has no defined value on the given data (e.g. single-class AUROC)."""


class FitError(AuditError):
    """Model fitting could not proceed (structurally singular system)."""


class PropensityError(AuditError):
    """Propensity estimation was asked to do something unsound."""


class InsufficientDataError(AuditError):
    """Not enough usable data to run the requested analysis."""
