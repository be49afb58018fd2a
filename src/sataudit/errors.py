"""Exception taxonomy shared across the toolkit, the one way every input
file is opened, and the one walker that checks a config's values (and
keys) against their rules.

The CLI maps these onto process exit codes: configuration problems exit
with 1, data problems with 2, and numerical failures with 3.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import math


class SatauditError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(SatauditError):
    """Invalid configuration or unusable parameter combination."""


class DataError(SatauditError):
    """Input data is missing, malformed, or insufficient for the request."""


class InsufficientSignalError(DataError):
    """A fit was requested on data that carries no usable signal."""


class ConvergenceError(SatauditError):
    """An optimizer failed to converge within its iteration budget."""

    def __init__(self, message: str, *, iterations: int, objective: float,
                 gradient_norm: float):
        super().__init__(message)
        self.iterations = iterations
        self.objective = objective
        self.gradient_norm = gradient_norm

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        base = super().__str__()
        return (f"{base} (iterations={self.iterations}, "
                f"objective={self.objective:.6g}, "
                f"gradient_norm={self.gradient_norm:.3g})")


@contextlib.contextmanager
def reading(path, error: type[SatauditError]):
    """`path` open as UTF-8 text, a leading byte-order mark (which
    spreadsheet exports write) skipped, and line endings kept, so that
    the csv module sees quoted line breaks.  A file that cannot be opened,
    decoded or (by a csv reader) parsed raises `error` with a
    ``cannot read <path>`` line."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            yield fh
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise error(f"cannot read {path}: {exc}") from exc


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    return is_int(value) or (isinstance(value, float)
                             and math.isfinite(value))


# what a config field of each annotated type may hold: (description, test)
TYPE_RULES = {
    "str": ("a string", lambda v: isinstance(v, str)),
    "tuple[str, ...]": (
        "a string or a list of strings",
        lambda v: (isinstance(v, (str, list, tuple))
                   and all(isinstance(m, str) for m in v))),
    "int": ("an integer", is_int),
    "int | None": ("an integer or null", lambda v: v is None or is_int(v)),
    "float": ("a finite number", is_number),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
}


def check_fields(obj, rules: dict, prefix: str = "") -> None:
    """Raise a ConfigError for the first field of dataclass `obj`, in field
    order, whose value breaks its annotation's TYPE_RULES entry or one of
    the (rule, test) pairs in ``rules[name]``, tried in that order.  A
    field whose first rule names a type ("a positive number") reports a
    value of the wrong type with that rule."""
    for f in dataclasses.fields(obj):
        value, checks = getattr(obj, f.name), list(rules.get(f.name, ()))
        if f.type in TYPE_RULES:
            what, ok = TYPE_RULES[f.type]
            if checks and checks[0][0].startswith("a "):
                what = checks[0][0]
            checks.insert(0, (what, ok))
        for rule, test in checks:
            if not test(value):
                shown = list(value) if isinstance(value, tuple) else value
                raise ConfigError(f"{prefix}{f.name} must be {rule}, "
                                  f"got {shown!r}")


def check_keys(values: dict, names, what: str) -> None:
    """Raise a ConfigError naming every key of `values` not in `names`."""
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise ConfigError(f"unknown {what} keys: {', '.join(unknown)}")
