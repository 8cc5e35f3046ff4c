"""Small argument-validation helpers used across the package.

These helpers keep precondition checks one-liners at call sites while
producing consistent, informative error messages.
"""

from __future__ import annotations

import keyword
import math
import re
from typing import Any

_IDENTIFIER_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValueError` with ``message`` unless ``condition`` holds."""
    if not condition:
        raise ValueError(message)


def require_type(value: Any, expected: type | tuple[type, ...], name: str) -> None:
    """Raise :class:`TypeError` unless ``value`` is an instance of ``expected``."""
    if not isinstance(value, expected):
        expected_name = (
            expected.__name__
            if isinstance(expected, type)
            else " or ".join(t.__name__ for t in expected)
        )
        raise TypeError(
            f"{name} must be {expected_name}, got {type(value).__name__}"
        )


def require_finite(
    value: float, name: str, error: type[Exception] = ValueError
) -> None:
    """Raise ``error`` unless ``value`` is a finite number (not NaN or ±inf)."""
    if not math.isfinite(value):
        raise error(f"{name} must be finite, got {value!r}")


def require_positive(
    value: float, name: str, error: type[Exception] = ValueError
) -> None:
    """Raise ``error`` unless ``value`` is strictly positive (NaN is not)."""
    if not value > 0:
        raise error(f"{name} must be positive, got {value!r}")


def require_non_negative(
    value: float, name: str, error: type[Exception] = ValueError
) -> None:
    """Raise ``error`` unless ``value`` is zero or positive (NaN is not)."""
    if not value >= 0:
        raise error(f"{name} must be non-negative, got {value!r}")


def require_int(
    value: object, name: str, minimum: int, error: type[Exception] = ValueError
) -> None:
    """Raise ``error`` unless ``value`` is an int (not a bool) ``>= minimum``.

    Counts and strides must be whole: a float would be rounded up by some
    ``range``/modulo use and rejected by another, and ``True`` would pass
    as 1, so both are refused by type before the bound is checked.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise error(f"{name} must be an int of at least {minimum}, got {value!r}")


def require_identifier(value: str, name: str) -> None:
    """Raise :class:`ValueError` unless ``value`` is a legal identifier.

    Identifiers are used for dynamic method and field names, WSDL operation
    names, and CORBA-IDL interface members; all of them must be valid in the
    Java-style grammar the paper assumes, which coincides with Python's
    identifier grammar minus keywords.
    """
    if not isinstance(value, str) or not _IDENTIFIER_RE.match(value):
        raise ValueError(f"{name} must be a valid identifier, got {value!r}")
    if keyword.iskeyword(value):
        raise ValueError(f"{name} must not be a reserved keyword, got {value!r}")
