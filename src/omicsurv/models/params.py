"""Typed reads of a family's hyperparameters."""

from __future__ import annotations

from ..errors import ConfigError


def number(params: dict, key: str, default, kind=float):
    """``params[key]``, else ``default``, as ``kind``; a value that is not a
    number is a ConfigError naming the key."""
    value = params.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(
            f"hyperparameter {key!r} must be a number, got {value!r}") from None
