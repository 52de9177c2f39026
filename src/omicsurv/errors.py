"""Exception hierarchy shared across the package, and ``check_bound``, the one
check of a value against a declared lower bound.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
anything else -> 4.
"""


class OmicsurvError(Exception):
    """Base class for all package errors."""


class ConfigError(OmicsurvError):
    """Invalid configuration value or malformed config file."""


class DataError(OmicsurvError):
    """Malformed or inconsistent input data."""


def check_bound(key: str, value, bound: str) -> None:
    """A ConfigError naming ``key`` unless ``value`` meets ``bound``, the text
    ``">= <limit>"`` or ``"> <limit>"`` that the message prints. Written
    ``not (value op limit)``, so NaN meets no bound."""
    op, limit = bound.split()
    limit = float(limit)
    if not (value >= limit if op == ">=" else value > limit):
        raise ConfigError(f"{key} must be {bound}, got {value}")
