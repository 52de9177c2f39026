"""Typed reads of externally given keys, config sections and model
hyperparameters alike: ``read_section`` is the one place they are cast and
their declared bounds checked."""

from __future__ import annotations

import typing

from .errors import ConfigError, check_bound


def _typed(key: str, value, kind):
    """``value`` as ``kind`` (a type or ``list[type]``), else a ConfigError
    naming ``key``. An int is a float; a bool is only a bool."""
    item_kind = typing.get_args(kind)
    kind = typing.get_origin(kind) or kind
    if kind is float and type(value) is int:
        return float(value)
    if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
        raise ConfigError(f"{key!r} must be {kind.__name__}, got {value!r}")
    if item_kind:
        return [_typed(f"{key}[{i}]", v, item_kind[0]) for i, v in enumerate(value)]
    return value


def read_section(raw: dict, name: str, spec: dict, build=dict):
    """``build(**values)`` over the mapping ``raw`` at dotted ``name``, its
    values typed by ``spec`` (``{key: (type, default)}`` or ``{key: (type,
    default, bound)}``, ``bound`` as ``errors.check_bound`` reads it; a list
    value's bound is each item's); a missing or empty key takes its default,
    and a None value meets any bound. An unknown key, a wrongly typed value,
    a value or item outside its bound or one that ``build`` rejects is a
    ConfigError naming the key (``key[i]`` for an item) or the section."""
    prefix = f"{name}." if name else ""
    unknown = sorted(set(raw) - set(spec), key=str)
    if unknown:
        raise ConfigError(f"unknown config key {prefix + str(unknown[0])!r}; "
                          f"valid keys: {sorted(spec)}")
    values = {key: default if raw.get(key) is None
              else _typed(prefix + key, raw[key], kind)
              for key, (kind, default, *_) in spec.items()}
    for key, (_, _, *bound) in spec.items():
        value = values[key]
        if bound and isinstance(value, list):
            for i, item in enumerate(value):
                check_bound(f"{prefix}{key}[{i}]", item, *bound)
        elif bound and value is not None:
            check_bound(prefix + key, value, *bound)
    try:
        return build(**values)
    except ConfigError as exc:
        raise ConfigError(f"{name}: {exc}") from None
